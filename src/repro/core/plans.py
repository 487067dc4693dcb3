"""Execution plans: how a :class:`GenericPattern` gets computed and timed.

Each plan mirrors one of the strategies the paper evaluates:

* :class:`FusedPlan` — the paper's contribution: one fused kernel
  (Algorithm 2 for CSR, Algorithm 3 + codegen for dense).
* :class:`CusparsePlan` — the operator-level baseline: a chain of
  cuSPARSE/cuBLAS launches with materialized intermediates
  (``csrmv -> ewmul -> csrmv(trans) -> scal/axpy``).
* :class:`ExplicitTransposePlan` — NVIDIA's suggested route: ``csr2csc``
  (optionally amortized) followed by plain ``csrmv`` over ``X^T``.
* :class:`BidmatGpuPlan` — BIDMat's GPU kernels.
* :class:`BidmatCpuPlan` — BIDMat-CPU/MKL, via the CPU roofline model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.counters import PerfCounters
from ..gpu.cpu import CpuCostModel
from ..kernels import blas1, dense_baseline, dense_fused, sparse_baseline, \
    sparse_fused
from ..kernels.base import DEFAULT_CONTEXT, GpuContext, KernelResult, chain
from ..sparse.csr import CsrMatrix
from ..sparse.ops import spmv, spmv_t
from ..tuning.dense_params import tune_dense
from ..tuning.sparse_params import tune_sparse
from .pattern import GenericPattern

_D = 8
_I = 4


class Plan:
    """Interface: a plan evaluates a pattern and returns a timed result."""

    name = "plan"

    def evaluate(self, p: GenericPattern) -> KernelResult:  # pragma: no cover
        raise NotImplementedError


@dataclass
class FusedPlan(Plan):
    """The paper's fused kernel (sparse Algorithm 2 / dense Algorithm 3)."""

    ctx: GpuContext = field(default_factory=lambda: DEFAULT_CONTEXT)
    force_variant: str | None = None   # sparse: "shared" | "global"
    name = "fused"

    def evaluate(self, p: GenericPattern, *,
                 params=None, profile=None) -> KernelResult:
        """``params`` lets a session (:class:`~repro.core.engine.
        PatternEngine`) pass pre-resolved §3.3 parameters instead of
        re-tuning on every call; ``profile`` additionally supplies the
        matching kernel profile (sparse
        :class:`~repro.kernels.sparse_fused.SparseFusedProfile`, dense
        :class:`~repro.kernels.dense_fused.DenseFusedProfile`, or
        :class:`~repro.kernels.dense_baseline.GemvProfile` for the
        unfused dense transpose route)."""
        if p.is_sparse:
            if params is None and profile is None:
                params = tune_sparse(p.X, self.ctx.device,
                                     force_variant=self.force_variant)
            if not p.inner:
                res = sparse_fused.xt_spmv_fused(p.X, p.y, self.ctx, params,
                                                 profile=profile)
                if p.alpha != 1.0:
                    res.output = p.alpha * res.output
                if p.beta != 0.0:
                    res = chain(res, blas1.axpy(p.beta, p.z, res.output,
                                                self.ctx), name=res.name)
                return res
            return sparse_fused.fused_pattern_sparse(
                p.X, p.y, p.v, p.z, p.alpha, p.beta, self.ctx, params,
                profile=profile)
        Xd = np.asarray(p.X, dtype=np.float64)
        if not p.inner:
            # the paper does not fuse dense X^T x y (cuBLAS is already good)
            res = dense_baseline.gemv_t(Xd, p.y, self.ctx, profile=profile)
            if p.alpha != 1.0:
                res.output = p.alpha * res.output
            if p.beta != 0.0:
                res = chain(res, blas1.axpy(p.beta, p.z, res.output,
                                            self.ctx), name=res.name)
            return res
        if params is None and profile is None:
            params = tune_dense(*Xd.shape, device=self.ctx.device)
        return dense_fused.fused_pattern_dense(
            Xd, p.y, p.v, p.z, p.alpha, p.beta, self.ctx, params,
            profile=profile)


@dataclass
class CusparsePlan(Plan):
    """Operator-level baseline: one library kernel per operator."""

    ctx: GpuContext = field(default_factory=lambda: DEFAULT_CONTEXT)
    name = "cusparse"

    def evaluate(self, p: GenericPattern, *,
                 profile=None) -> KernelResult:
        """``profile`` is a shared :class:`~repro.kernels.sparse_baseline.
        CsrmvProfile` (sparse) or :class:`~repro.kernels.dense_baseline.
        GemvProfile` (dense) — one template serves every operator in the
        chain, since they all walk the same matrix."""
        steps: list[KernelResult] = []
        if p.is_sparse:
            if not p.inner:
                r = sparse_baseline.csrmv_transpose(p.X, p.y, self.ctx,
                                                    profile=profile)
            else:
                r1 = sparse_baseline.csrmv(p.X, p.y, self.ctx,
                                           profile=profile)
                steps.append(r1)
                inter = r1.output
                if p.v is not None:
                    r2 = blas1.ewmul(p.v, inter, self.ctx)
                    steps.append(r2)
                    inter = r2.output
                r = sparse_baseline.csrmv_transpose(p.X, inter, self.ctx,
                                                    profile=profile)
        else:
            Xd = np.asarray(p.X, dtype=np.float64)
            if not p.inner:
                r = dense_baseline.gemv_t(Xd, p.y, self.ctx, profile=profile)
            else:
                r1 = dense_baseline.gemv_n(Xd, p.y, self.ctx, profile=profile)
                steps.append(r1)
                inter = r1.output
                if p.v is not None:
                    r2 = blas1.ewmul(p.v, inter, self.ctx)
                    steps.append(r2)
                    inter = r2.output
                r = dense_baseline.gemv_t(Xd, inter, self.ctx,
                                          profile=profile)
        steps.append(r)
        out = r.output
        if p.alpha != 1.0:
            s = blas1.scal(p.alpha, out, self.ctx)
            steps.append(s)
            out = s.output
        if p.beta != 0.0:
            a = blas1.axpy(p.beta, p.z, out, self.ctx)
            steps.append(a)
        res = chain(*steps, name=self.name)
        return res


@dataclass
class ExplicitTransposePlan(Plan):
    """``csr2csc`` then plain ``csrmv`` — with or without amortization."""

    ctx: GpuContext = field(default_factory=lambda: DEFAULT_CONTEXT)
    amortized: bool = False      # True: transpose cost excluded (pre-built)
    name = "cusparse+csr2csc"

    def __post_init__(self) -> None:
        self._xt_cache: dict[int, CsrMatrix] = {}

    def evaluate(self, p: GenericPattern, *,
                 xt: CsrMatrix | None = None,
                 profile=None, xt_profile=None) -> KernelResult:
        """``xt`` lets a session pass a pre-built (already charged)
        transpose, modelling the amortized steady state of Fig. 2.
        ``profile`` templates the kernels over ``X`` (the inner ``csrmv``);
        ``xt_profile`` templates the steady-state ``csrmv`` over ``X^T``."""
        if not p.is_sparse:
            raise ValueError("explicit-transpose plan is sparse-only")
        steps: list[KernelResult] = []
        if p.inner:
            r1 = sparse_baseline.csrmv(p.X, p.y, self.ctx, profile=profile)
            steps.append(r1)
            inter = r1.output
            if p.v is not None:
                r2 = blas1.ewmul(p.v, inter, self.ctx)
                steps.append(r2)
                inter = r2.output
        else:
            inter = p.y
        key = id(p.X)
        XT = xt if xt is not None else (
            self._xt_cache.get(key) if self.amortized else None)
        spmv_res, trans_res = sparse_baseline.csrmv_via_explicit_transpose(
            p.X, inter, self.ctx, XT=XT,
            profile=xt_profile if XT is not None else None)
        if self.amortized and XT is None:
            # build and cache, but do not charge the (amortized) transpose
            csc = trans_res.output if trans_res is not None else None
            if csc is not None:
                self._xt_cache[key] = CsrMatrix((p.X.n, p.X.m), csc.values,
                                                csc.row_idx, csc.col_off)
            trans_res = None
        if trans_res is not None:
            steps.append(trans_res)
        steps.append(spmv_res)
        out = spmv_res.output
        if p.alpha != 1.0:
            s = blas1.scal(p.alpha, out, self.ctx)
            steps.append(s)
            out = s.output
        if p.beta != 0.0:
            steps.append(blas1.axpy(p.beta, p.z, out, self.ctx))
        return chain(*steps, name=self.name)


@dataclass
class BidmatGpuPlan(Plan):
    """BIDMat's GPU kernels, stitched operator by operator."""

    ctx: GpuContext = field(default_factory=lambda: DEFAULT_CONTEXT)
    name = "bidmat-gpu"

    def evaluate(self, p: GenericPattern, *,
                 profile=None) -> KernelResult:
        steps: list[KernelResult] = []
        if p.is_sparse:
            if p.inner:
                r1 = sparse_baseline.bidmat_spmv(p.X, p.y, self.ctx,
                                                 profile=profile)
                steps.append(r1)
                inter = r1.output
                if p.v is not None:
                    r2 = blas1.ewmul(p.v, inter, self.ctx)
                    steps.append(r2)
                    inter = r2.output
            else:
                inter = p.y
            r = sparse_baseline.bidmat_spmv_transpose(p.X, inter, self.ctx,
                                                      profile=profile)
        else:
            Xd = np.asarray(p.X, dtype=np.float64)
            if p.inner:
                r1 = dense_baseline.bidmat_gemv_n(Xd, p.y, self.ctx,
                                                  profile=profile)
                steps.append(r1)
                inter = r1.output
                if p.v is not None:
                    r2 = blas1.ewmul(p.v, inter, self.ctx)
                    steps.append(r2)
                    inter = r2.output
            else:
                inter = p.y
            r = dense_baseline.bidmat_gemv_t(Xd, inter, self.ctx,
                                             profile=profile)
        steps.append(r)
        out = r.output
        if p.alpha != 1.0:
            s = blas1.scal(p.alpha, out, self.ctx)
            steps.append(s)
            out = s.output
        if p.beta != 0.0:
            steps.append(blas1.axpy(p.beta, p.z, out, self.ctx))
        return chain(*steps, name=self.name)


@dataclass
class BidmatCpuPlan(Plan):
    """BIDMat-CPU (MKL, 8 hyper-threads) via the CPU roofline model."""

    cpu: CpuCostModel = field(default_factory=CpuCostModel)
    llc_bytes: float = 8 * 1024 * 1024
    name = "bidmat-cpu"

    def _gather_fraction(self, n: int) -> float:
        """Random-access share of SpMV traffic; tiny when y fits in LLC."""
        vec_bytes = n * _D
        return 0.05 if vec_bytes <= self.llc_bytes else 0.45

    def evaluate(self, p: GenericPattern) -> KernelResult:
        m, n = p.shape
        total_ms = 0.0
        if p.is_sparse:
            X: CsrMatrix = p.X
            nnz = X.nnz
            gf = self._gather_fraction(n)
            pass_bytes = nnz * (_D + _I) + m * _D
            if p.inner:
                total_ms += self.cpu.time_ms(pass_bytes, 2 * nnz, gf)
                if p.v is not None:
                    total_ms += self.cpu.time_ms(3 * m * _D, m, 0.0)
                total_ms += self.cpu.time_ms(pass_bytes + n * _D,
                                             2 * nnz, gf)
                out = spmv_t(X, (spmv(X, p.y) * (p.v if p.v is not None
                                                 else 1.0)))
            else:
                total_ms += self.cpu.time_ms(pass_bytes + n * _D,
                                             2 * nnz, gf)
                out = spmv_t(X, p.y)
        else:
            Xd = np.asarray(p.X, dtype=np.float64)
            pass_bytes = m * n * _D
            if p.inner:
                total_ms += self.cpu.time_ms(pass_bytes + m * _D, 2 * m * n)
                inter = Xd @ p.y
                if p.v is not None:
                    total_ms += self.cpu.time_ms(3 * m * _D, m)
                    inter = inter * p.v
                total_ms += self.cpu.time_ms(pass_bytes + n * _D, 2 * m * n)
                out = Xd.T @ inter
            else:
                total_ms += self.cpu.time_ms(pass_bytes + n * _D, 2 * m * n)
                out = Xd.T @ p.y
        out = p.alpha * out
        if p.alpha != 1.0:
            total_ms += self.cpu.time_ms(2 * n * _D, n)
        if p.beta != 0.0:
            out = out + p.beta * p.z
            total_ms += self.cpu.time_ms(3 * n * _D, n)
        return KernelResult(out, PerfCounters(), None, 1.0, total_ms,
                            name=self.name)
