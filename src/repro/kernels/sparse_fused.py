"""Fused sparse kernels — Algorithms 1 and 2 of the paper.

Algorithm 1 computes ``w = X^T x p`` with CSR-vector row partitioning and a
two-level aggregation: vectors accumulate into a shared-memory mirror of
``w`` (inter-vector, atomic within the block), then each block flushes the
mirror into global memory (inter-block, atomic across blocks).

Algorithm 2 fuses the whole pattern ``alpha * X^T (v ⊙ (X y)) + beta * z``:
each vector loads a row once to compute ``p[r] = X[r,:] x y`` (register-level
shuffle reduction), multiplies by ``v[r]``, then *reuses the same row* —
now warm in cache — to scatter ``X[r,:]^T * p[r]`` into the shared mirror.
The ``beta * z`` term is folded in as an atomic initialization pass, avoiding
the inter-block barrier CUDA does not provide.

The large-``n`` variant (used for KDD2010's 30M columns) drops the shared
mirror and aggregates straight into global memory: more atomic traffic, but
no shared-memory occupancy limit — and with huge, sparse column spaces the
collision probability is tiny.

**Kernel profiles.** Every event-accounting term above is a function of the
matrix structure, the §3.3 parameters, and the device — none of it depends
on the vectors that change each iteration.  :class:`SparseFusedProfile`
captures that structure-invariant template (plus a planned
:class:`~repro.sparse.ops.SpmvPlan` for the numeric side); each kernel call
either receives a cached profile (the engine's warm path) or builds a fresh
one inline, so profiled and unprofiled calls run the *same* assembly code
and are counter- and bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import trace
from ..gpu.atomics import contention_profile, shared_atomic_batch
from ..gpu.counters import PerfCounters
from ..gpu.launch import LaunchConfig
from ..gpu.memory import coalesced_transactions, warp_segment_template
from ..sparse.csr import CsrMatrix
from ..sparse.ops import SpmvPlan
from ..tuning.sparse_params import SparseParams, tune_sparse
from .base import (DEFAULT_CONTEXT, SPARSE_STREAM_DERATE, GpuContext,
                   KernelResult, finish)
from .sparse_baseline import vector_gather_transactions

_D = 8
_I = 4


def _resolve_params(X: CsrMatrix, ctx: GpuContext,
                    params: SparseParams | None) -> SparseParams:
    return params if params is not None else tune_sparse(X, ctx.device)


def _active_vectors_per_sm(params: SparseParams) -> int:
    nv = params.block_size // params.vector_size
    return max(1, params.occupancy.blocks_per_sm * nv)


def _row_pass_loads(X: CsrMatrix, vector_size: int,
                    warp_size: int = 32) -> float:
    """Coalesced transactions for one pass over values + column indices.

    Counted at warp granularity: a warp holds ``warp/VS`` vectors working on
    consecutive rows whose CSR segments are adjacent in memory.
    """
    rows_per_warp = max(1, warp_size // vector_size)
    seg = warp_segment_template(X.row_nnz, rows_per_warp)
    return seg.pass_transactions + coalesced_transactions((X.m + 1) * _I)


@dataclass
class SparseFusedProfile:
    """Structure-invariant counter template for Algorithms 1 and 2.

    Everything here is fixed for a given (matrix content, §3.3 parameters,
    device spec, context cache flags); the per-call closure only folds in
    the scalars that vary (``v`` present, ``beta != 0``, alpha/beta) and the
    vector arithmetic.  The engine caches instances in its artifact LRU
    under the matrix's content fingerprint, so in-place mutation misses and
    forces a rebuild — the same invalidation semantics as every other
    engine artifact.
    """

    params: SparseParams
    launch: LaunchConfig
    occupancy_fraction: float
    spmv_plan: SpmvPlan
    m: int
    n: int
    nnz: int
    first_pass: float       # values + col_idx + row_off, one warm-warp pass
    second_full: float      # values + col_idx re-read (before cache credit)
    miss_weight: float      # nnz-weighted second-pass miss fraction
    gather: float           # y gathers, ctx texture flag baked in
    m_stream: float         # coalesced m-vector load (p or v)
    z_stream: float         # coalesced n-vector load (z)
    # shared-memory variant terms
    shm_ops: float
    shm_serialized: float
    mirror_accesses: float  # one pass over the block mirrors
    block_barriers: float
    flush_ops: float        # per-block mirror flush into global w
    # large-n (global) variant term
    cas_chain_global: float

    @property
    def variant(self) -> str:
        return self.params.variant

    @property
    def nbytes(self) -> int:
        """Footprint for the engine's artifact LRU (dominated by the plan)."""
        return int(self.spmv_plan.nbytes) + 512


def profile_sparse_fused(X: CsrMatrix, ctx: GpuContext = DEFAULT_CONTEXT,
                         params: SparseParams | None = None,
                         spmv_plan: SpmvPlan | None = None
                         ) -> SparseFusedProfile:
    """One-time structure inspection for the fused sparse kernels."""
    params = _resolve_params(X, ctx, params)
    launch = params.launch()
    launch.validate(ctx.device)
    row_nnz = X.row_nnz
    rows_per_warp = max(1, ctx.device.warp_size // params.vector_size)
    seg = warp_segment_template(row_nnz, rows_per_warp)
    first_pass = seg.pass_transactions + coalesced_transactions(
        (X.m + 1) * _I)

    if params.variant == "shared":
        shm = shared_atomic_batch(X.nnz, X.n, params.block_size)
        shm_ops, shm_serialized = shm.ops, shm.serialized
    else:
        shm_ops = shm_serialized = 0.0
    # computed for both variants: the multi-RHS kernel falls back to global
    # aggregation when its k mirrors exceed shared memory, even for matrices
    # tuned to the "shared" variant
    cas_chain_global = contention_profile(X.column_counts()).chain(X.nnz)

    return SparseFusedProfile(
        params=params,
        launch=launch,
        occupancy_fraction=ctx.occupancy_for(launch).fraction(ctx.device),
        spmv_plan=spmv_plan if spmv_plan is not None else SpmvPlan(X),
        m=X.m, n=X.n, nnz=X.nnz,
        first_pass=first_pass,
        second_full=seg.pass_transactions,
        miss_weight=ctx.cache.second_pass_miss_weight(
            row_nnz, _active_vectors_per_sm(params)),
        gather=vector_gather_transactions(X, ctx,
                                          texture=ctx.use_texture_cache),
        m_stream=coalesced_transactions(X.m * _D),
        z_stream=coalesced_transactions(X.n * _D),
        shm_ops=shm_ops,
        shm_serialized=shm_serialized,
        mirror_accesses=X.n / 32 * params.grid_size,
        block_barriers=params.grid_size / max(
            1, params.occupancy.blocks_per_sm * ctx.device.num_sms),
        flush_ops=params.grid_size * X.n,
        cas_chain_global=cas_chain_global,
    )


def xt_spmv_fused(X: CsrMatrix, p: np.ndarray,
                  ctx: GpuContext = DEFAULT_CONTEXT,
                  params: SparseParams | None = None,
                  profile: SparseFusedProfile | None = None) -> KernelResult:
    """Algorithm 1: ``w = X^T x p`` without transposing ``X``."""
    if profile is None:
        profile = profile_sparse_fused(X, ctx, params)
    pr = profile
    with trace.span("xt-accumulate", "kernel", variant=pr.variant) as sp:
        out = pr.spmv_plan.spmv_t(p, X=X)
        sp.count(nnz=pr.nnz)

    c = PerfCounters()
    c.global_load_transactions = pr.first_pass + pr.m_stream       # X, p
    c.flops = 2.0 * pr.nnz + pr.params.grid_size * pr.n

    if pr.variant == "shared":
        # per-nnz adds into the shared mirror, contended inside each block
        c.atomic_shared_ops = pr.shm_ops
        c.atomic_shared_serialized = pr.shm_serialized
        c.shared_accesses = pr.mirror_accesses                 # mirror init
        c.barriers = pr.block_barriers
        # lines 15-16: every block adds its mirror into w -> chain = #blocks
        c.atomic_global_ops = pr.flush_ops
        c.atomic_cas_chain = pr.params.grid_size
        c.shared_accesses += pr.mirror_accesses                # mirror read
    else:
        c.atomic_global_ops = pr.nnz
        c.atomic_cas_chain = pr.cas_chain_global
        c.global_store_transactions += 0.125 * pr.nnz         # atomic sectors
    c.kernel_launches = 1
    return finish(ctx, out, c, pr.launch,
                  f"fused.xt_spmv[{pr.variant}]",
                  occupancy_fraction=pr.occupancy_fraction,
                  bandwidth_derate=SPARSE_STREAM_DERATE)


def fused_pattern_sparse(X: CsrMatrix, y: np.ndarray,
                         v: np.ndarray | None = None,
                         z: np.ndarray | None = None,
                         alpha: float = 1.0, beta: float = 0.0,
                         ctx: GpuContext = DEFAULT_CONTEXT,
                         params: SparseParams | None = None,
                         profile: SparseFusedProfile | None = None
                         ) -> KernelResult:
    """Algorithm 2: the complete fused pattern in one kernel launch."""
    if beta != 0.0 and z is None:
        raise ValueError("beta != 0 requires z")
    if profile is None:
        profile = profile_sparse_fused(X, ctx, params)
    pr = profile

    # ------- functional result (mirrors the kernel's dataflow) -------------
    # each Algorithm-2 phase is bracketed by a span: the row pass (SpMV),
    # the inter-vector scaling, the second row pass (X^T.t accumulation
    # into the shared/global mirror), and the beta*z fold
    with trace.span("spmv", "kernel", variant=pr.variant) as sp:
        p = pr.spmv_plan.spmv(y, X=X)
        sp.count(nnz=pr.nnz)
    if v is not None:
        if np.asarray(v).shape != (pr.m,):
            raise ValueError(f"v must have shape ({pr.m},)")
        with trace.span("inter-vector", "kernel") as sp:
            p = p * np.asarray(v, dtype=np.float64)
            sp.count(rows=pr.m)
    with trace.span("xt-accumulate", "kernel", variant=pr.variant) as sp:
        w = alpha * pr.spmv_plan.spmv_t(p, X=X)
        sp.count(nnz=pr.nnz)
    if beta != 0.0:
        with trace.span("axpy", "kernel") as sp:
            w = w + beta * np.asarray(z, dtype=np.float64)
            sp.count(cols=pr.n)

    # ------- event accounting: close the template over the call scalars ----
    c = PerfCounters()
    c.global_load_transactions = pr.first_pass + pr.gather          # X, y
    if v is not None:
        c.global_load_transactions += pr.m_stream

    # second pass over each row: cache hits where the row is still resident
    c.global_load_transactions += pr.second_full * pr.miss_weight

    c.flops = 4.0 * pr.nnz + 2.0 * pr.m

    if beta != 0.0:
        c.global_load_transactions += pr.z_stream
        c.atomic_global_ops += pr.n        # one add per element, no chain
        c.atomic_cas_chain += 1.0
        c.flops += pr.n

    if pr.variant == "shared":
        c.atomic_shared_ops = pr.shm_ops
        c.atomic_shared_serialized = pr.shm_serialized
        c.shared_accesses = 2 * pr.mirror_accesses
        c.barriers = pr.block_barriers
        c.atomic_global_ops += pr.flush_ops
        c.atomic_cas_chain += pr.params.grid_size
        c.flops += pr.flush_ops
    else:
        c.atomic_global_ops += pr.nnz
        c.atomic_cas_chain += pr.cas_chain_global
        c.global_store_transactions += 0.125 * pr.nnz
    c.kernel_launches = 1
    return finish(ctx, w, c, pr.launch,
                  f"fused.pattern_sparse[{pr.variant}]",
                  occupancy_fraction=pr.occupancy_fraction,
                  bandwidth_derate=SPARSE_STREAM_DERATE)


def fused_xtxy_sparse(X: CsrMatrix, y: np.ndarray,
                      ctx: GpuContext = DEFAULT_CONTEXT,
                      params: SparseParams | None = None,
                      profile: SparseFusedProfile | None = None
                      ) -> KernelResult:
    """Convenience: the ``X^T x (X x y)`` instantiation (no v, z)."""
    res = fused_pattern_sparse(X, y, ctx=ctx, params=params, profile=profile)
    res.name = "fused.xtxy_sparse"
    return res
