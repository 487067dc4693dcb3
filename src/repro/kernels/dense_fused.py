"""Fused dense kernel — Algorithm 3 of the paper, driven by generated code.

Each row of ``X`` is handled by a ``VS``-thread vector whose threads keep
``TL`` elements of ``X``, ``y``, and the partial ``w`` in *registers* (the
code generator unrolls all register loops into named locals — see
:mod:`repro.kernels.codegen`).  ``X`` is therefore read from global memory
exactly once; the intermediate ``p`` never exists in memory; and the only
global synchronization is the final per-vector atomic flush of ``l_w``.

:class:`DenseFusedProfile` plays the role :class:`SparseFusedProfile` plays
for Algorithm 2: it captures everything that depends only on (matrix,
parameters, device) — the tuned parameters, the resolved generated kernel,
the zero-padded copy of ``X`` (the expensive per-call copy in the unprofiled
path), and the counter scalars — so warm calls only pad ``y`` and run the
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import trace
from ..gpu.counters import PerfCounters
from ..gpu.launch import LaunchConfig
from ..gpu.memory import coalesced_transactions
from ..tuning.dense_params import DenseParams, tune_dense
from .base import DEFAULT_CONTEXT, GpuContext, KernelResult, finish
from .codegen import get_kernel

_D = 8


def _pad(X: np.ndarray, y: np.ndarray,
         padded_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad columns so VS*TL divides the width (paper §3.2, end)."""
    m, n = X.shape
    if padded_n == n:
        return X, y
    Xp = np.zeros((m, padded_n), dtype=np.float64)
    Xp[:, :n] = X
    yp = np.zeros(padded_n, dtype=np.float64)
    yp[:n] = y
    return Xp, yp


def _pad_vec(y: np.ndarray, padded_n: int) -> np.ndarray:
    n = y.shape[0]
    if padded_n == n:
        return y
    yp = np.zeros(padded_n, dtype=np.float64)
    yp[:n] = y
    return yp


@dataclass
class DenseFusedProfile:
    """Structure-invariant state for Algorithm 3.

    ``x_padded`` holds the zero-padded ``X`` (aliases the original array
    when no padding is needed) and ``kernel`` the generated register-tiled
    closure for the tuned (padded_n, VS, TL) triple; both are the per-call
    costs the unprofiled path pays every iteration.
    """

    params: DenseParams
    launch: LaunchConfig
    kernel: Callable
    x_padded: np.ndarray
    m: int
    n: int
    eff_occupancy: float
    load_x: float          # X streamed exactly once
    load_y: float          # padded y -> registers
    m_stream: float        # coalesced m doubles (v)
    n_stream: float        # coalesced n doubles (z)
    shared_reduction: float     # inter-warp reduction traffic (VS > 32)
    reduction_barriers: float   # its barriers
    flush_ops: float       # total_vectors * padded_n atomic adds
    flush_chain: float     # total_vectors (every vector hits every element)

    @property
    def nbytes(self) -> int:
        own = 0 if self.x_padded.shape[1] == self.n else self.x_padded.nbytes
        return int(own) + 512


def profile_dense_fused(X: np.ndarray, ctx: GpuContext = DEFAULT_CONTEXT,
                        params: DenseParams | None = None
                        ) -> DenseFusedProfile:
    """One-time inspection + padding + codegen for the fused dense kernel."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    m, n = X.shape
    if params is None:
        params = tune_dense(m, n, ctx.device)
    launch = params.launch()
    launch.validate(ctx.device)

    Xp, _ = _pad(X, np.zeros(n), params.padded_n)
    kernel = get_kernel(params.padded_n, params.vector_size,
                        params.thread_load)

    rows_per_wave = max(1, params.occupancy.warps_per_sm
                        * ctx.device.warp_size
                        * ctx.device.num_sms // params.vector_size)
    if params.vector_size > ctx.device.warp_size:
        shared_reduction = m * (params.vector_size // 32) / 32
        reduction_barriers = 2.0 * m / rows_per_wave
    else:
        shared_reduction = reduction_barriers = 0.0

    total_vectors = min(params.grid_size * (params.block_size
                                            // params.vector_size),
                        m)
    occ = params.occupancy.fraction(ctx.device)
    return DenseFusedProfile(
        params=params,
        launch=launch,
        kernel=kernel,
        x_padded=Xp,
        m=m, n=n,
        eff_occupancy=min(1.0, occ * max(1.0, params.thread_load / 2.0)),
        load_x=coalesced_transactions(m * params.padded_n * _D),
        load_y=coalesced_transactions(params.padded_n * _D),
        m_stream=coalesced_transactions(m * _D),
        n_stream=coalesced_transactions(n * _D),
        shared_reduction=shared_reduction,
        reduction_barriers=reduction_barriers,
        flush_ops=total_vectors * params.padded_n,
        flush_chain=total_vectors,
    )


def fused_pattern_dense(X: np.ndarray, y: np.ndarray,
                        v: np.ndarray | None = None,
                        z: np.ndarray | None = None,
                        alpha: float = 1.0, beta: float = 0.0,
                        ctx: GpuContext = DEFAULT_CONTEXT,
                        params: DenseParams | None = None,
                        profile: DenseFusedProfile | None = None
                        ) -> KernelResult:
    """Algorithm 3: ``alpha * X^T (v ⊙ (X y)) + beta * z`` for dense ``X``."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    m, n = X.shape
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},)")
    if v is not None and np.asarray(v).shape != (m,):
        raise ValueError(f"v must have shape ({m},)")
    if beta != 0.0 and z is None:
        raise ValueError("beta != 0 requires z")

    if profile is None:
        profile = profile_dense_fused(X, ctx, params)
    pr = profile
    params = pr.params

    # ------- functional result through the *generated* kernel ---------------
    # Algorithm 3 runs as one generated kernel; the axpy initialization and
    # the fused body (SpMV + inter-vector + X^T.t accumulation) are the two
    # phases visible from the host side
    yp = _pad_vec(y, params.padded_n)
    out_padded = np.zeros(params.padded_n, dtype=np.float64)
    if beta != 0.0:
        with trace.span("axpy", "kernel") as sp:
            out_padded[:n] = beta * np.asarray(z, dtype=np.float64)
            sp.count(cols=n)
    vv = None if v is None else np.asarray(v, dtype=np.float64)
    with trace.span("fused-dense", "kernel",
                    kernel="fused.pattern_dense") as sp:
        # unpadded, x_padded is the array that built the profile, and a
        # content-keyed cache hands the profile to content-equal arrays
        # too: multiply the caller's own
        xk = X if pr.x_padded.shape[1] == n else pr.x_padded
        pr.kernel(xk, yp, vv, alpha, out_padded)
        w = out_padded[:n].copy()
        sp.count(elements=m * n)

    # ------- event accounting -------------------------------------------------
    c = PerfCounters()
    c.global_load_transactions = pr.load_x + pr.load_y
    if v is not None:
        c.global_load_transactions += pr.m_stream
    if beta != 0.0:
        c.global_load_transactions += pr.n_stream
        c.atomic_global_ops += n
        c.atomic_cas_chain += 1.0

    # intra-vector reduction: shuffles are register traffic; VS > 32 also
    # runs an inter-warp shared-memory reduction with two barriers per row
    if params.vector_size > ctx.device.warp_size:
        c.shared_accesses = pr.shared_reduction
        c.barriers = pr.reduction_barriers

    # final flush: each vector atomically adds its n partials into w
    c.atomic_global_ops += pr.flush_ops
    c.atomic_cas_chain += pr.flush_chain

    c.flops = 4.0 * m * params.padded_n + 2.0 * m
    c.kernel_launches = 1
    # Latency hiding comes from warps *and* per-thread ILP: each thread has
    # TL independent outstanding loads, so large-TL configurations sustain
    # full bandwidth despite low warp occupancy (the register-tiling trade
    # the paper makes deliberately).
    return finish(ctx, w, c, pr.launch, "fused.pattern_dense",
                  occupancy_fraction=pr.eff_occupancy)


def fused_xtxy_dense(X: np.ndarray, y: np.ndarray,
                     ctx: GpuContext = DEFAULT_CONTEXT,
                     params: DenseParams | None = None,
                     profile: DenseFusedProfile | None = None) -> KernelResult:
    """Convenience: the ``X^T x (X x y)`` instantiation for dense ``X``."""
    res = fused_pattern_dense(X, y, ctx=ctx, params=params, profile=profile)
    res.name = "fused.xtxy_dense"
    return res
