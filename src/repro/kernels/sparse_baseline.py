"""Baseline sparse kernels: cuSPARSE-like and BIDMat-like SpMV operators.

These model the operator-level strategy the paper compares against:

* :func:`csrmv` — standard CSR-vector SpMV (``X x y``); cuSPARSE is good at
  this, and the paper explicitly does *not* claim wins on it.
* :func:`csrmv_transpose` — cuSPARSE's transpose-mode SpMV (``X^T x p``
  without materializing the transpose).  The paper measures ~3.5x more global
  load transactions than the fused kernel plus heavy semaphore/atomic
  serialization; we model that structurally (extra row-reconstruction pass,
  per-nnz global atomics contended by the column histogram).
* :func:`csr2csc_kernel` + csrmv over the result — NVIDIA's recommended
  "explicitly transpose, then SpMV" route, whose amortization cost Figure 2
  quantifies.
* :func:`bidmat_spmv` / :func:`bidmat_spmv_transpose` — BIDMat's GPU kernels,
  which the paper found to perform "similar to cuSPARSE".

Like the fused kernels, every structure-dependent accounting term lives in
a :class:`CsrmvProfile` built once per (matrix, device, ctx flags); calls
without a cached profile build one inline, so profiled and unprofiled
results are identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import trace
from ..gpu.atomics import ContentionProfile, contention_profile
from ..gpu.counters import PerfCounters
from ..gpu.launch import LaunchConfig, grid_for_rows
from ..gpu.memory import (coalesced_transactions, gather_transactions,
                          warp_segment_template)
from ..sparse.csc import csr_to_csc
from ..sparse.csr import CsrMatrix
from ..sparse.ops import SpmvPlan
from .base import (DEFAULT_CONTEXT, SPARSE_STREAM_DERATE, GpuContext,
                   KernelResult, finish)

_D = 8   # sizeof(double)
_I = 4   # sizeof(int) on device


def vector_gather_transactions(X: CsrMatrix, ctx: GpuContext,
                               texture: bool = False) -> float:
    """Global transactions to gather ``y[col_idx[k]]`` over all non-zeros.

    The gathered vector (n doubles) almost always fits in L2 for the column
    counts studied (n <= 30M only for KDD, where gathers rarely collide),
    so after compulsory misses most gathers hit cache; texture binding
    (the fused kernel's trick) raises the hit rate further.
    """
    raw = gather_transactions(X.col_idx, itemsize=_D,
                              warp_size=ctx.device.warp_size)
    return _gather_from_raw(X, ctx, raw, texture)


def _gather_from_raw(X: CsrMatrix, ctx: GpuContext, raw: float,
                     texture: bool) -> float:
    """Fold the (expensive, structure-only) raw line count into a hit model."""
    n = X.n
    cold_lines = coalesced_transactions(n * _D)
    vec_bytes = n * _D
    if texture:
        hit = ctx.cache.texture_hit_ratio()
    else:
        hit = min(1.0, ctx.device.l2_cache_bytes / max(1.0, vec_bytes)) * 0.95
    return cold_lines + (1.0 - hit) * max(0.0, raw - cold_lines)


def _csrmv_launch(X: CsrMatrix, ctx: GpuContext) -> LaunchConfig:
    """cuSPARSE-style CSR-vector launch: BS=128, VS by mean row length."""
    mu = max(1.0, X.mean_row_nnz)
    vs = 32
    for cand in (2, 4, 8, 16, 32):
        if mu <= cand:
            vs = cand
            break
    bs = 128
    grid = grid_for_rows(X.m, bs, vs, 1)
    grid = min(grid, 8 * ctx.device.num_sms * ctx.device.max_blocks_per_sm)
    return LaunchConfig(grid, bs, registers_per_thread=32, vector_size=vs)


@dataclass
class CsrmvProfile:
    """Structure-invariant counter template for the cuSPARSE-style kernels.

    Shared by :func:`csrmv`, :func:`csrmv_transpose`, :func:`csr2csc_kernel`
    and the BIDMat variants: they all walk the same CSR arrays under the
    same launch shape, so one inspection serves the whole operator family.
    Both texture states of the y-gather are precomputed because ``texture``
    is a per-call flag, not a structural property.
    """

    launch: LaunchConfig
    occupancy_fraction: float
    spmv_plan: SpmvPlan
    m: int
    n: int
    nnz: int
    tx_values: float        # values stream, warp-segment counted
    tx_col_idx: float       # col_idx stream, warp-segment counted
    rowoff_stream: float    # coalesced (m+1) ints
    coloff_stream: float    # coalesced (n+1) ints (csr2csc offsets)
    gather_plain: float     # y gathers through L2
    gather_texture: float   # y gathers through the texture path
    m_stream: float         # coalesced m doubles (p / output)
    n_stream: float         # coalesced n doubles
    rowid_stream: float     # transpose mode: row-id expansion pass
    sem_traffic: float      # transpose mode: semaphore/output round trips
    recovery: float         # transpose mode: binary-search row recovery
    contention: ContentionProfile   # column-histogram atomic contention

    @property
    def row_pass(self) -> float:
        return self.tx_values + self.tx_col_idx

    @property
    def nbytes(self) -> int:
        return int(self.spmv_plan.nbytes) + 512


def profile_csrmv(X: CsrMatrix, ctx: GpuContext = DEFAULT_CONTEXT,
                  spmv_plan: SpmvPlan | None = None) -> CsrmvProfile:
    """One-time structure inspection for the cuSPARSE-style kernel family."""
    launch = _csrmv_launch(X, ctx)
    rows_per_warp = max(1, ctx.device.warp_size // launch.vector_size)
    seg = warp_segment_template(X.row_nnz, rows_per_warp)
    raw = gather_transactions(X.col_idx, itemsize=_D,
                              warp_size=ctx.device.warp_size)
    nnz = X.nnz
    l2 = ctx.device.l2_cache_bytes

    # Semaphore + output-line traffic per non-zero.  When w (n doubles) is
    # L2-resident the lock/update round trips mostly hit cache (32B sectors);
    # for huge column spaces (KDD2010: 30M columns) every update is a full
    # uncoalesced line out to DRAM — the regime where the paper measures
    # cuSPARSE two orders of magnitude behind.
    w_resident = X.n * _D <= l2 / 2
    sem_traffic = (0.125 if w_resident else 1.0) * nnz

    # Row-index recovery: transpose mode must map each non-zero back to its
    # row via binary search over row_off; probes beyond the L2-resident top
    # of the search tree are uncoalesced misses.
    probes = max(1.0, np.log2(max(2, X.m)))
    rowoff_bytes = (X.m + 1) * _I
    miss_frac = min(1.0, max(0.03, 1.0 - (l2 / 2) / max(1.0, rowoff_bytes)))
    recovery = probes * miss_frac * nnz

    return CsrmvProfile(
        launch=launch,
        occupancy_fraction=ctx.occupancy_for(launch).fraction(ctx.device),
        spmv_plan=spmv_plan if spmv_plan is not None else SpmvPlan(X),
        m=X.m, n=X.n, nnz=nnz,
        tx_values=seg.tx_values,
        tx_col_idx=seg.tx_col_idx,
        rowoff_stream=coalesced_transactions((X.m + 1) * _I),
        coloff_stream=coalesced_transactions((X.n + 1) * _I),
        gather_plain=_gather_from_raw(X, ctx, raw, texture=False),
        gather_texture=_gather_from_raw(X, ctx, raw, texture=True),
        m_stream=coalesced_transactions(X.m * _D),
        n_stream=coalesced_transactions(X.n * _D),
        rowid_stream=coalesced_transactions(nnz * _D),
        sem_traffic=sem_traffic,
        recovery=recovery,
        contention=contention_profile(X.column_counts()),
    )


def csrmv(X: CsrMatrix, y: np.ndarray,
          ctx: GpuContext = DEFAULT_CONTEXT,
          texture: bool = False,
          profile: CsrmvProfile | None = None) -> KernelResult:
    """cuSPARSE-like ``X @ y`` (CSR-vector with warp reduction)."""
    if profile is None:
        profile = profile_csrmv(X, ctx)
    pr = profile
    with trace.span("spmv", "kernel", kernel="cusparse.csrmv") as sp:
        out = pr.spmv_plan.spmv(y, X=X)
        sp.count(nnz=pr.nnz)
    c = PerfCounters()
    c.global_load_transactions = (
        pr.tx_values                       # values
        + pr.tx_col_idx                    # col idx
        + pr.rowoff_stream                 # row offsets
        + (pr.gather_texture if texture else pr.gather_plain)
    )
    c.global_store_transactions = pr.m_stream
    c.flops = 2.0 * pr.nnz
    c.shared_accesses = pr.m / 4       # warp-reduction spill per row
    c.kernel_launches = 1
    c.barriers = 1
    return finish(ctx, out, c, pr.launch, "cusparse.csrmv",
                  occupancy_fraction=pr.occupancy_fraction,
                  bandwidth_derate=SPARSE_STREAM_DERATE)


def csrmv_transpose(X: CsrMatrix, p: np.ndarray,
                    ctx: GpuContext = DEFAULT_CONTEXT,
                    profile: CsrmvProfile | None = None) -> KernelResult:
    """cuSPARSE-like transpose-mode SpMV: ``X^T @ p`` on the CSR arrays.

    Structural cost story (cuSPARSE is closed-source; the paper infers the
    behaviour from profiler counters): one coalesced pass over values and
    column indices, an extra pass's worth of traffic to recover row ids and
    manage per-column semaphores, and one global atomic per non-zero into the
    output — serialized by hot columns.
    """
    if profile is None:
        profile = profile_csrmv(X, ctx)
    pr = profile
    with trace.span("xt-accumulate", "kernel",
                    kernel="cusparse.csrmv_transpose") as sp:
        out = pr.spmv_plan.spmv_t(p, X=X)
        sp.count(nnz=pr.nnz)
    c = PerfCounters()
    c.global_load_transactions = (
        pr.tx_values                       # values
        + pr.tx_col_idx                    # col idx
        + pr.rowid_stream                  # row-id expansion pass
        + pr.m_stream                      # p
        + pr.sem_traffic + pr.recovery
    )
    c.global_store_transactions = pr.sem_traffic   # lock release/update
    c.atomic_global_ops = pr.nnz
    # semaphore-guarded column updates serialize along hot columns
    c.atomic_lock_chain = pr.contention.chain(pr.nnz)
    c.flops = 2.0 * pr.nnz
    c.kernel_launches = 1
    c.barriers = 1
    return finish(ctx, out, c, pr.launch, "cusparse.csrmv_transpose",
                  occupancy_fraction=pr.occupancy_fraction,
                  bandwidth_derate=SPARSE_STREAM_DERATE)


def csr2csc_kernel(X: CsrMatrix,
                   ctx: GpuContext = DEFAULT_CONTEXT,
                   profile: CsrmvProfile | None = None) -> KernelResult:
    """Explicit device-side transposition (cuSPARSE ``csr2csc``).

    Counting-sort structure: a histogram pass (one global atomic per nnz),
    a prefix sum over columns, and a scatter pass whose writes are inherently
    uncoalesced (destination order is column-major).
    """
    if profile is None:
        profile = profile_csrmv(X, ctx)
    pr = profile
    with trace.span("csr2csc", "kernel") as sp:
        csc = csr_to_csc(X)
        sp.count(nnz=pr.nnz)
    nnz = pr.nnz
    c = PerfCounters()
    c.global_load_transactions = (
        2 * pr.tx_values
        + 2 * pr.tx_col_idx
        + pr.coloff_stream                 # offsets
    )
    # scatter: each nnz writes value+row-id to an uncoalesced position
    c.global_store_transactions = nnz * 2 * 0.25 + pr.coloff_stream
    c.atomic_global_ops = nnz                          # histogram pass
    c.atomic_cas_chain = pr.contention.chain(nnz)
    c.kernel_launches = 3                           # histogram, scan, scatter
    c.barriers = 3
    return finish(ctx, csc, c, pr.launch, "cusparse.csr2csc",
                  occupancy_fraction=pr.occupancy_fraction,
                  bandwidth_derate=SPARSE_STREAM_DERATE)


def csrmv_via_explicit_transpose(X: CsrMatrix, p: np.ndarray,
                                 ctx: GpuContext = DEFAULT_CONTEXT,
                                 XT: CsrMatrix | None = None,
                                 profile: CsrmvProfile | None = None
                                 ) -> tuple[KernelResult, KernelResult | None]:
    """NVIDIA's recommended route: ``csr2csc`` once, then plain ``csrmv``.

    Returns ``(spmv_result, transpose_result_or_None)``; pass a pre-built
    ``XT`` to model the amortized steady state.  ``profile``, when given,
    is the :class:`CsrmvProfile` of the *transposed* matrix (the operand of
    the steady-state ``csrmv``).
    """
    trans = None
    if XT is None:
        trans = csr2csc_kernel(X, ctx)
        csc = trans.output
        XT = CsrMatrix((X.n, X.m), csc.values, csc.row_idx, csc.col_off)
    res = csrmv(XT, p, ctx, profile=profile)
    res.name = "cusparse.csrmv(X^T explicit)"
    return res, trans


def bidmat_spmv(X: CsrMatrix, y: np.ndarray,
                ctx: GpuContext = DEFAULT_CONTEXT,
                profile: CsrmvProfile | None = None) -> KernelResult:
    """BIDMat's GPU SpMV — measured "similar to cuSPARSE" by the paper."""
    res = csrmv(X, y, ctx, profile=profile)
    res.counters.global_load_transactions *= 1.08   # slightly less tuned
    res.time_ms = ctx.cost_model.time_ms(res.counters,
                                         res.occupancy_fraction,
                                         res.bandwidth_derate)
    res.name = "bidmat.spmv"
    return res


def bidmat_spmv_transpose(X: CsrMatrix, p: np.ndarray,
                          ctx: GpuContext = DEFAULT_CONTEXT,
                          profile: CsrmvProfile | None = None) -> KernelResult:
    """BIDMat's GPU transpose SpMV (same per-nnz atomic strategy)."""
    res = csrmv_transpose(X, p, ctx, profile=profile)
    res.counters.global_load_transactions *= 0.9    # no semaphore pass
    res.counters.atomic_lock_chain *= 0.7           # plain CAS, no locks
    res.time_ms = ctx.cost_model.time_ms(res.counters,
                                         res.occupancy_fraction,
                                         res.bandwidth_derate)
    res.name = "bidmat.spmv_transpose"
    return res
