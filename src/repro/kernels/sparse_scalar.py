"""CSR-scalar SpMV — the one-thread-per-row kernel of Bell & Garland.

The paper's CSR-vector partitioning (and its Eq. 4, which degenerates to
``VS = 1`` for very short rows) exists because of this kernel's trade-off:
one thread walks each row, so *within* a warp the 32 threads read 32
different row segments simultaneously — scattered accesses that defeat
coalescing as soon as rows have more than a couple of non-zeros, but zero
cooperation overhead when rows are tiny.  The classic crossover (scalar wins
below ~4 nnz/row, vector wins above) is reproduced by the
``bench_scalar_vector_crossover`` ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.counters import PerfCounters
from ..gpu.launch import LaunchConfig
from ..gpu.memory import coalesced_transactions
from ..gpu.balance import warp_idle_fraction
from ..sparse.csr import CsrMatrix
from ..sparse.ops import SpmvPlan
from .base import (DEFAULT_CONTEXT, SPARSE_STREAM_DERATE, GpuContext,
                   KernelResult, finish)
from .sparse_baseline import vector_gather_transactions

_D = 8
_I = 4


def _scalar_launch(m: int, ctx: GpuContext) -> LaunchConfig:
    bs = 256
    grid = min(max(1, -(-m // bs)),
               ctx.device.num_sms * ctx.device.max_blocks_per_sm)
    return LaunchConfig(grid, bs, registers_per_thread=20, vector_size=1)


def scalar_row_transactions(row_nnz: np.ndarray, itemsize: int,
                            warp_size: int = 32,
                            transaction_bytes: int = 128) -> float:
    """Transactions for a warp of threads each walking its own row.

    At step ``k`` of the walk, the warp's lanes read element ``k`` of 32
    *different* rows — addresses ``row_off[r] + k`` scattered across the
    array, so each active lane's access is (approximately) its own
    transaction until rows shorten below one element per line.  Short rows
    bound the damage: a row of 1-2 non-zeros costs about what a coalesced
    scheme would pay anyway.
    """
    lengths = np.asarray(row_nnz, dtype=np.float64)
    if lengths.size == 0:
        return 0.0
    per_line = transaction_bytes / itemsize
    # step 0 reads the *first* element of 32 adjacent rows — those sit close
    # together when rows are short, so they coalesce like a stream; every
    # subsequent step reads one scattered element per lane (own transaction)
    first_elements = float(np.count_nonzero(lengths))
    coalesced_first = first_elements / per_line
    scattered_rest = float(np.maximum(lengths - 1, 0).sum())
    return coalesced_first + scattered_rest


@dataclass
class ScalarProfile:
    """Structure-invariant counter template for the CSR-scalar kernel."""

    launch: LaunchConfig
    occupancy_fraction: float
    spmv_plan: SpmvPlan
    m: int
    nnz: int
    load_transactions: float   # values + col idx + row offsets + y gathers
    m_stream: float            # coalesced m doubles (output)

    @property
    def nbytes(self) -> int:
        return int(self.spmv_plan.nbytes) + 256


def profile_csrmv_scalar(X: CsrMatrix, ctx: GpuContext = DEFAULT_CONTEXT,
                         spmv_plan: SpmvPlan | None = None) -> ScalarProfile:
    """One-time structure inspection for :func:`csrmv_scalar`."""
    launch = _scalar_launch(X.m, ctx)
    row_nnz = X.row_nnz
    loads = (
        scalar_row_transactions(row_nnz, _D)          # values, scattered
        + scalar_row_transactions(row_nnz, _I) * 0.5  # col idx (2 per line)
        + coalesced_transactions((X.m + 1) * _I)      # row offsets
        + vector_gather_transactions(X, ctx)
    )
    return ScalarProfile(
        launch=launch,
        occupancy_fraction=ctx.occupancy_for(launch).fraction(ctx.device),
        spmv_plan=spmv_plan if spmv_plan is not None else SpmvPlan(X),
        m=X.m, nnz=X.nnz,
        load_transactions=loads,
        m_stream=coalesced_transactions(X.m * _D),
    )


def csrmv_scalar(X: CsrMatrix, y: np.ndarray,
                 ctx: GpuContext = DEFAULT_CONTEXT,
                 profile: ScalarProfile | None = None) -> KernelResult:
    """CSR-scalar ``X @ y``: one thread per row, uncoalesced row walks."""
    if profile is None:
        profile = profile_csrmv_scalar(X, ctx)
    pr = profile
    out = pr.spmv_plan.spmv(y, X=X)
    c = PerfCounters()
    c.global_load_transactions = pr.load_transactions
    c.global_store_transactions = pr.m_stream
    c.flops = 2.0 * pr.nnz
    c.kernel_launches = 1
    c.barriers = 1
    res = finish(ctx, out, c, pr.launch, "csr-scalar.spmv",
                 occupancy_fraction=pr.occupancy_fraction,
                 bandwidth_derate=SPARSE_STREAM_DERATE)
    return res


def imbalance_report(X: CsrMatrix, vector_size: int,
                     ctx: GpuContext = DEFAULT_CONTEXT) -> dict[str, float]:
    """Load-balance diagnostics for a row partitioning (analysis helper)."""
    return {
        "warp_idle_fraction": warp_idle_fraction(
            X.row_nnz, vector_size, ctx.device.warp_size),
        "mean_row_nnz": X.mean_row_nnz,
        "max_row_nnz": float(X.row_nnz.max(initial=0)),
    }
