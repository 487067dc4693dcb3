"""Multi-vector fused pattern: one pass of X serves k right-hand sides.

A natural extension of Algorithm 2 the paper's structure invites: when the
same matrix drives k independent patterns (multinomial logistic regression
trains one binomial problem per class; block power iteration tracks several
eigenvectors), the fused kernel can hold k running dot products per row and
k shared-memory mirrors — loading each CSR row *once for all k systems*
instead of once per system.

Events: the X pass is shared (the dominant traffic); the y gathers, v loads,
per-nnz shared atomics and the final flush scale with k.  The win therefore
approaches k x on load-bound inputs and saturates when the per-k terms take
over — the ``bench_multi_rhs`` ablation shows the curve.  Shared-memory
capacity bounds k: the mirrors need ``k * n`` doubles per block.

The structure-invariant aggregates (row-pass transactions, gathers, the
second-pass miss weight, the global contention chain) come from the same
:class:`~repro.kernels.sparse_fused.SparseFusedProfile` as Algorithm 2 —
only the cheap per-k scalar scaling happens per call.
"""

from __future__ import annotations

import numpy as np

from ..gpu.atomics import shared_atomic_batch
from ..gpu.counters import PerfCounters
from ..gpu.memory import coalesced_transactions
from ..sparse.csr import CsrMatrix
from ..tuning.sparse_params import SparseParams
from .base import (DEFAULT_CONTEXT, SPARSE_STREAM_DERATE, GpuContext,
                   KernelResult, finish)
from .sparse_fused import SparseFusedProfile, profile_sparse_fused

_D = 8


def max_rhs_for_shared(n: int, device, block_size: int = 640,
                       vector_size: int = 8) -> int:
    """Largest k whose mirrors fit the per-block shared memory."""
    slots = device.shared_memory_per_block // 8 - block_size // vector_size
    return max(1, slots // max(1, n))


def fused_pattern_multi(X: CsrMatrix, Y: np.ndarray,
                        V: np.ndarray | None = None,
                        Z: np.ndarray | None = None,
                        alpha: float = 1.0, beta: float = 0.0,
                        ctx: GpuContext = DEFAULT_CONTEXT,
                        params: SparseParams | None = None,
                        profile: SparseFusedProfile | None = None
                        ) -> KernelResult:
    """``W[:, j] = alpha * X^T (V[:, j] ⊙ (X Y[:, j])) + beta * Z[:, j]``.

    ``Y`` is ``(n, k)``; ``V`` (optional) is ``(m, k)``; ``Z`` (required iff
    ``beta != 0``) is ``(n, k)``.  Falls back to the large-n accounting rules
    of Algorithm 2 when the k mirrors exceed shared memory.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != X.n:
        raise ValueError(f"Y must have shape ({X.n}, k)")
    k = Y.shape[1]
    if k < 1:
        raise ValueError("need at least one right-hand side")
    if V is not None:
        V = np.asarray(V, dtype=np.float64)
        if V.shape != (X.m, k):
            raise ValueError(f"V must have shape ({X.m}, {k})")
    if beta != 0.0:
        if Z is None:
            raise ValueError("beta != 0 requires Z")
        Z = np.asarray(Z, dtype=np.float64)
        if Z.shape != (X.n, k):
            raise ValueError(f"Z must have shape ({X.n}, {k})")

    if profile is None:
        profile = profile_sparse_fused(X, ctx, params)
    pr = profile
    params = pr.params

    # ---- functional result --------------------------------------------------
    W = np.empty((X.n, k), dtype=np.float64)
    for j in range(k):
        p = pr.spmv_plan.spmv(Y[:, j], X=X)
        if V is not None:
            p = p * V[:, j]
        W[:, j] = alpha * pr.spmv_plan.spmv_t(p, X=X)
        if beta != 0.0:
            W[:, j] += beta * Z[:, j]

    # ---- event accounting: X once, per-k terms scaled ------------------------
    c = PerfCounters()
    c.global_load_transactions = (
        pr.first_pass * (1.0 + pr.miss_weight)   # X: one pass + cache misses
        + pr.gather * k                          # y_j gathers
    )
    if V is not None:
        c.global_load_transactions += k * coalesced_transactions(X.m * _D)
    if beta != 0.0:
        c.global_load_transactions += k * coalesced_transactions(X.n * _D)
        c.atomic_global_ops += k * X.n
        c.atomic_cas_chain += 1.0
    c.flops = k * (4.0 * X.nnz + 2.0 * X.m)

    mirrors_fit = (params.variant == "shared"
                   and k <= max_rhs_for_shared(X.n, ctx.device,
                                               params.block_size,
                                               params.vector_size))
    if mirrors_fit:
        shm = shared_atomic_batch(k * X.nnz, k * X.n, params.block_size)
        c.atomic_shared_ops += shm.ops
        c.atomic_shared_serialized += shm.serialized
        c.shared_accesses += 2 * k * X.n / 32 * params.grid_size
        c.barriers += pr.block_barriers
        c.atomic_global_ops += params.grid_size * X.n * k
        c.atomic_cas_chain += params.grid_size
    else:
        c.atomic_global_ops += k * X.nnz
        c.atomic_cas_chain += k * pr.cas_chain_global
        c.global_store_transactions += 0.125 * k * X.nnz
    c.kernel_launches = 1
    return finish(ctx, W, c, pr.launch,
                  f"fused.pattern_multi[k={k}]",
                  bandwidth_derate=SPARSE_STREAM_DERATE)
