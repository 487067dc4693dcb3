"""Kernel-level execution of (possibly lowered) expression DAGs.

:func:`evaluate_dag` walks a DAG once (id-memoized, so diamonds evaluate
shared values once) and dispatches every node to the same simulated-kernel
layer the rest of the repo uses — csrmv/gemv for matrix-vector products,
BLAS-1 for cell-wise operators, the fused kernel families for fused nodes.
Numerics are bit-identical to ``root.eval(env)``: each kernel performs the
same NumPy operations in the same order as the node's own ``eval``.

Every launched kernel's :class:`~repro.kernels.base.KernelResult` can be
collected (``results=[]``) — the cost model reads the counters off the
identical dispatch path, which is what makes predicted and executed
transaction counts exactly equal.
"""

from __future__ import annotations

import numpy as np

from ...core.executor import PatternExecutor
from ...core.pattern import GenericPattern
from ...kernels import blas1
from ...kernels.base import DEFAULT_CONTEXT, GpuContext, KernelResult
from ...kernels.cellwise import fused_cellwise, fused_rowagg
from ...kernels.dense_baseline import gemv_n, gemv_t
from ...kernels.sparse_baseline import csrmv, csrmv_transpose
from ...sparse.csr import CsrMatrix
from ..dag import (Add, EwMul, FusedPattern, Input, MatVec, Node, Smul,
                   Transpose)
from .lower import FusedCellwise, FusedRowAgg

#: ledger category per op family (mirrors MLRuntime's accounting)
_CATEGORY = {"pattern": "pattern", "mv": "mv", "blas1": "blas1"}


def evaluate_dag(root: Node, env: dict,
                 ctx: GpuContext = DEFAULT_CONTEXT,
                 engine=None,
                 results: list[KernelResult] | None = None,
                 ledger=None) -> np.ndarray:
    """Execute a DAG on the kernel layer; returns the root's value.

    ``engine`` (a :class:`~repro.core.engine.PatternEngine`) serves
    Eq.-1 ``FusedPattern`` nodes through the session cache when given;
    ``results`` collects every KernelResult; ``ledger`` (a
    :class:`~repro.ml.runtime.TimeLedger`) is charged per kernel.
    """
    memo: dict[int, object] = {}

    def record(res: KernelResult, category: str):
        if results is not None:
            results.append(res)
        if ledger is not None:
            ledger.charge(category, res.time_ms)
        return res.output

    def ev(nd: Node):
        if id(nd) in memo:
            return memo[id(nd)]
        val = _dispatch(nd, ev, env, ctx, engine, record)
        memo[id(nd)] = val
        return val

    try:
        return ev(root)
    finally:
        # ``ev`` reaches itself through its own closure cell; unbinding it
        # breaks that cycle, so the memo of intermediates (and the engine)
        # are freed by reference counting instead of waiting for the GC
        del ev


def _vec(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _matvec(X, y, transpose: bool, ctx: GpuContext) -> KernelResult:
    if isinstance(X, CsrMatrix):
        if transpose:
            return csrmv_transpose(X, y, ctx)
        return csrmv(X, y, ctx, texture=ctx.use_texture_cache)
    Xd = np.asarray(X, dtype=np.float64)
    return gemv_t(Xd, y, ctx) if transpose else gemv_n(Xd, y, ctx)


def _dispatch(nd: Node, ev, env: dict, ctx: GpuContext, engine, record):
    if isinstance(nd, Input):
        return nd.eval(env)
    if isinstance(nd, MatVec):
        y = _vec(ev(nd.vec))
        if isinstance(nd.mat, Transpose):
            return record(_matvec(ev(nd.mat.child), y, True, ctx), "mv")
        return record(_matvec(ev(nd.mat), y, False, ctx), "mv")
    if isinstance(nd, EwMul):
        return record(blas1.ewmul(_vec(ev(nd.a)), _vec(ev(nd.b)), ctx),
                      "blas1")
    if isinstance(nd, Add):
        # axpy with alpha=1: `1.0 * a + b` is bitwise `a + b`
        return record(blas1.axpy(1.0, _vec(ev(nd.a)), _vec(ev(nd.b)), ctx),
                      "blas1")
    if isinstance(nd, Smul):
        return record(blas1.scal(nd.alpha, _vec(ev(nd.x)), ctx), "blas1")
    if isinstance(nd, FusedPattern):
        p = GenericPattern(
            ev(nd.X), _vec(ev(nd.y)),
            v=None if nd.v is None else _vec(ev(nd.v)),
            z=None if nd.z is None else _vec(ev(nd.z)),
            alpha=nd.alpha, beta=nd.beta, inner=nd.inner)
        if engine is not None:
            res = engine.evaluate_pattern(p, "fused")
        else:
            res = PatternExecutor(ctx).plan_for(p, "fused").evaluate(p)
        return record(res, "pattern")
    if isinstance(nd, FusedCellwise):
        vals = [_vec(ev(o)) for o in nd.operands]
        return record(fused_cellwise(nd.program, vals, ctx), "pattern")
    if isinstance(nd, FusedRowAgg):
        X = ev(nd.mat)
        y = _vec(ev(nd.vec))
        extras = [_vec(ev(e)) for e in nd.extras]
        return record(fused_rowagg(X, y, nd.program, extras, ctx,
                                   transpose=nd.transpose), "pattern")
    # unknown node types fall back to their own reference eval
    return nd.eval(env)
