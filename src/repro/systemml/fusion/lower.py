"""Lowering: replace chosen candidate regions with fused DAG nodes.

The lowered DAG is a *clone* — the input DAG is never mutated (unlike the
in-place pattern rewriter), so callers can lower the same expression under
different plans, and shared nodes stay shared through the id-memoized
clone.  Two new node types carry optimizer-chosen regions:

* :class:`FusedCellwise` — a cell-wise region executed as one generated
  streaming kernel;
* :class:`FusedRowAgg` — a matrix-vector product with its cell-wise
  epilogue folded into the producing kernel.

Eq.-1-shaped regions lower onto the existing
:class:`~repro.systemml.dag.FusedPattern`, exactly as the hand-written
rewriter produces — `fuse="auto"` rediscovering the paper's fusion means
the lowered DAG is indistinguishable from the pattern-matched one.

``eval`` on both new node types interprets the region's
:class:`~repro.kernels.cellwise.CellwiseProgram` with the same operation
order as the generated kernel, so plain ``root.eval(env)`` on a lowered
DAG is bit-identical to executing it through the kernel layer.

The DAG executor (:mod:`.executor`) runs the matvec inside
``FusedRowAgg``/``MatVec`` on the planned-SpMV kernels and sends Eq.-1
``FusedPattern`` nodes through the session engine, whose pin memo
(:meth:`~repro.core.engine.PatternEngine.pin`) serves a pinned matrix's
fingerprint without re-hashing it on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...kernels.cellwise import CellwiseProgram
from ...sparse.csr import CsrMatrix
from ...sparse.ops import spmv, spmv_t
from ..dag import (Add, EwMul, FusedPattern, Input, MatVec, Node, Smul,
                   Transpose)
from .candidates import Candidate


@dataclass(eq=False)
class FusedCellwise(Node):
    """An optimizer-chosen cell-wise region as a single fused node."""

    program: CellwiseProgram
    operands: tuple[Node, ...]

    def __post_init__(self) -> None:
        self.inputs = tuple(self.operands)

    def eval(self, env):
        vals = [np.asarray(o.eval(env), dtype=np.float64)
                for o in self.operands]
        return self.program.interpret(vals)

    def __repr__(self) -> str:
        return (f"FusedCellwise({self.program.describe()}, "
                f"{len(self.operands)} operands)")


@dataclass(eq=False)
class FusedRowAgg(Node):
    """A matrix-vector product with a fused cell-wise epilogue.

    ``program`` input 0 is the matvec result; inputs ``1..k`` bind to
    ``extras``.  ``transpose`` selects ``X^T %*% vec``.
    """

    mat: Node
    vec: Node
    program: CellwiseProgram
    extras: tuple[Node, ...]
    transpose: bool = False

    def __post_init__(self) -> None:
        self.inputs = (self.mat, self.vec, *self.extras)

    def eval(self, env):
        X = self.mat.eval(env)
        y = np.asarray(self.vec.eval(env), dtype=np.float64)
        if isinstance(X, CsrMatrix):
            base = spmv_t(X, y) if self.transpose else spmv(X, y)
        else:
            Xd = np.asarray(X, dtype=np.float64)
            base = Xd.T @ y if self.transpose else Xd @ y
        vals = [base] + [np.asarray(e.eval(env), dtype=np.float64)
                         for e in self.extras]
        return self.program.interpret(vals)

    def __repr__(self) -> str:
        op = "t(X) %*% v" if self.transpose else "X %*% v"
        return f"FusedRowAgg({op} -> {self.program.describe()})"


def clone_dag(root: Node) -> Node:
    """Deep-copy a DAG preserving sharing (Input leaves are reused)."""
    return _clone(root, {})


def _clone(nd: Node, memo: dict[int, Node]) -> Node:
    if id(nd) in memo:
        return memo[id(nd)]
    new = _clone_node(nd, lambda c: _clone(c, memo))
    memo[id(nd)] = new
    return new


def _clone_node(nd: Node, cl) -> Node:
    if isinstance(nd, Input):
        return nd                           # leaves are immutable bindings
    if isinstance(nd, Transpose):
        return Transpose(cl(nd.child))
    if isinstance(nd, MatVec):
        return MatVec(cl(nd.mat), cl(nd.vec))
    if isinstance(nd, EwMul):
        return EwMul(cl(nd.a), cl(nd.b))
    if isinstance(nd, Add):
        return Add(cl(nd.a), cl(nd.b))
    if isinstance(nd, Smul):
        return Smul(nd.alpha, cl(nd.x))
    if isinstance(nd, FusedPattern):
        return FusedPattern(cl(nd.X), cl(nd.y),
                            v=None if nd.v is None else cl(nd.v),
                            z=None if nd.z is None else cl(nd.z),
                            alpha=nd.alpha, beta=nd.beta, inner=nd.inner)
    if isinstance(nd, FusedCellwise):
        return FusedCellwise(nd.program, tuple(cl(o) for o in nd.operands))
    if isinstance(nd, FusedRowAgg):
        return FusedRowAgg(cl(nd.mat), cl(nd.vec), nd.program,
                           tuple(cl(e) for e in nd.extras), nd.transpose)
    raise TypeError(f"cannot clone {type(nd).__name__}")


def lower(root: Node, chosen: list[Candidate]) -> Node:
    """Clone the DAG, replacing each chosen candidate's region with its
    fused node.  Candidates must be conflict-free (disjoint members) —
    the optimizer's selection guarantees that."""
    by_root = {id(c.root): c for c in chosen}
    memo: dict[int, Node] = {}

    def cl(nd: Node) -> Node:
        if id(nd) in memo:
            return memo[id(nd)]
        cand = by_root.get(id(nd))
        if cand is not None:
            new = _lower_candidate(cand, cl)
        else:
            new = _clone_node(nd, cl)
        memo[id(nd)] = new
        return new

    return cl(root)


def _lower_candidate(c: Candidate, cl) -> Node:
    if c.kind == "eq1":
        return FusedPattern(cl(c.X), cl(c.y),
                            v=None if c.v is None else cl(c.v),
                            z=None if c.z is None else cl(c.z),
                            alpha=c.alpha, beta=c.beta, inner=c.inner)
    if c.kind == "cellwise":
        return FusedCellwise(c.program, tuple(cl(o) for o in c.operands))
    if c.kind == "rowagg":
        mat = c.mv.mat.child if isinstance(c.mv.mat, Transpose) else c.mv.mat
        return FusedRowAgg(cl(mat), cl(c.mv.vec), c.program,
                           tuple(cl(e) for e in c.operands[1:]),
                           transpose=isinstance(c.mv.mat, Transpose))
    raise ValueError(f"unknown candidate kind {c.kind!r}")
