"""Fused cell-wise and row-aggregation kernels for optimizer-chosen regions.

The fusion-plan optimizer (:mod:`repro.systemml.fusion`) generalizes the
paper's single hand-matched Eq.-1 pattern to arbitrary fusable sub-DAGs, in
the spirit of SystemML's operator-fusion plans (Boehm et al.,
arXiv:1801.00829).  Two region shapes are lowered here:

* **cell-wise chains** — any DAG over ``{+, *, alpha *}`` on equal-length
  vectors collapses into a single streaming kernel: every distinct operand
  is read once, the result is written once, and all intermediate vectors
  stay in registers instead of round-tripping through global memory;
* **row aggregations** — a matrix-vector product followed by a cell-wise
  epilogue over its output; the epilogue folds into the producing kernel's
  store, eliminating the materialized intermediate entirely.

A region's arithmetic is captured as a :class:`CellwiseProgram` (a tiny
expression IR).  Execution goes through a *generated* specialized kernel
(:func:`repro.kernels.codegen.generate_cellwise_source`) with the Listing-2
register discipline — ``VS``-wide named slices, compile-time-constant
bounds — so the same linter rules that gate the dense mtmvm kernels apply
to optimizer-emitted sources.

Counter accounting mirrors :mod:`repro.kernels.blas1`: coalesced streaming
traffic for distinct operands, one launch, flops per rendered arithmetic
op.  Everything is structure-invariant, so counters predicted at plan time
equal the counters recorded at execution exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from ..gpu.counters import PerfCounters
from ..gpu.memory import coalesced_transactions
from ..sparse.csr import CsrMatrix
from .base import DEFAULT_CONTEXT, GpuContext, KernelResult, finish
from .blas1 import _launch_for
from .dense_baseline import gemv_n, gemv_t
from .sparse_baseline import CsrmvProfile, csrmv, csrmv_transpose

_D = 8

#: expression node tags: ('in', k) | ('smul', alpha, e) | ('ewmul', a, b)
#: | ('add', a, b)
_OPS = ("in", "smul", "ewmul", "add")


def _validate_expr(expr: tuple, n_inputs: int) -> int:
    """Recursively validate one expression node; returns its op count."""
    if not isinstance(expr, tuple) or not expr or expr[0] not in _OPS:
        raise ValueError(f"malformed cellwise expression node: {expr!r}")
    tag = expr[0]
    if tag == "in":
        if len(expr) != 2 or not isinstance(expr[1], int) \
                or not 0 <= expr[1] < n_inputs:
            raise ValueError(f"bad input reference {expr!r} "
                             f"(n_inputs={n_inputs})")
        return 0
    if tag == "smul":
        if len(expr) != 3 or not isinstance(expr[1], float):
            raise ValueError(f"bad smul node {expr!r}")
        return 1 + _validate_expr(expr[2], n_inputs)
    if len(expr) != 3:
        raise ValueError(f"bad {tag} node {expr!r}")
    return (1 + _validate_expr(expr[1], n_inputs)
            + _validate_expr(expr[2], n_inputs))


@dataclass(frozen=True)
class CellwiseProgram:
    """A fusable cell-wise computation over ``n_inputs`` operand vectors.

    ``expr`` is a nested-tuple expression tree; rendering, interpretation,
    and the generated kernel all evaluate it in the identical operation
    order, so every execution path is bit-identical (IEEE add/mul are
    commutative at the bit level, and the tree fixes associativity).
    """

    expr: tuple
    n_inputs: int

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValueError("a cellwise program needs at least one input")
        _validate_expr(self.expr, self.n_inputs)

    # ------------------------------------------------------------------ ops
    @property
    def op_count(self) -> int:
        """Arithmetic operations per element (as rendered/executed)."""
        return _validate_expr(self.expr, self.n_inputs)

    def render(self, names: list[str]) -> str:
        """Python expression text over the given operand names."""
        def rec(e: tuple) -> str:
            if e[0] == "in":
                return names[e[1]]
            if e[0] == "smul":
                return f"({e[1]!r} * {rec(e[2])})"
            op = "*" if e[0] == "ewmul" else "+"
            return f"({rec(e[1])} {op} {rec(e[2])})"
        return rec(self.expr)

    def interpret(self, inputs: list[np.ndarray]) -> np.ndarray:
        """Reference evaluation (same op order as the generated kernel)."""
        def rec(e: tuple) -> np.ndarray:
            if e[0] == "in":
                return inputs[e[1]]
            if e[0] == "smul":
                return e[1] * rec(e[2])
            if e[0] == "ewmul":
                return rec(e[1]) * rec(e[2])
            return rec(e[1]) + rec(e[2])
        return rec(self.expr)

    def describe(self) -> str:
        """Human-readable form with ``in0, in1, ...`` operand names."""
        return self.render([f"in{k}" for k in range(self.n_inputs)])

    def key(self) -> str:
        """Short stable digest (cache keys, labels)."""
        h = blake2b(digest_size=6)
        h.update(repr((self.expr, self.n_inputs)).encode())
        return h.hexdigest()


def cellwise_params(n: int) -> tuple[int, int]:
    """Default ``(VS, TL)`` for an n-element cell-wise kernel.

    A small fixed unroll depth keeps the generated source compact; ``VS``
    absorbs the rest of the width (``VS * TL >= n``, within ``TL`` extra).
    """
    if n < 1:
        raise ValueError("cellwise kernels need n >= 1")
    tl = min(4, n)
    vs = math.ceil(n / tl)
    return vs, tl


def _padded(x: np.ndarray, n_pad: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size == n_pad:
        return x
    out = np.zeros(n_pad, dtype=np.float64)
    out[:x.size] = x
    return out


def fused_cellwise(program: CellwiseProgram, inputs: list[np.ndarray],
                   ctx: GpuContext = DEFAULT_CONTEXT,
                   vs: int | None = None,
                   tl: int | None = None) -> KernelResult:
    """Execute a cell-wise region as one generated streaming kernel."""
    from .codegen import ensure_cellwise_kernel
    if len(inputs) != program.n_inputs:
        raise ValueError(f"program expects {program.n_inputs} inputs, "
                         f"got {len(inputs)}")
    arrays = [np.asarray(x, dtype=np.float64) for x in inputs]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("cellwise operands must have identical lengths")
    if vs is None or tl is None:
        vs, tl = cellwise_params(n)
    n_pad = vs * tl
    if n_pad < n:
        raise ValueError(f"VS*TL={n_pad} cannot cover n={n}")
    fn, _ = ensure_cellwise_kernel(n_pad, vs, tl, program)
    out = np.zeros(n_pad, dtype=np.float64)
    fn(*[_padded(a, n_pad) for a in arrays], out)
    if n_pad != n:
        out = out[:n]

    c = PerfCounters()
    c.global_load_transactions = coalesced_transactions(
        program.n_inputs * n * _D)
    c.global_store_transactions = coalesced_transactions(n * _D)
    c.flops = float(program.op_count * n)
    c.kernel_launches = 1
    return finish(ctx, out, c, _launch_for(n, ctx),
                  f"fused.cellwise[{program.key()}]")


def fused_rowagg(mat: CsrMatrix | np.ndarray, vec: np.ndarray,
                 program: CellwiseProgram, extras: list[np.ndarray],
                 ctx: GpuContext = DEFAULT_CONTEXT,
                 transpose: bool = False,
                 profile: CsrmvProfile | None = None,
                 vs: int | None = None,
                 tl: int | None = None) -> KernelResult:
    """Matrix-vector product with a fused cell-wise epilogue.

    ``program`` input 0 is the matvec result; inputs ``1..k`` are
    ``extras``.  The epilogue folds into the producing kernel's output
    store, so the only added traffic is reading the extra operands (plus
    the epilogue flops) — the intermediate is never materialized.
    """
    from .codegen import ensure_cellwise_kernel
    if program.n_inputs != len(extras) + 1:
        raise ValueError(f"program expects {program.n_inputs} inputs, got "
                         f"{len(extras)} extras + the matvec result")
    if isinstance(mat, CsrMatrix):
        base = (csrmv_transpose(mat, vec, ctx, profile=profile) if transpose
                else csrmv(mat, vec, ctx, texture=ctx.use_texture_cache,
                           profile=profile))
    else:
        X = np.asarray(mat, dtype=np.float64)
        base = gemv_t(X, vec, ctx) if transpose else gemv_n(X, vec, ctx)
    p = np.asarray(base.output, dtype=np.float64)
    n = p.size
    arrays = [np.asarray(x, dtype=np.float64) for x in extras]
    if any(a.size != n for a in arrays):
        raise ValueError("rowagg epilogue operands must match the matvec "
                         "output length")
    if vs is None or tl is None:
        vs, tl = cellwise_params(n)
    n_pad = vs * tl
    if n_pad < n:
        raise ValueError(f"VS*TL={n_pad} cannot cover n={n}")
    fn, _ = ensure_cellwise_kernel(n_pad, vs, tl, program)
    out = np.zeros(n_pad, dtype=np.float64)
    fn(*[_padded(a, n_pad) for a in [p, *arrays]], out)
    if n_pad != n:
        out = out[:n]

    c = PerfCounters()
    c.add(base.counters)
    c.global_load_transactions += coalesced_transactions(
        len(arrays) * n * _D)
    c.flops += float(program.op_count * n)
    return finish(ctx, out, c, base.launch,
                  f"fused.rowagg[{base.name}+{program.key()}]",
                  occupancy_fraction=base.occupancy_fraction,
                  bandwidth_derate=base.bandwidth_derate)
