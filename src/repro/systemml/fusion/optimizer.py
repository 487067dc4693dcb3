"""Cost-based fusion-plan selection.

:func:`optimize` runs the full pipeline on an expression DAG: index the
graph, infer shapes, enumerate candidate regions, cost every candidate
(fused vs. unfused, on the exact counter model), and select a
conflict-free subset.  Small problems get an exhaustive search over all
conflict-free candidate subsets (the candidate count for realistic DML
expressions is tiny, so this is exact); DAGs above the node budget fall
back to a greedy best-saving-first sweep, recorded in
``FusionPlan.search`` so callers and tests can tell which path ran.

The returned :class:`FusionPlan` is cacheable: it carries its own
enumeration DAG and lazily lowers it once (`.lowered()`), and its
:func:`fingerprint_dag` key covers DAG topology, matrix *content*
fingerprints and vector lengths — per-iteration vector value changes
still hit the cached plan, while a different matrix or expression shape
misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...kernels.base import DEFAULT_CONTEXT, GpuContext
from ..dag import (Add, EwMul, FusedPattern, Input, MatVec, Node, Smul,
                   Transpose)
from .candidates import Candidate, enumerate_candidates
from .cost import CostEstimate, PlannedCandidate, cost_candidate
from .executor import evaluate_dag
from .graph import index_dag, infer_shapes
from .lower import lower


@dataclass
class FusionPlan:
    """The optimizer's decision for one expression DAG."""

    fingerprint: str
    expression: str
    node_count: int
    search: str                            # "exhaustive" | "greedy"
    candidates: list[PlannedCandidate]
    chosen: list[int]                      # indices into ``candidates``
    baseline: CostEstimate                 # whole-DAG unfused cost
    root: Node = field(repr=False)
    _lowered: Node | None = field(default=None, repr=False)

    def chosen_candidates(self) -> list[Candidate]:
        return [self.candidates[i].candidate for i in self.chosen]

    def lowered(self) -> Node:
        """The plan's DAG with chosen regions fused (lowered once)."""
        if self._lowered is None:
            self._lowered = lower(self.root, self.chosen_candidates())
        return self._lowered

    @property
    def saving_ms(self) -> float:
        return sum(self.candidates[i].saving_ms for i in self.chosen)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "expression": self.expression,
            "node_count": self.node_count,
            "search": self.search,
            "baseline": self.baseline.to_dict(),
            "saving_ms": self.saving_ms,
            "chosen": self.chosen,
            "candidates": [pc.to_dict() for pc in self.candidates],
        }


def fingerprint_dag(root: Node, env: dict, device_fp: str = "") -> str:
    """Stable key for plan caching.

    Covers DAG topology (with sharing markers), operator parameters,
    matrix content fingerprints, and vector lengths — NOT vector values,
    so iterative solvers reuse one plan across iterations.
    """
    import hashlib

    from ...core.engine import fingerprint_matrix

    seen: dict[int, int] = {}
    parts: list[str] = [device_fp]

    def walk(nd: Node) -> str:
        if id(nd) in seen:
            return f"@{seen[id(nd)]}"
        seen[id(nd)] = len(seen)
        if isinstance(nd, Input):
            val = env.get(nd.name)
            if val is None:
                return f"in({nd.name})"
            from ...sparse.csr import CsrMatrix
            if isinstance(val, CsrMatrix):
                return f"in({nd.name},{fingerprint_matrix(val)})"
            import numpy as np
            arr = np.asarray(val)
            if arr.ndim == 1:              # vectors: length only, so an
                return f"in({nd.name},vec{arr.shape[0]})"  # iterative solver
            return f"in({nd.name},{fingerprint_matrix(arr)})"  # hits warm
        if isinstance(nd, Transpose):
            return f"t({walk(nd.child)})"
        if isinstance(nd, MatVec):
            return f"mv({walk(nd.mat)},{walk(nd.vec)})"
        if isinstance(nd, EwMul):
            return f"ew({walk(nd.a)},{walk(nd.b)})"
        if isinstance(nd, Add):
            return f"add({walk(nd.a)},{walk(nd.b)})"
        if isinstance(nd, Smul):
            return f"smul({nd.alpha!r},{walk(nd.x)})"
        if isinstance(nd, FusedPattern):
            inner = [walk(nd.X), walk(nd.y)]
            if nd.v is not None:
                inner.append(walk(nd.v))
            if nd.z is not None:
                inner.append(walk(nd.z))
            return (f"fp({','.join(inner)},{nd.alpha!r},{nd.beta!r},"
                    f"{nd.inner})")
        return f"{type(nd).__name__}({','.join(walk(c) for c in nd.inputs)})"

    try:
        parts.append(walk(root))
    finally:
        # ``walk`` reaches itself through its own closure cell; unbinding
        # it breaks that cycle, so ``env`` (X and the solve's vectors) is
        # freed by reference counting when this call returns
        del walk
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=16).hexdigest()


def _select_exhaustive(eligible: list[int],
                       planned: list[PlannedCandidate]) -> list[int]:
    """Exact max-total-saving conflict-free subset (DFS with memo-free
    branch and bound; eligible counts are single digits in practice)."""
    best: tuple[float, list[int]] = (0.0, [])

    def dfs(k: int, taken: list[int], members: frozenset[int],
            saving: float) -> None:
        nonlocal best
        if saving > best[0]:
            best = (saving, list(taken))
        if k == len(eligible):
            return
        # upper bound: all remaining savings are additive
        rest = sum(planned[i].saving_ms for i in eligible[k:])
        if saving + rest <= best[0]:
            return
        i = eligible[k]
        if not (members & planned[i].member_ids):
            taken.append(i)
            dfs(k + 1, taken, members | planned[i].member_ids,
                saving + planned[i].saving_ms)
            taken.pop()
        dfs(k + 1, taken, members, saving)

    dfs(0, [], frozenset(), 0.0)
    return sorted(best[1])


def _select_greedy(eligible: list[int],
                   planned: list[PlannedCandidate]) -> list[int]:
    chosen: list[int] = []
    members: frozenset[int] = frozenset()
    for i in sorted(eligible, key=lambda i: planned[i].saving_ms,
                    reverse=True):
        if not (members & planned[i].member_ids):
            chosen.append(i)
            members = members | planned[i].member_ids
    return sorted(chosen)


def optimize(root: Node, env: dict,
             ctx: GpuContext = DEFAULT_CONTEXT,
             engine=None,
             node_budget: int = 32,
             max_exhaustive: int = 12,
             expression: str = "") -> FusionPlan:
    """Enumerate, cost, and select fusions for ``root`` bound to ``env``."""
    index = index_dag(root)
    shapes = infer_shapes(index, env)
    candidates = enumerate_candidates(index, shapes)
    planned = [cost_candidate(c, env, shapes, index, ctx, engine)
               for c in candidates]

    baseline_results: list = []
    evaluate_dag(root, env, ctx, engine=engine, results=baseline_results)
    baseline = CostEstimate()
    for res in baseline_results:
        baseline.absorb(res)

    eligible = [i for i, pc in enumerate(planned) if pc.saving_ms > 0]
    if len(eligible) <= max_exhaustive and len(index.nodes) <= node_budget:
        search = "exhaustive"
        chosen = _select_exhaustive(eligible, planned)
    else:
        search = "greedy"
        chosen = _select_greedy(eligible, planned)

    device_fp = getattr(engine, "_device_fp", "")
    return FusionPlan(
        fingerprint=fingerprint_dag(root, env, device_fp),
        expression=expression or repr(root),
        node_count=len(index.nodes),
        search=search,
        candidates=planned,
        chosen=chosen,
        baseline=baseline,
        root=root)
