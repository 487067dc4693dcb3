"""HITS (Hubs and Authorities, Kleinberg 1999) by power iteration.

With adjacency ``X``, authority scores satisfy ``a ∝ X^T X a`` — the
``X^T x (X x y)`` instantiation executed once per iteration (Table 1's HITS
column), with hub scores recovered as ``h = X a``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import MLRuntime


@dataclass
class HitsResult:
    authorities: np.ndarray
    hubs: np.ndarray
    iterations: int
    delta: float
    total_time_ms: float

    @property
    def converged(self) -> bool:
        return self.delta <= 1e-9

    def top_authorities(self, k: int = 10) -> np.ndarray:
        return np.argsort(-self.authorities)[:k]

    def top_hubs(self, k: int = 10) -> np.ndarray:
        return np.argsort(-self.hubs)[:k]


def hits(X, runtime: MLRuntime | None = None, max_iterations: int = 100,
         tol: float = 1e-9, include_transfer: bool = False,
         mode: str = "fused") -> HitsResult:
    """HITS power iteration with L2 normalization each step.

    ``mode="fused"`` advances authorities directly through the
    ``X^T x (X x y)`` pattern (one fused kernel per iteration);
    ``mode="alternating"`` is the textbook formulation — ``h = X a`` then
    ``a = X^T h`` — whose second half is Table 1's ``alpha * X^T x y`` row.
    Both converge to the same leading eigenvector of ``X^T X``.
    """
    if mode not in ("fused", "alternating"):
        raise ValueError("mode must be 'fused' or 'alternating'")
    rt = runtime or MLRuntime()
    m, n = X.shape
    with rt.resident(X, include_transfer):
        a = np.full(n, 1.0 / np.sqrt(n), dtype=np.float64)
        delta = np.inf
        it = 0
        for it in range(1, max_iterations + 1):
            if mode == "fused":
                a_new = rt.pattern(X, a)          # X^T (X a)
            else:
                h_it = rt.mv(X, a)                # hub update
                a_new = rt.xt_mv(X, h_it)         # authority update (X^T x h)
            norm = rt.nrm2(a_new)
            if norm == 0.0:
                a_new = a
                delta = 0.0
                break
            a_new = rt.scal(1.0 / norm, a_new)
            diff = a_new - a
            delta = float(np.sqrt(diff @ diff))
            a = a_new
            if delta <= tol:
                break
        h = rt.mv(X, a)
        hn = float(np.sqrt(h @ h))
        if hn > 0:
            h = h / hn
        if include_transfer:
            rt.download(a)
            rt.download(h)
    return HitsResult(authorities=a, hubs=h, iterations=it, delta=delta,
                      total_time_ms=rt.ledger.total_ms)
