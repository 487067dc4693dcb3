"""Linear regression via conjugate gradient — Listing 1 of the paper.

The CG loop's hot statement is ``q = t(V) %*% (V %*% p) + eps * p``, the
``X^T x (X x y) + beta * z`` instantiation of the generic pattern; the
surrounding updates are BLAS-1.  Run under different
:class:`~repro.ml.runtime.MLRuntime` backends, this is the workload of
Tables 2, 5, and 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import MLRuntime


@dataclass
class LinRegResult:
    """Fitted weights plus convergence and timing metadata."""

    w: np.ndarray
    iterations: int
    residual_norm_sq: float
    initial_norm_sq: float
    total_time_ms: float

    @property
    def converged(self) -> bool:
        return self.residual_norm_sq <= self.initial_norm_sq * 1e-12


def linreg_cg(X, y, runtime: MLRuntime | None = None,
              eps: float = 0.001, tolerance: float = 1e-6,
              max_iterations: int = 100,
              include_transfer: bool = True) -> LinRegResult:
    """Solve ``(X^T X + eps I) w = X^T y`` by CG (Listing 1, line for line).

    ``y`` is the m-vector of targets.  ``include_transfer`` charges the
    one-time host-to-device upload of ``X`` (Table 5's protocol).
    """
    rt = runtime or MLRuntime()
    m, n = X.shape
    if np.asarray(y).shape != (m,):
        raise ValueError(f"y must have shape ({m},)")

    with rt.resident(X, include_transfer):
        if include_transfer:
            rt.upload(np.asarray(y))

        r = rt.xt_mv(X, np.asarray(y, dtype=np.float64), alpha=-1.0)  # line 3
        p = rt.scal(-1.0, r)                                          # line 4
        nr2 = rt.sumsq(r)                                             # line 5
        nr2_init = nr2
        nr2_target = nr2 * tolerance ** 2                             # line 6
        w = np.zeros(n, dtype=np.float64)                             # line 7
        i = 0
        while i < max_iterations and nr2 > nr2_target:                # line 9
            q = rt.pattern(X, p, z=p, beta=eps)                       # line 10
            alpha = nr2 / rt.dot(p, q)                                # line 12
            w = rt.axpy(alpha, p, w)                                  # line 13
            old_nr2 = nr2
            r = rt.axpy(alpha, q, r)                                  # line 15
            nr2 = rt.sumsq(r)                                         # line 16
            beta = nr2 / old_nr2                                      # line 17
            p = rt.axpy(beta, p, -r)                                  # line 18
            i += 1

        if include_transfer:
            rt.download(w)
    return LinRegResult(w=w, iterations=i, residual_norm_sq=nr2,
                        initial_norm_sq=nr2_init,
                        total_time_ms=rt.ledger.total_ms)
