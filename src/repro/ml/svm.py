"""Linear SVM trained in the primal (Chapelle, 2007).

Squared-hinge loss ``lam/2 ||w||^2 + sum_i max(0, 1 - t_i w.x_i)^2`` is
piecewise quadratic; Newton steps restricted to the active set (margin
violators) have Hessian ``lam I + 2 X^T diag(sv) X`` — a generic-pattern
Hessian-vector product with ``v`` the support-vector indicator, covering
Table 1's SVM rows (``alpha X^T y``, ``X^T X y``, ``X^T X y + beta z``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import MLRuntime


@dataclass
class SvmResult:
    w: np.ndarray
    iterations: int
    cg_iterations: int
    n_support: int
    objective: float
    total_time_ms: float


def _objective(u: np.ndarray, t: np.ndarray, w: np.ndarray,
               lam: float) -> float:
    margin = 1.0 - t * u
    viol = np.maximum(margin, 0.0)
    return 0.5 * lam * float(w @ w) + float(viol @ viol)


def svm_primal(X, labels, runtime: MLRuntime | None = None,
               lam: float = 1.0, max_newton: int = 30, max_cg: int = 50,
               tol: float = 1e-6,
               include_transfer: bool = False) -> SvmResult:
    """Primal Newton SVM with CG-solved steps over the active set."""
    rt = runtime or MLRuntime()
    m, n = X.shape
    t = np.asarray(labels, dtype=np.float64)
    if t.shape != (m,):
        raise ValueError(f"labels must have shape ({m},)")
    if not np.all(np.isin(t, (-1.0, 1.0))):
        raise ValueError("labels must be -1/+1")
    with rt.resident(X, include_transfer):

        w = np.zeros(n, dtype=np.float64)
        total_cg = 0
        it = 0
        sv = np.ones(m, dtype=np.float64)
        for it in range(1, max_newton + 1):
            u = rt.mv(X, w)
            margin = 1.0 - t * u
            sv = (margin > 0).astype(np.float64)
            # gradient: lam w - 2 X^T (sv * t * margin)
            g = rt.xt_mv(X, sv * t * margin, alpha=-2.0)
            g = rt.axpy(lam, w, g)
            gnorm = float(np.sqrt(g @ g))
            if gnorm <= tol:
                break

            # CG on (lam I + 2 X^T diag(sv) X) d = -g; when every point
            # violates the margin (e.g. the first Newton step from w = 0)
            # the indicator is all-ones and the Hessian-vector product
            # degenerates to the ``X^T (X y) + beta z`` instantiation
            # (Table 1's SVM column)
            sv_arg = None if bool(sv.all()) else sv
            d = np.zeros(n)
            r = -g
            pdir = r.copy()
            rr = float(r @ r)
            for _ in range(max_cg):
                total_cg += 1
                Hp = rt.pattern(X, pdir, v=sv_arg, z=pdir, alpha=2.0, beta=lam)
                a = rr / max(rt.dot(pdir, Hp), 1e-300)
                d = rt.axpy(a, pdir, d)
                r = rt.axpy(-a, Hp, r)
                rr_new = rt.sumsq(r)
                if rr_new <= 1e-10 * rr:
                    break
                pdir = rt.axpy(rr_new / rr, pdir, r)
                rr = rr_new

            # line search on the piecewise-quadratic objective (backtracking)
            f0 = _objective(u, t, w, lam)
            step = 1.0
            for _ in range(20):
                w_try = w + step * d
                if _objective(rt.mv(X, w_try), t, w_try, lam) <= f0:
                    break
                step *= 0.5
            w = w + step * d
            if step * float(np.sqrt(d @ d)) <= tol * max(
                    1.0, float(np.sqrt(w @ w))):
                break

        u = rt.mv(X, w)
        obj = _objective(u, t, w, lam)
        if include_transfer:
            rt.download(w)
    return SvmResult(w=w, iterations=it, cg_iterations=total_cg,
                     n_support=int(sv.sum()), objective=obj,
                     total_time_ms=rt.ledger.total_ms)
