"""Binomial logistic regression via trust-region Newton (Lin, Weng, Keerthi).

The paper lists LogReg among the algorithms dominated by the generic
pattern: the gradient is ``X^T x (sigma - t)`` (the ``alpha * X^T x y`` row of
Table 1) and every Hessian-vector product inside the CG subproblem is

    ``H s = X^T x (D ⊙ (X x s)) + lambda * s``,

the *complete* pattern with ``v = D = sigma(1-sigma)``, ``beta = lambda`` and
``z = s`` — Table 1's LogReg column checks the ``FULL`` and ``XT_V_X_Y`` rows
through exactly this code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import MLRuntime


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


@dataclass
class LogRegResult:
    w: np.ndarray
    iterations: int
    cg_iterations: int
    final_loss: float
    grad_norm: float
    total_time_ms: float


def _loss(X, w, t, lam, rt: MLRuntime) -> float:
    u = rt.mv(X, w)
    # numerically stable log(1 + exp(-t*u))
    margins = t * u
    loss = float(np.logaddexp(0.0, -margins).sum())
    return loss + 0.5 * lam * float(w @ w)


def logreg_trust_region(X, labels, runtime: MLRuntime | None = None,
                        lam: float = 1.0, max_newton: int = 20,
                        max_cg: int = 30, grad_tol: float = 1e-4,
                        include_transfer: bool = False) -> LogRegResult:
    """Fit P(y=1|x) = sigma(w.x) with labels in {-1, +1}.

    Trust-region Newton: each outer step solves the Newton system
    approximately by CG (Steihaug truncation at the trust radius), accepts or
    rejects by the actual-vs-predicted reduction ratio, and adapts the radius.
    """
    rt = runtime or MLRuntime()
    m, n = X.shape
    t = np.asarray(labels, dtype=np.float64)
    if t.shape != (m,):
        raise ValueError(f"labels must have shape ({m},)")
    if not np.all(np.isin(t, (-1.0, 1.0))):
        raise ValueError("labels must be -1/+1")

    with rt.resident(X, include_transfer):

        w = np.zeros(n, dtype=np.float64)
        delta = 1.0
        total_cg = 0
        f = _loss(X, w, t, lam, rt)
        grad_norm = np.inf
        it = 0
        for it in range(1, max_newton + 1):
            u = rt.mv(X, w)
            sigma = _sigmoid(t * u)
            # gradient: X^T ((sigma-1) * t) + lam w
            # (Table-1 row: alpha X^T y)
            g = rt.xt_mv(X, (sigma - 1.0) * t) + lam * w
            grad_norm = float(np.sqrt(g @ g))
            if grad_norm <= grad_tol:
                break
            D = sigma * (1.0 - sigma)

            # --- CG-Steihaug on H s = -g, H = X^T D X + lam I --------------
            s = np.zeros(n)
            r = -g.copy()
            d = r.copy()
            rr = float(r @ r)
            for _ in range(max_cg):
                total_cg += 1
                Hd = rt.pattern(X, d, v=D, z=d, beta=lam)       # FULL pattern
                dHd = rt.dot(d, Hd)
                if dHd <= 0:
                    break
                a = rr / dHd
                if float(np.linalg.norm(s + a * d)) >= delta:
                    # hit the trust boundary: walk to it and stop
                    sd = float(s @ d)
                    dd = float(d @ d)
                    disc = sd * sd + dd * (delta * delta - float(s @ s))
                    tau = (-sd + np.sqrt(max(0.0, disc))) / dd
                    s = s + tau * d
                    break
                s = rt.axpy(a, d, s)
                r = rt.axpy(-a, Hd, r)
                rr_new = rt.sumsq(r)
                if rr_new <= 1e-10 * rr:
                    break
                d = rt.axpy(rr_new / rr, d, r)
                rr = rr_new

            # --- accept / reject by reduction ratio ------------------------
            f_new = _loss(X, w + s, t, lam, rt)
            pred = -float(g @ s) - 0.5 * float(
                s @ rt.pattern(X, s, v=D, z=s, beta=lam))
            actual = f - f_new
            rho = actual / pred if pred > 0 else -1.0
            if rho > 0.25:
                w = w + s
                f = f_new
                if rho > 0.75:
                    delta = min(4.0 * delta, 1e6)
            else:
                delta = max(0.25 * delta, 1e-6)

        if include_transfer:
            rt.download(w)
    return LogRegResult(w=w, iterations=it, cg_iterations=total_cg,
                        final_loss=f, grad_norm=grad_norm,
                        total_time_ms=rt.ledger.total_ms)
