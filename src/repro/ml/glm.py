"""Generalized linear models via iteratively reweighted least squares.

Each IRLS step solves the weighted normal equations
``(X^T W X + lam I) d = X^T (W ⊙ r_work)`` by CG; the Hessian-vector product
is the ``X^T x (v ⊙ (X x y))`` instantiation (Table 1's GLM column) with
``v`` the IRLS working weights.  Supported families: ``gaussian`` (identity
link), ``poisson`` (log link), ``binomial`` (logit link).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runtime import MLRuntime

FAMILIES = ("gaussian", "poisson", "binomial")


def _link_quantities(family: str, eta: np.ndarray, target: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Return (working weights W, working residual r = y - mu scaled)."""
    if family == "gaussian":
        mu = eta
        return np.ones_like(eta), target - mu
    if family == "poisson":
        mu = np.exp(np.clip(eta, -30, 30))
        return mu, target - mu
    if family == "binomial":
        mu = 1.0 / (1.0 + np.exp(-np.clip(eta, -30, 30)))
        return mu * (1.0 - mu), target - mu
    raise ValueError(f"family must be one of {FAMILIES}")


@dataclass
class GlmResult:
    w: np.ndarray
    iterations: int
    cg_iterations: int
    deviance_proxy: float
    total_time_ms: float


def glm_irls(X, target, family: str = "poisson",
             runtime: MLRuntime | None = None, lam: float = 0.0,
             max_irls: int = 25, max_cg: int = 50, tol: float = 1e-8,
             include_transfer: bool = False) -> GlmResult:
    """Fit a GLM by IRLS with CG-solved weighted least squares steps.

    With ``lam = 0`` (the default) each Hessian-vector product is the pure
    ``X^T x (v ⊙ (X x y))`` instantiation of Table 1's GLM column; the
    Gaussian family's unit weights degenerate it further to ``X^T (X y)``.
    """
    rt = runtime or MLRuntime()
    m, n = X.shape
    t = np.asarray(target, dtype=np.float64)
    if t.shape != (m,):
        raise ValueError(f"target must have shape ({m},)")
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    with rt.resident(X, include_transfer):

        w = np.zeros(n, dtype=np.float64)
        total_cg = 0
        it = 0
        resid_sq = np.inf
        for it in range(1, max_irls + 1):
            eta = rt.mv(X, w)
            W, r_work = _link_quantities(family, eta, t)
            g = rt.xt_mv(X, r_work)                 # rhs: X^T (y - mu)
            if lam:
                g = rt.axpy(-lam, w, g)
            resid_sq = float(g @ g)
            if resid_sq <= tol:
                break

            # CG on (X^T W X + lam I) d = g  -- pattern with v = W; the
            # Gaussian family's W = 1 drops the element-wise multiply
            # entirely
            v_arg = None if family == "gaussian" else W
            beta_arg = lam if lam else 0.0
            d = np.zeros(n)
            r = g.copy()
            pdir = r.copy()
            rr = float(r @ r)
            for _ in range(max_cg):
                total_cg += 1
                z_arg = pdir if lam else None
                Hp = rt.pattern(X, pdir, v=v_arg, z=z_arg, beta=beta_arg)
                a = rr / max(rt.dot(pdir, Hp), 1e-300)
                d = rt.axpy(a, pdir, d)
                r = rt.axpy(-a, Hp, r)
                rr_new = rt.sumsq(r)
                if rr_new <= 1e-12 * rr or rr_new <= 1e-14:
                    break
                pdir = rt.axpy(rr_new / rr, pdir, r)
                rr = rr_new
            w = w + d
            if float(d @ d) <= 1e-18 * max(1.0, float(w @ w)):
                break

        if include_transfer:
            rt.download(w)
    return GlmResult(w=w, iterations=it, cg_iterations=total_cg,
                     deviance_proxy=resid_sq, total_time_ms=rt.ledger.total_ms)
