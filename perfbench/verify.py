"""Correctness references, run outside every timed region.

Both references go through uncached :func:`repro.core.api.evaluate` (a
fresh executor per call: no plan, profile or fingerprint cache), so any
outcome of the program's caching layers that changes a single bit of an
output shows as a mismatch.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

from repro.core import api


def digest(out) -> bytes:
    """Bit-identity key of an output: dtype, shape and bytes.

    Runs keep this instead of the array, so what the benchmark retains
    does not grow the peak memory it reports with the number of solves.
    """
    out = np.ascontiguousarray(out)
    h = blake2b(f"{out.dtype.str}{out.shape}".encode(), digest_size=16)
    h.update(out)
    return h.digest()


def reference_solve(X, y, max_iterations: int, eps: float,
                    tolerance: float = 1e-6) -> tuple[np.ndarray, int]:
    """Listing 1 line for line, with Eq. 1 through uncached ``evaluate``.

    The BLAS-1 steps are the NumPy expressions the simulated kernels
    compute (``alpha * x + y``, ``x @ y``), so the weights must equal
    ``linreg_cg`` and ``SystemMLSession.run_linreg_cg`` bit for bit.
    """
    n = X.shape[1]
    y = np.asarray(y, dtype=np.float64)
    r = api.xt_mv(X, y, alpha=-1.0, strategy="fused").output
    p = -1.0 * r
    nr2 = float(r @ r)
    nr2_target = nr2 * tolerance ** 2
    w = np.zeros(n, dtype=np.float64)
    i = 0
    while i < max_iterations and nr2 > nr2_target:
        q = api.evaluate(X, p, z=p, beta=eps).output
        alpha = nr2 / float(p @ q)
        w = alpha * p + w
        old_nr2 = nr2
        r = alpha * q + r
        nr2 = float(r @ r)
        p = (nr2 / old_nr2) * p + -r
        i += 1
    return w, i


def reference_pattern(X, y, beta: float, strategy: str) -> np.ndarray:
    """``X^T (X y) + beta * y`` through uncached ``evaluate``."""
    return api.evaluate(X, y, z=y, beta=beta, strategy=strategy).output
