"""Reference (ground-truth) linear algebra on CSR matrices.

These NumPy implementations define *what* every kernel must compute; the
kernel simulations in :mod:`repro.kernels` are tested against them.  They are
also the compute engine of the CPU baselines (BIDMat-CPU / single-threaded
SystemML), whose time is modelled by :mod:`repro.gpu.cpu`.

For the warm iterative path (the same matrix multiplied hundreds of times,
Listing 1), :class:`SpmvPlan` separates the structure-dependent inspection —
the non-empty-row ``reduceat`` starts and the row-expansion index that
``spmv_t`` otherwise rebuilds with ``np.repeat`` on every call — from the
vector-dependent execution, and keeps reusable O(nnz) scratch.  Planned
results are bit-identical to the plain functions (same operations in the
same order on the same operands), which the property suite asserts.
"""

from __future__ import annotations

import threading

import numpy as np

from .csr import CsrMatrix


def _check_vector(x: np.ndarray, size: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {x.shape}")
    return x


def spmv(X: CsrMatrix, y: np.ndarray) -> np.ndarray:
    """``X @ y`` for CSR ``X`` — row-parallel dot products."""
    y = _check_vector(y, X.n, "y")
    prod = X.values * y[X.col_idx]
    out = np.zeros(X.m, dtype=np.float64)
    if prod.size == 0 or X.m == 0:
        return out
    # segment sums over non-empty rows via reduceat (O(nnz), C-speed;
    # empty rows are skipped because reduceat mishandles zero-length spans)
    nonempty = X.row_nnz > 0
    starts = X.row_off[:-1][nonempty]
    out[nonempty] = np.add.reduceat(prod, starts)
    return out


def spmv_t(X: CsrMatrix, p: np.ndarray) -> np.ndarray:
    """``X.T @ p`` for CSR ``X`` — scatter of scaled rows into columns."""
    p = _check_vector(p, X.m, "p")
    scaled = X.values * np.repeat(p, X.row_nnz)
    if scaled.size == 0:
        return np.zeros(X.n, dtype=np.float64)
    return np.bincount(X.col_idx, weights=scaled, minlength=X.n)


class SpmvPlan:
    """Inspector-executor split for repeated SpMV on one fixed matrix.

    Precomputes, once:

    * the non-empty-row mask and the ``reduceat`` segment starts that
      :func:`spmv` rebuilds per call,
    * the row-expansion index ``rows[k] = row of non-zero k``, replacing
      :func:`spmv_t`'s per-call ``np.repeat(p, row_nnz)``.

    Per call, only the vector changes: the O(nnz) gather/product runs in
    reusable scratch (thread-local, so one plan is safe under the engine's
    batched thread pool).  Output vectors are freshly allocated unless an
    ``out`` buffer is passed, so callers may retain results across calls.

    The plan holds only what it derived from the matrix's *structure*
    (``row_off``).  The values and column indices come from the matrix
    passed to :meth:`spmv`/:meth:`spmv_t` (by default the one that built
    the plan), so one cached plan serves every content-equal matrix
    without reading another matrix's arrays — e.g. after the building
    matrix was mutated in place.  Mutating ``row_off`` makes the plan
    stale and the caller must rebuild it.
    """

    def __init__(self, X: CsrMatrix):
        self.X = X
        row_nnz = X.row_nnz
        self.nonempty = row_nnz > 0
        self.starts = X.row_off[:-1][self.nonempty]
        #: row id of each stored non-zero (the np.repeat spmv_t re-derives)
        self.row_expand = np.repeat(np.arange(X.m, dtype=np.int64), row_nnz)
        self._tls = threading.local()

    @property
    def nbytes(self) -> int:
        """Footprint of the precomputed index structure (for cache LRUs)."""
        return int(self.row_expand.nbytes + self.starts.nbytes
                   + self.nonempty.nbytes)

    def scratch(self) -> np.ndarray:
        """Reusable O(nnz) product buffer of the calling thread.

        Allocated on a thread's first call and reused by every later
        :meth:`spmv`/:meth:`spmv_t` on that thread (see class docs).
        """
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = np.empty(self.X.nnz, dtype=np.float64)
            self._tls.buf = buf
        return buf

    def _operand(self, X: CsrMatrix | None) -> CsrMatrix:
        """The matrix to multiply: ``X``, checked against the plan's
        shape and non-zero count, or else the plan's own matrix."""
        if X is None:
            return self.X
        if X.shape != self.X.shape or X.nnz != self.X.nnz:
            raise ValueError(
                f"plan built for a {self.X.shape} matrix with "
                f"{self.X.nnz} non-zeros, got {X.shape} with {X.nnz}")
        return X

    def spmv(self, y: np.ndarray, out: np.ndarray | None = None,
             X: CsrMatrix | None = None) -> np.ndarray:
        """Planned ``X @ y``; bit-identical to :func:`spmv`.

        ``X`` is the matrix to multiply, of the plan's structure; it
        defaults to the matrix the plan was built from.
        """
        X = self._operand(X)
        y = _check_vector(y, X.n, "y")
        if out is None:
            out = np.zeros(X.m, dtype=np.float64)
        else:
            out.fill(0.0)
        if X.nnz == 0 or X.m == 0:
            return out
        prod = self.scratch()
        np.take(y, X.col_idx, out=prod)
        np.multiply(X.values, prod, out=prod)
        out[self.nonempty] = np.add.reduceat(prod, self.starts)
        return out

    def spmv_t(self, p: np.ndarray, X: CsrMatrix | None = None
               ) -> np.ndarray:
        """Planned ``X.T @ p``; bit-identical to :func:`spmv_t`.  ``X``
        as in :meth:`spmv`."""
        X = self._operand(X)
        p = _check_vector(p, X.m, "p")
        if X.nnz == 0:
            return np.zeros(X.n, dtype=np.float64)
        scaled = self.scratch()
        np.take(p, self.row_expand, out=scaled)
        np.multiply(X.values, scaled, out=scaled)
        return np.bincount(X.col_idx, weights=scaled, minlength=X.n)


def fused_pattern_reference(X: CsrMatrix | np.ndarray, y: np.ndarray,
                            v: np.ndarray | None = None,
                            z: np.ndarray | None = None,
                            alpha: float = 1.0,
                            beta: float = 0.0) -> np.ndarray:
    """Ground truth for Eq. 1: ``alpha * X^T (v ⊙ (X y)) + beta * z``.

    Accepts either a :class:`CsrMatrix` or a dense 2-D array for ``X``.
    ``v=None`` means the all-ones vector; ``z=None`` with ``beta != 0`` is an
    error (matching the kernel API).
    """
    if isinstance(X, CsrMatrix):
        m, n = X.shape
        y = _check_vector(y, n, "y")
        p = spmv(X, y)
        if v is not None:
            p = p * _check_vector(v, m, "v")
        w = alpha * spmv_t(X, p)
    else:
        Xd = np.asarray(X, dtype=np.float64)
        m, n = Xd.shape
        y = _check_vector(y, n, "y")
        p = Xd @ y
        if v is not None:
            p = p * _check_vector(v, m, "v")
        w = alpha * (Xd.T @ p)
    if beta != 0.0:
        if z is None:
            raise ValueError("beta != 0 requires z")
        w = w + beta * _check_vector(z, n, "z")
    return w


def spmm(X: CsrMatrix, B: np.ndarray) -> np.ndarray:
    """``X @ B`` for a dense right-hand side (utility for the ML layer).

    One segmented reduction over the whole dense block — the k columns share
    a single gather of ``B``'s rows and a single ``reduceat`` pass, instead
    of k independent :func:`spmv` calls.  Per column the accumulation order
    matches :func:`spmv` exactly, so results are bit-identical.
    """
    B = np.asarray(B, dtype=np.float64)
    if B.ndim == 1:
        return spmv(X, B)
    if B.shape[0] != X.n:
        raise ValueError(f"B must have {X.n} rows, got {B.shape[0]}")
    k = B.shape[1]
    out = np.zeros((X.m, k), dtype=np.float64)
    if X.nnz == 0 or X.m == 0 or k == 0:
        return out
    prod = X.values[:, None] * B[X.col_idx, :]
    nonempty = X.row_nnz > 0
    starts = X.row_off[:-1][nonempty]
    out[nonempty] = np.add.reduceat(prod, starts, axis=0)
    return out


def row_norms_sq(X: CsrMatrix) -> np.ndarray:
    """Squared L2 norm of each row (used by SVM/LogReg preconditioners).

    Segment sums via ``reduceat`` over the contiguous CSR rows — the
    ``np.add.at`` scatter it replaces funnels through a ~10x slower C path
    for the same left-to-right per-row accumulation order.
    """
    out = np.zeros(X.m, dtype=np.float64)
    if X.nnz == 0 or X.m == 0:
        return out
    nonempty = X.row_nnz > 0
    out[nonempty] = np.add.reduceat(X.values**2,
                                    X.row_off[:-1][nonempty])
    return out
