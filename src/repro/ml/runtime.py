"""Backend abstraction and time ledger for the ML algorithms.

An :class:`MLRuntime` exposes the operations Listing 1-style scripts need —
the generic pattern, SpMV/GEMV, and BLAS-1 — computes them numerically, and
charges model time to a ledger under one of three backends:

* ``cpu`` — single-threaded or multi-threaded host execution (roofline);
* ``gpu-baseline`` — operator-level cuSPARSE/cuBLAS kernel launches;
* ``gpu-fused`` — the paper's fused kernel for every pattern occurrence,
  library kernels elsewhere.

The ledger tracks time by category (``pattern`` vs ``blas1`` vs ``mv`` vs
``transfer``), which is exactly the breakdown Tables 2, 5 and 6 report, and
records every pattern instantiation encountered (Table 1 coverage).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..core.executor import PatternExecutor
from ..core.pattern import GenericPattern, Instantiation
from ..gpu.cpu import CpuCostModel
from ..gpu.transfer import TransferModel
from ..kernels import blas1
from ..kernels.base import DEFAULT_CONTEXT, GpuContext
from ..kernels.dense_baseline import gemv_n
from ..kernels.sparse_baseline import csrmv
from ..sparse.csr import CsrMatrix
from ..sparse.ops import spmv

_D = 8
_I = 4

BACKENDS = ("cpu", "gpu-baseline", "gpu-fused")

#: how expression DAGs are fused: cost-based optimizer, hand-written
#: pattern rewriter (the default, matching prior behaviour), or not at all
FUSE_MODES = ("auto", "pattern", "off")


@dataclass
class TimeLedger:
    """Accumulated model time by category, plus pattern-usage traces."""

    by_category: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    instantiations: Counter = field(default_factory=Counter)
    op_counts: Counter = field(default_factory=Counter)

    def charge(self, category: str, ms: float) -> None:
        self.by_category[category] += ms
        self.op_counts[category] += 1

    @property
    def total_ms(self) -> float:
        return sum(self.by_category.values())

    def fraction(self, category: str) -> float:
        t = self.total_ms
        return self.by_category.get(category, 0.0) / t if t else 0.0

    def compute_fraction(self, category: str) -> float:
        """Share of *compute* time (transfer excluded), as in Table 2."""
        t = sum(v for k, v in self.by_category.items() if k != "transfer")
        return self.by_category.get(category, 0.0) / t if t else 0.0

    def reset(self) -> None:
        self.by_category.clear()
        self.instantiations.clear()
        self.op_counts.clear()


class MLRuntime:
    """Executes ML-algorithm operations under a chosen backend.

    GPU backends route every pattern statement through a
    :class:`~repro.core.engine.PatternEngine` session, so iterative
    algorithms (LR-CG, GLM, HITS) pay plan selection and §3.3 tuning once
    per matrix instead of once per call.  Pass ``engine`` to share a session
    across runtimes, and ``strategy`` to pin a specific execution plan
    (e.g. ``"cusparse-explicit"`` to study Fig. 2's transpose amortization).
    """

    def __init__(self, backend: str = "gpu-fused",
                 ctx: GpuContext | None = None,
                 cpu_threads: int | None = None,
                 engine: "PatternEngine | None" = None,
                 strategy: str | None = None,
                 fuse: str = "pattern"):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if fuse not in FUSE_MODES:
            raise ValueError(f"fuse must be one of {FUSE_MODES}")
        self.backend = backend
        self.ctx = ctx or DEFAULT_CONTEXT
        self.cpu = CpuCostModel(threads=cpu_threads)
        self.transfer = TransferModel(self.ctx.device)
        self.executor = PatternExecutor(self.ctx)
        self.strategy = strategy
        self.fuse = fuse
        if engine is None and self.on_gpu:
            from ..core.engine import PatternEngine
            engine = PatternEngine(self.ctx)
        self.engine = engine
        self.ledger = TimeLedger()

    # ------------------------------------------------------------ helpers --
    @property
    def on_gpu(self) -> bool:
        return self.backend.startswith("gpu")

    def _nbytes(self, X) -> float:
        if isinstance(X, CsrMatrix):
            return float(X.nbytes())
        return float(np.asarray(X).size * _D)

    # ------------------------------------------------------------ transfer --
    def upload(self, X) -> bool:
        """Charge the host-to-device transfer of an operand (Table 5).

        Uploading also pins a matrix operand on the engine: device-resident
        data is immutable from the host's point of view, so the engine
        freezes it and memoizes its fingerprint instead of re-hashing it on
        every call.  Returns True when this call took the pin, which its
        taker releases with ``runtime.engine.unpin(X)`` (:meth:`resident`
        does so for the solvers); a matrix already pinned on the engine is
        left as it is.
        """
        if not self.on_gpu:
            return False
        self.ledger.charge("transfer", self.transfer.h2d_ms(self._nbytes(X)))
        if not (isinstance(X, CsrMatrix) or (
                isinstance(X, np.ndarray) and X.ndim == 2)):
            return False             # vectors stay mutable (CG updates them)
        if self.engine.is_pinned(X):
            return False
        self.engine.pin(X)
        return True

    @contextmanager
    def resident(self, X, upload: bool):
        """Keep ``X`` on the device for one solve.

        With ``upload``, entering charges the transfer and pins ``X``
        (:meth:`upload`), and leaving — by return or raise — releases the
        pin it took, so the caller gets ``X`` back as it handed it in:
        writable if it was, frozen if the caller had frozen it, and
        pinned if the caller had pinned it on this engine.
        """
        took = self.upload(X) if upload else False
        try:
            yield
        finally:
            if took:
                self.engine.unpin(X)

    def download(self, x) -> None:
        if self.on_gpu:
            self.ledger.charge("transfer",
                               self.transfer.d2h_ms(self._nbytes(x)))

    # ------------------------------------------------------------- pattern --
    def _gpu_strategy(self, default_fused: str = "auto") -> str:
        if self.strategy is not None:
            return self.strategy
        return "cusparse" if self.backend == "gpu-baseline" else default_fused

    def pattern(self, X, y, v=None, z=None, alpha: float = 1.0,
                beta: float = 0.0) -> np.ndarray:
        """Eq. 1 under the backend's strategy; the hot op of every algorithm."""
        p = GenericPattern(X, y, v=v, z=z, alpha=alpha, beta=beta)
        self.ledger.instantiations[p.classify()] += 1
        if self.backend == "cpu":
            from ..core.plans import BidmatCpuPlan
            res = BidmatCpuPlan(self.cpu).evaluate(p)
        else:
            res = self.engine.evaluate_pattern(p, self._gpu_strategy())
        self.ledger.charge("pattern", res.time_ms)
        return res.output

    def pattern_multi(self, X, Y, V=None, Z=None, alpha: float = 1.0,
                      beta: float = 0.0) -> np.ndarray:
        """Eq. 1 over k right-hand sides; the fused backend shares the X
        pass (one multi-RHS kernel), the others run k separate chains."""
        from ..core.pattern import classify
        Y = np.asarray(Y, dtype=np.float64)
        k = Y.shape[1]
        sample = GenericPattern(
            X, Y[:, 0], v=None if V is None else V[:, 0],
            z=None if Z is None else Z[:, 0], alpha=alpha, beta=beta)
        self.ledger.instantiations[classify(sample)] += k
        if self.backend == "gpu-fused" and isinstance(X, CsrMatrix):
            from ..kernels.sparse_multi import fused_pattern_multi
            res = fused_pattern_multi(X, Y, V, Z, alpha, beta, ctx=self.ctx)
            self.ledger.charge("pattern", res.time_ms)
            return res.output
        out = np.empty((X.shape[1], k), dtype=np.float64)
        for j in range(k):
            p = GenericPattern(
                X, Y[:, j], v=None if V is None else V[:, j],
                z=None if Z is None else Z[:, j], alpha=alpha, beta=beta)
            if self.backend == "cpu":
                from ..core.plans import BidmatCpuPlan
                res = BidmatCpuPlan(self.cpu).evaluate(p)
            else:
                res = self.engine.evaluate_pattern(p, self._gpu_strategy())
            self.ledger.charge("pattern", res.time_ms)
            out[:, j] = res.output
        return out

    def xt_mv(self, X, y, alpha: float = 1.0) -> np.ndarray:
        """``alpha * X^T x y`` (y of length m) — also a Table-1 pattern."""
        p = GenericPattern(X, y, alpha=alpha, inner=False)
        self.ledger.instantiations[Instantiation.XT_Y] += 1
        if self.backend == "cpu":
            from ..core.plans import BidmatCpuPlan
            res = BidmatCpuPlan(self.cpu).evaluate(p)
        else:
            res = self.engine.evaluate_pattern(
                p, self._gpu_strategy(default_fused="fused"))
        self.ledger.charge("pattern", res.time_ms)
        return res.output

    # -------------------------------------------------------- expressions --
    def run_expression(self, expr, env: dict) -> np.ndarray:
        """Evaluate a DML expression (string or DAG) under ``fuse`` mode.

        * ``"off"`` — unfused: one kernel per DAG operator;
        * ``"pattern"`` — the hand-written Eq.-1 rewriter, then kernels;
        * ``"auto"`` — the cost-based fusion-plan optimizer
          (:mod:`repro.systemml.fusion`), plan-cached in the engine.

        All three modes are bit-identical for sparse matrices; model time
        is charged to the ledger per launched kernel.
        """
        from ..systemml.fusion import clone_dag, evaluate_dag
        from ..systemml.parser import parse_expression

        root = parse_expression(expr) if isinstance(expr, str) else expr
        if self.backend == "cpu":
            return np.asarray(root.eval(env))
        if self.fuse == "auto" and self.engine is not None:
            plan = self.engine.fusion_plan(
                root, env,
                expression=expr if isinstance(expr, str) else "")
            root = plan.lowered()
        elif self.fuse == "pattern":
            from ..systemml.rewriter import rewrite
            root = rewrite(clone_dag(root))
        return evaluate_dag(root, env, self.ctx, engine=self.engine,
                            ledger=self.ledger)

    # ------------------------------------------------------------------ mv --
    def mv(self, X, y) -> np.ndarray:
        """Plain ``X x y`` (cuSPARSE/cuBLAS are already optimal here)."""
        if self.backend == "cpu":
            m, n = X.shape
            if isinstance(X, CsrMatrix):
                ms = self.cpu.time_ms(X.nnz * (_D + _I) + m * _D,
                                      2 * X.nnz, 0.05)
                out = spmv(X, y)
            else:
                ms = self.cpu.time_ms(m * n * _D, 2 * m * n)
                out = np.asarray(X) @ y
            self.ledger.charge("mv", ms)
            return out
        res = csrmv(X, y, self.ctx) if isinstance(X, CsrMatrix) \
            else gemv_n(np.asarray(X, dtype=np.float64), y, self.ctx)
        self.ledger.charge("mv", res.time_ms)
        return res.output

    # --------------------------------------------------------------- BLAS-1 --
    def _l1(self, name: str, gpu_fn, cpu_bytes: float, cpu_flops: float,
            value):
        if self.backend == "cpu":
            self.ledger.charge("blas1",
                               self.cpu.time_ms(cpu_bytes, cpu_flops))
            return value
        res = gpu_fn()
        self.ledger.charge("blas1", res.time_ms)
        return res.output

    def axpy(self, a: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._l1("axpy", lambda: blas1.axpy(a, x, y, self.ctx),
                        3 * x.size * _D, 2 * x.size, a * x + y)

    def scal(self, a: float, x: np.ndarray) -> np.ndarray:
        return self._l1("scal", lambda: blas1.scal(a, x, self.ctx),
                        2 * x.size * _D, x.size, a * x)

    def ewmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._l1("ewmul", lambda: blas1.ewmul(x, y, self.ctx),
                        3 * x.size * _D, x.size, x * y)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return self._l1("dot", lambda: blas1.dot(x, y, self.ctx),
                        2 * x.size * _D, 2 * x.size, float(x @ y))

    def sumsq(self, x: np.ndarray) -> float:
        return self._l1("sumsq", lambda: blas1.sumsq(x, self.ctx),
                        x.size * _D, 2 * x.size, float(x @ x))

    def nrm2(self, x: np.ndarray) -> float:
        return self._l1("nrm2", lambda: blas1.nrm2(x, self.ctx),
                        x.size * _D, 2 * x.size, float(np.sqrt(x @ x)))
