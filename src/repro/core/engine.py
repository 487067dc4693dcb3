"""Cached plan/tuning session layer with batched evaluation.

Iterative ML algorithms (LR-CG, GLM, HITS) evaluate the *same* pattern on
the *same* matrix hundreds of times — only the vectors change.  A plain
:class:`~repro.core.executor.PatternExecutor` re-pays the per-call costs on
every ``evaluate()``: strategy selection, the §3.3 parameter derivation
(Eq. 4/5/6), dense-kernel code generation, and — for transpose-based routes —
the ``csr2csc`` conversion whose amortization Figure 2 quantifies.

:class:`PatternEngine` is the session object that amortizes all of that,
in the spirit of SystemML's fusion-plan caching (Boehm et al.,
arXiv:1801.00829):

* **fingerprinting** — inputs are keyed by a content digest of the matrix
  (values + indices + shape), the device spec, and the pattern's Table-1
  structure, so mutating the data or switching devices misses the cache;
* **plan memoization** — the resolved strategy and its analytically tuned
  ``VS/BS/C/TL`` parameters are reused on warm calls;
* **artifact memoization** — the explicit ``csr2csc`` transpose is built
  (and charged) once, then reused without further model-time cost; kernel
  profiles and planned-SpMV indices are built once per matrix;
* **pinning** — :meth:`~PatternEngine.pin` freezes a matrix and memoizes
  its fingerprint, so warm calls on it skip the content hash;
* **one identity per request** — :meth:`~PatternEngine.fingerprint` is the
  one place a matrix's identity is computed; a :class:`PatternRequest`
  that carries it is evaluated under it without hashing again;
* **LRU bounds** — plan entries and artifact bytes are capped, with
  explicit :meth:`~PatternEngine.invalidate` / :meth:`~PatternEngine.clear`;
* **batched evaluation** — :meth:`~PatternEngine.evaluate_many` runs
  independent requests through a thread pool with per-request wall timing;
* **accounting** — :meth:`~PatternEngine.stats` reports hits/misses, bytes
  cached, and amortized-vs-cold model time.

Numerical results are *never* cached: every call recomputes the output with
the (cached) plan, so engine results are bit-identical to uncached
:func:`repro.core.api.evaluate`.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from hashlib import blake2b

import numpy as np

from .. import trace
from ..kernels import codegen
from ..kernels.base import DEFAULT_CONTEXT, GpuContext, KernelResult, chain
from ..kernels.dense_baseline import profile_gemv
from ..kernels.dense_fused import profile_dense_fused
from ..kernels.sparse_baseline import csr2csc_kernel, profile_csrmv
from ..kernels.sparse_fused import profile_sparse_fused
from ..sparse.csr import CsrMatrix
from ..sparse.ops import SpmvPlan
from ..tuning.dense_params import DenseParams, tune_dense
from ..tuning.sparse_params import SparseParams, tune_sparse
from .executor import PatternExecutor
from .pattern import GenericPattern

_D = 8


# --------------------------------------------------------------- fingerprints
def fingerprint_matrix(X: CsrMatrix | np.ndarray) -> str:
    """Content digest of an operand matrix.

    Hashes the actual data (values, indices, shape), not object identity:
    mutating a matrix in place *must* produce a different fingerprint, and
    two structurally identical matrices share one.
    """
    h = blake2b(digest_size=16)
    if isinstance(X, CsrMatrix):
        h.update(b"csr")
        h.update(np.asarray(X.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(X.values))
        h.update(np.ascontiguousarray(X.col_idx))
        h.update(np.ascontiguousarray(X.row_off))
    else:
        Xd = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        h.update(b"dense")
        h.update(np.asarray(Xd.shape, dtype=np.int64).tobytes())
        h.update(Xd)
    return h.hexdigest()


def fingerprint_device(ctx: GpuContext) -> str:
    """Digest of the device spec plus the context's cache-behaviour flags."""
    h = blake2b(digest_size=8)
    h.update(repr(astuple(ctx.device)).encode())
    h.update(bytes([ctx.use_texture_cache, ctx.use_l2_reuse]))
    return h.hexdigest()


# -------------------------------------------------------------- cache entries
@dataclass
class PlanEntry:
    """A memoized fusion decision: resolved strategy + tuned parameters."""

    strategy: str
    params: SparseParams | DenseParams | None = None
    codegen_key: tuple[int, int, int] | None = None
    nbytes: int = 512            # rough footprint of the entry itself


@dataclass
class ArtifactEntry:
    """An expensive derived object (today: the csr2csc transpose)."""

    kind: str
    value: object
    nbytes: int
    build_ms: float              # model time charged when it was built


@dataclass
class PatternRequest:
    """One independent evaluation request for :meth:`evaluate_many`.

    ``fingerprint``, when set, is the identity of ``X`` as returned by
    :meth:`PatternEngine.fingerprint` when the request was admitted; the
    engine evaluates the request under it instead of hashing ``X`` again.
    A request is evaluated under the identity it was admitted with:
    mutating ``X`` between admission and evaluation is the caller's race.
    """

    X: CsrMatrix | np.ndarray
    y: np.ndarray
    v: np.ndarray | None = None
    z: np.ndarray | None = None
    alpha: float = 1.0
    beta: float = 0.0
    inner: bool = True
    strategy: str = "auto"
    fingerprint: str | None = None

    def pattern(self) -> GenericPattern:
        return GenericPattern(self.X, self.y, v=self.v, z=self.z,
                              alpha=self.alpha, beta=self.beta,
                              inner=self.inner)


@dataclass
class BatchResult:
    """Per-request outcome of a batched evaluation."""

    index: int
    result: KernelResult
    wall_ms: float               # host wall-clock spent on this request
    cached: bool                 # True when plan (and artifacts) were warm
    started_at: float = 0.0      # time.monotonic() when evaluation began


@dataclass
class EngineStats:
    """Snapshot of the engine's cache behaviour and amortization."""

    calls: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    transposes_built: int = 0
    profiles_built: int = 0          # kernel profiles (``profile:*``) only
    kernels_compiled: int = 0
    pinned_fingerprint_hits: int = 0
    fusion_plans_built: int = 0
    evictions: int = 0
    invalidations: int = 0
    plan_entries: int = 0
    artifact_bytes: int = 0
    bytes_cached: int = 0
    cold_calls: int = 0
    warm_calls: int = 0
    cold_model_ms: float = 0.0
    warm_model_ms: float = 0.0
    batches: int = 0
    batch_requests: int = 0
    batch_max_requests: int = 0
    batch_wall_ms: float = 0.0
    #: artifact-LRU composition: per-kind entry counts (snapshot-only)
    artifact_kinds: dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0

    @property
    def cold_ms_per_call(self) -> float:
        return self.cold_model_ms / self.cold_calls if self.cold_calls else 0.0

    @property
    def warm_ms_per_call(self) -> float:
        return self.warm_model_ms / self.warm_calls if self.warm_calls else 0.0

    @property
    def amortized_speedup(self) -> float:
        """Cold per-call model time over warm per-call model time."""
        if not (self.cold_calls and self.warm_calls and self.warm_ms_per_call):
            return 1.0
        return self.cold_ms_per_call / self.warm_ms_per_call

    def to_dict(self) -> dict:
        """JSON-able export with *sorted* keys at every level.

        The serving metrics endpoint and the cluster router's shard
        aggregation both merge these dicts; deterministic key order is what
        makes the merged output (and its tests) stable across shards and
        runs, so the keys are sorted here rather than at every call site.
        """
        out: dict = {f.name: getattr(self, f.name)
                     for f in fields(self) if f.name != "artifact_kinds"}
        out["plan_hit_rate"] = self.hit_rate
        out["artifact_kinds"] = {k: self.artifact_kinds[k]
                                 for k in sorted(self.artifact_kinds)}
        return {k: out[k] for k in sorted(out)}

    def report(self) -> str:
        lines = [
            f"calls:            {self.calls} "
            f"({self.cold_calls} cold, {self.warm_calls} warm)",
            f"plan cache:       {self.plan_hits} hits / "
            f"{self.plan_misses} misses (hit-rate {self.hit_rate:.3f}), "
            f"{self.plan_entries} entries, {self.evictions} evictions, "
            f"{self.invalidations} invalidations",
            f"artifacts:        {self.artifact_hits} hits / "
            f"{self.artifact_misses} misses, "
            f"{self.transposes_built} transposes built, "
            f"{self.profiles_built} profiles built, "
            f"{self.kernels_compiled} kernels compiled",
            f"pinned matrices:  {self.pinned_fingerprint_hits} "
            f"pinned-fingerprint hits",
            f"bytes cached:     {self.bytes_cached}",
            f"cold model-time:  {self.cold_ms_per_call:.4f} ms/call",
            f"warm model-time:  {self.warm_ms_per_call:.4f} ms/call",
            f"amortized speedup: {self.amortized_speedup:.2f}x",
        ]
        if self.batch_requests:
            lines.append(
                f"batched:          {self.batch_requests} requests in "
                f"{self.batches} batches (largest "
                f"{self.batch_max_requests}), "
                f"{self.batch_wall_ms:.2f} wall-ms total")
        if self.artifact_kinds:
            lines.append("artifact LRU composition:")
            for kind in sorted(self.artifact_kinds):
                lines.append(
                    f"  {kind}: {self.artifact_kinds[kind]} entries")
        return "\n".join(lines)


# --------------------------------------------------------------------- engine
class PatternEngine:
    """Session layer that caches fusion plans, tuning, and derived artifacts.

    Parameters
    ----------
    ctx:
        GPU context the session is bound to (device spec + cache flags).
    max_plans:
        LRU bound on memoized plan entries.
    max_artifact_bytes:
        LRU bound on the total bytes of cached artifacts (transposes).
    check:
        Verify every result against the NumPy reference (slow; tests only).
    """

    def __init__(self, ctx: GpuContext | None = None, max_plans: int = 256,
                 max_artifact_bytes: int = 256 * 1024 * 1024,
                 check: bool = False):
        self.ctx = ctx or DEFAULT_CONTEXT
        self.check = check
        self.executor = PatternExecutor(self.ctx)
        self.max_plans = max_plans
        self.max_artifact_bytes = max_artifact_bytes
        self._plans: OrderedDict[tuple, PlanEntry] = OrderedDict()
        self._artifacts: OrderedDict[tuple, ArtifactEntry] = OrderedDict()
        self._artifact_bytes = 0
        self._lock = threading.RLock()
        self._device_fp = fingerprint_device(self.ctx)
        self._stats = EngineStats()
        #: pinned matrices: id(X) -> (weakref, fingerprint, frozen arrays)
        self._pinned: dict[int, tuple] = {}

    # ------------------------------------------------------------ public API
    def evaluate(self, X: CsrMatrix | np.ndarray, y: np.ndarray,
                 v: np.ndarray | None = None, z: np.ndarray | None = None,
                 alpha: float = 1.0, beta: float = 0.0,
                 strategy: str = "auto", inner: bool = True) -> KernelResult:
        """Evaluate Eq. 1 through the session cache (API mirror of
        :func:`repro.core.api.evaluate`)."""
        p = GenericPattern(X, y, v=v, z=z, alpha=alpha, beta=beta,
                           inner=inner)
        return self.evaluate_pattern(p, strategy)

    def evaluate_pattern(self, p: GenericPattern,
                         strategy: str = "auto") -> KernelResult:
        """Evaluate a prepared pattern; plans/artifacts come from the cache."""
        res, _ = self._evaluate(p, strategy)
        return res

    def evaluate_many(self, requests, max_workers: int | None = None
                      ) -> list[BatchResult]:
        """Run independent pattern evaluations through a thread pool.

        ``requests`` is a sequence of :class:`PatternRequest`, mappings with
        the same field names, or prepared :class:`GenericPattern` objects.
        A request that carries a ``fingerprint`` is evaluated under it
        without hashing its matrix.  Results come back in request order,
        each with its own wall-clock timing and a flag saying whether it
        was served warm.
        """
        items = [self._coerce_request(r) for r in requests]
        if not items:
            return []
        workers = max_workers or min(8, len(items))

        batch_span = trace.span("batch", "engine",
                                requests=len(items), workers=workers)
        with batch_span:
            parent = trace.current_id()

            def run(idx_req):
                idx, (p, strategy, mat_fp) = idx_req
                started = time.monotonic()
                t0 = time.perf_counter()
                with trace.span("request", "engine", parent=parent,
                                index=idx):
                    res, cached = self._evaluate(p, strategy, mat_fp)
                wall = (time.perf_counter() - t0) * 1e3
                return BatchResult(idx, res, wall, cached, started)

            t0 = time.perf_counter()
            if workers <= 1:
                out = [run(item) for item in enumerate(items)]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    out = list(pool.map(run, enumerate(items)))
            batch_wall = (time.perf_counter() - t0) * 1e3
        with self._lock:
            self._stats.batches += 1
            self._stats.batch_requests += len(items)
            self._stats.batch_max_requests = max(
                self._stats.batch_max_requests, len(items))
            self._stats.batch_wall_ms += batch_wall
        return out

    def fusion_plan(self, root, env: dict, node_budget: int = 32,
                    max_exhaustive: int = 12, expression: str = ""):
        """Optimize an expression DAG through the session's artifact cache.

        Plans are keyed by :func:`~repro.systemml.fusion.fingerprint_dag`
        (DAG topology + matrix content + vector lengths + device), so an
        iterative solver enumerates and costs a DAG once and replays the
        cached :class:`~repro.systemml.fusion.FusionPlan` — including its
        lazily lowered DAG — on every subsequent iteration.  Plans live in
        the byte-bounded artifact LRU; note :meth:`invalidate` keys on the
        *matrix* fingerprint and does not match plan keys, so stale plans
        age out of the LRU rather than being dropped eagerly.
        """
        from ..systemml.fusion import fingerprint_dag, optimize

        dag_fp = fingerprint_dag(root, env, self._device_fp)
        akey = (dag_fp, self._device_fp, "fusion-plan")
        with self._lock:
            art = self._artifacts.get(akey)
            if art is not None:
                self._artifacts.move_to_end(akey)
                self._stats.artifact_hits += 1
                return art.value
        with trace.span("fusion-plan", "engine") as sp:
            plan = optimize(root, env, ctx=self.ctx, engine=self,
                            node_budget=node_budget,
                            max_exhaustive=max_exhaustive,
                            expression=expression)
            sp.set("search", plan.search)
            sp.count(candidates=len(plan.candidates),
                     chosen=len(plan.chosen))
        # the plan object is small; charge a nominal footprint to the LRU
        self._store_profile(akey, "fusion-plan", plan, 4096)
        with self._lock:
            self._stats.fusion_plans_built += 1
        return plan

    def snapshot(self) -> EngineStats:
        """Consistent point-in-time snapshot of counters and cache sizes.

        The whole snapshot — counter copy, LRU entry count, and the byte
        totals — is assembled while holding the cache lock, so it can never
        observe a cache mid-eviction (counters from before an eviction,
        sizes from after).  Concurrent ``evaluate``/``evaluate_many``
        callers are safe; see ``tests/test_engine_concurrency.py``.
        """
        with self._lock:
            s = EngineStats(**{f: getattr(self._stats, f)
                               for f in self._stats.__dataclass_fields__})
            s.plan_entries = len(self._plans)
            s.artifact_bytes = self._artifact_bytes
            s.bytes_cached = (self._artifact_bytes
                              + sum(e.nbytes for e in self._plans.values()))
            kinds: dict[str, int] = {}
            for e in self._artifacts.values():
                kinds[e.kind] = kinds.get(e.kind, 0) + 1
            s.artifact_kinds = kinds
        return s

    def stats(self) -> EngineStats:
        """Alias of :meth:`snapshot` (kept for the PR-1 API)."""
        return self.snapshot()

    def invalidate(self, X: CsrMatrix | np.ndarray) -> int:
        """Drop every plan and artifact derived from ``X``; returns count.

        Also releases any pin on ``X`` (restoring writability), so
        ``invalidate`` doubles as "I am about to mutate this matrix".
        """
        self.unpin(X)
        fp = fingerprint_matrix(X)
        removed = 0
        with self._lock:
            for key in [k for k in self._plans if k[0] == fp]:
                del self._plans[key]
                removed += 1
            for key in [k for k in self._artifacts if k[0] == fp]:
                self._artifact_bytes -= self._artifacts[key].nbytes
                del self._artifacts[key]
                removed += 1
            self._stats.invalidations += removed
        return removed

    def clear(self) -> None:
        """Empty both caches (counters are preserved)."""
        with self._lock:
            self._plans.clear()
            self._artifacts.clear()
            self._artifact_bytes = 0

    # ------------------------------------------------------ matrix identity
    def fingerprint(self, X: CsrMatrix | np.ndarray) -> str:
        """Identity of ``X`` in this engine's caches.

        The pin memo while ``X`` is pinned, one content hash otherwise.
        Serving paths compute it once per request, at admission, and
        carry it in :attr:`PatternRequest.fingerprint`, so evaluation does
        not hash the matrix a second time.
        """
        return self._fingerprint(X)[0]

    def pin(self, X: CsrMatrix | np.ndarray) -> str:
        """Freeze ``X`` and memoize its content fingerprint.

        Warm calls on a pinned matrix skip the full content hash, which
        on an iterative solver's warm path costs more host time than the
        numeric kernel itself.  Soundness comes from freezing: every
        backing array is marked read-only, so the in-place mutation that
        fingerprinting exists to detect raises instead of silently
        invalidating the memo.  :meth:`unpin` (or :meth:`invalidate`)
        makes writable again exactly the arrays the pin froze, so an
        array the caller had frozen stays frozen.  Unpinned matrices keep
        the full hash-per-call semantics unchanged.  A sparse ``X`` is
        held weakly and its memo drops itself when ``X`` dies; that
        callback reaches the engine only weakly, so a pin never keeps a
        dropped engine (and its caches) alive.
        """
        arrays = self._backing_arrays(X)
        froze = [a for a in arrays if a.flags.writeable]
        for a in froze:
            a.flags.writeable = False
        fp = fingerprint_matrix(X)
        key = id(X)
        engine = weakref.ref(self)

        def forget(_):
            live = engine()
            if live is not None:
                live._pinned.pop(key, None)

        try:
            ref = weakref.ref(X, forget)
        except TypeError:
            # ndarrays aren't weakref-able; a strong ref keeps the memo's
            # id() stable (the pin holds the matrix alive until unpin)
            ref = (lambda obj: (lambda: obj))(X)
        with self._lock:
            # a broken earlier pin of X, or a racing one, froze arrays too:
            # keep them, so that unpin thaws every array a pin froze
            prior = self._pinned.get(key)
            if prior is not None and prior[0]() is X:
                froze += [a for a in prior[3]
                          if all(a is not b for b in froze)]
            # analyze: allow(lock-drop-reentry)
            self._pinned[key] = (ref, fp, arrays, tuple(froze))
        return fp

    def unpin(self, X: CsrMatrix | np.ndarray) -> None:
        """Drop the fingerprint memo and thaw the arrays the pin froze."""
        with self._lock:
            entry = self._pinned.pop(id(X), None)
        if entry is not None:
            for a in entry[3]:
                try:
                    a.flags.writeable = True
                except ValueError:       # view of a buffer we do not own
                    pass

    def is_pinned(self, X: CsrMatrix | np.ndarray) -> bool:
        """True while ``X`` holds an intact pin on this engine."""
        with self._lock:
            return self._memo(X) is not None

    @staticmethod
    def _backing_arrays(X: CsrMatrix | np.ndarray) -> tuple[np.ndarray, ...]:
        if isinstance(X, CsrMatrix):
            return (X.values, X.col_idx, X.row_off)
        return (np.asarray(X),)

    def _memo(self, X: CsrMatrix | np.ndarray) -> str | None:
        """The pin memo of ``X`` while its pin is intact (lock held).

        Intact means same object, same backing arrays, still read-only.
        Anything else — including a rebind of ``X.values`` to a fresh
        writable array — yields ``None``.  A broken pin's entry stays
        until :meth:`unpin`, which still thaws what the pin froze.
        """
        entry = self._pinned.get(id(X))
        if entry is None or entry[0]() is not X:
            return None
        current = self._backing_arrays(X)
        if len(current) != len(entry[2]) or not all(
                c is a and not a.flags.writeable
                for c, a in zip(current, entry[2])):
            return None
        return entry[1]

    def _fingerprint(self, X: CsrMatrix | np.ndarray) -> tuple[str, bool]:
        """Content fingerprint; memoized (no hashing) for pinned matrices.

        Returns ``(fingerprint, was_pinned)``; see :meth:`_memo` for when
        the memo is honoured.
        """
        with self._lock:
            fp = self._memo(X)
            if fp is not None:
                self._stats.pinned_fingerprint_hits += 1
                return fp, True
        return fingerprint_matrix(X), False

    # -------------------------------------------------------------- internals
    @staticmethod
    def _coerce_request(r) -> tuple[GenericPattern, str, str | None]:
        if isinstance(r, GenericPattern):
            return r, "auto", None
        if isinstance(r, dict):
            r = PatternRequest(**r)
        if isinstance(r, PatternRequest):
            return r.pattern(), r.strategy, r.fingerprint
        raise TypeError(
            "requests must be PatternRequest, GenericPattern, or dict, "
            f"got {type(r).__name__}")

    def _plan_key(self, p: GenericPattern, mat_fp: str,
                  strategy: str) -> tuple:
        return (mat_fp, self._device_fp, p.is_sparse, p.inner,
                p.v is not None, p.beta != 0.0, strategy)

    def _evaluate(self, p: GenericPattern, strategy: str,
                  mat_fp: str | None = None) -> tuple[KernelResult, bool]:
        span = trace.span("evaluate", "engine", strategy=strategy)
        with span:
            return self._evaluate_traced(p, strategy, mat_fp, span)

    def _evaluate_traced(self, p: GenericPattern, strategy: str,
                         mat_fp: str | None,
                         span) -> tuple[KernelResult, bool]:
        if mat_fp is None:               # not carried in from admission
            with trace.span("fingerprint", "engine") as fsp:
                mat_fp, pinned = self._fingerprint(p.X)
                fsp.set("pinned", pinned)
        key = self._plan_key(p, mat_fp, strategy)
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
                self._stats.plan_hits += 1
        plan_hit = entry is not None
        if entry is None:
            entry = self._resolve(p, strategy)
            with self._lock:
                self._stats.plan_misses += 1
                # racing resolves build identical plans for the same key, so
                # the re-insert after dropping the lock is idempotent
                # analyze: allow(lock-drop-reentry)
                self._plans[key] = entry
                while len(self._plans) > self.max_plans:
                    self._plans.popitem(last=False)
                    self._stats.evictions += 1

        res, artifacts_warm = self._execute(p, entry, mat_fp)
        cached = plan_hit and artifacts_warm
        span.set("plan", "hit" if plan_hit else "miss")
        span.set("cached", cached)
        span.set("resolved_strategy", entry.strategy)

        if self.check:
            ref = p.reference()
            if not np.allclose(res.output, ref, rtol=1e-9,
                               atol=1e-9 * max(1.0, float(
                                   np.abs(ref).max(initial=0.0)))):
                raise AssertionError(
                    f"engine strategy {entry.strategy!r} diverged from "
                    f"reference "
                    f"(max err {np.abs(res.output - ref).max():.3g})")

        with self._lock:
            self._stats.calls += 1
            if cached:
                self._stats.warm_calls += 1
                self._stats.warm_model_ms += res.time_ms
            else:
                self._stats.cold_calls += 1
                self._stats.cold_model_ms += res.time_ms
        return res, cached

    def _resolve(self, p: GenericPattern, strategy: str) -> PlanEntry:
        """Cold path: pick the plan and derive its launch parameters."""
        with trace.span("plan", "engine", requested=strategy) as sp:
            resolved = strategy
            if resolved == "auto":
                resolved = self.executor.choose_strategy(p)
            self.executor.plan_for(p, resolved)      # validates the name
            sp.set("strategy", resolved)
            params: SparseParams | DenseParams | None = None
            ck = None
            if resolved == "fused":
                if p.is_sparse:
                    with trace.span("tune", "engine"):
                        params = tune_sparse(p.X, self.ctx.device)
                elif p.inner:
                    with trace.span("tune", "engine"):
                        params = tune_dense(*p.shape, device=self.ctx.device)
                    ck = (params.padded_n, params.vector_size,
                          params.thread_load)
                    _, compiled = codegen.ensure_kernel(*ck)
                    if compiled:
                        with self._lock:
                            self._stats.kernels_compiled += 1
            return PlanEntry(strategy=resolved, params=params,
                             codegen_key=ck)

    def _execute(self, p: GenericPattern, entry: PlanEntry,
                 mat_fp: str) -> tuple[KernelResult, bool]:
        """Run the memoized plan; returns (result, artifacts_were_warm)."""
        plan = self.executor.plan_for(p, entry.strategy)
        if entry.strategy == "fused":
            prof, prof_warm = self._profile_for(p, entry, mat_fp)
            return plan.evaluate(p, params=entry.params,
                                 profile=prof), prof_warm
        if entry.strategy == "cusparse-explicit" and p.is_sparse:
            XT, trans_res, warm = self._transpose_for(p.X, mat_fp)
            if p.inner:
                x_prof, x_warm = self._profile_for(p, entry, mat_fp)
            else:
                x_prof, x_warm = None, True
            xt_prof, xt_warm = self._xt_profile_for(XT, mat_fp)
            res = plan.evaluate(p, xt=XT, profile=x_prof,
                                xt_profile=xt_prof)
            if trans_res is not None:
                # the one-time conversion is charged to the cold call
                res = chain(trans_res, res, name=res.name)
            return res, warm and x_warm and xt_warm
        prof, prof_warm = self._profile_for(p, entry, mat_fp)
        if prof is None:
            return plan.evaluate(p), prof_warm
        return plan.evaluate(p, profile=prof), prof_warm

    # ------------------------------------------------------- kernel profiles
    def _profile_kind(self, p: GenericPattern, strategy: str) -> str | None:
        """Artifact key suffix for the profile a (pattern, strategy) needs.

        One profile serves a whole kernel family, so distinct plan keys that
        route to the same kernels (e.g. ``cusparse`` and ``bidmat-gpu`` over
        one sparse matrix) share a single cached template.
        """
        if strategy == "bidmat-cpu":
            return None                      # roofline model, no counters
        if p.is_sparse:
            if strategy == "fused":
                return "profile:fused-sparse"
            return "profile:csrmv"
        if strategy == "fused" and p.inner:
            return "profile:fused-dense"
        return "profile:gemv"

    def _profile_for(self, p: GenericPattern, entry: PlanEntry,
                     mat_fp: str) -> tuple[object | None, bool]:
        """Fetch or build the kernel profile for this plan entry.

        Returns ``(profile_or_None, was_warm)``.  Profiles live in the same
        LRU as the csr2csc transpose, keyed by the matrix's *content*
        fingerprint — mutating the matrix in place produces a different
        fingerprint and therefore a fresh inspection, never a stale template.
        """
        kind = self._profile_kind(p, entry.strategy)
        if kind is None:
            return None, True
        akey = (mat_fp, self._device_fp, kind)
        with self._lock:
            art = self._artifacts.get(akey)
            if art is not None:
                self._artifacts.move_to_end(akey)
                self._stats.artifact_hits += 1
                return art.value, True
        with trace.span("profile-build", "engine", kind=kind) as sp:
            if kind == "profile:fused-sparse":
                splan = self._spmv_plan_for(p.X, mat_fp)
                prof = profile_sparse_fused(p.X, self.ctx, entry.params,
                                            spmv_plan=splan)
            elif kind == "profile:csrmv":
                splan = self._spmv_plan_for(p.X, mat_fp)
                prof = profile_csrmv(p.X, self.ctx, spmv_plan=splan)
            elif kind == "profile:fused-dense":
                prof = profile_dense_fused(np.asarray(p.X, dtype=np.float64),
                                           self.ctx, entry.params)
            else:
                prof = profile_gemv(p.X, self.ctx)
            sp.count(bytes_built=int(prof.nbytes))
        self._store_profile(akey, kind, prof, int(prof.nbytes))
        return prof, False

    def _xt_profile_for(self, XT: CsrMatrix,
                        mat_fp: str) -> tuple[object, bool]:
        """Profile for the steady-state ``csrmv`` over the cached transpose.

        Keyed by the *original* matrix's fingerprint (the transpose is a
        derived artifact under the same key family), so invalidation drops
        both together.
        """
        akey = (mat_fp, self._device_fp, "profile:xt-csrmv")
        with self._lock:
            art = self._artifacts.get(akey)
            if art is not None:
                self._artifacts.move_to_end(akey)
                self._stats.artifact_hits += 1
                return art.value, True
        with trace.span("profile-build", "engine",
                        kind="profile:xt-csrmv") as sp:
            prof = profile_csrmv(XT, self.ctx)
            sp.count(bytes_built=int(prof.nbytes))
        self._store_profile(akey, "profile:xt-csrmv", prof,
                            int(prof.nbytes))
        return prof, False

    def _spmv_plan_for(self, X: CsrMatrix, mat_fp: str) -> SpmvPlan:
        """Shared planned-SpMV artifact (reduceat starts + row expansion).

        Several profile kinds over the same matrix reference one plan, so
        the O(nnz) row-expansion index is materialized once per matrix.
        """
        akey = (mat_fp, self._device_fp, "spmv-plan")
        with self._lock:
            art = self._artifacts.get(akey)
            if art is not None:
                self._artifacts.move_to_end(akey)
                self._stats.artifact_hits += 1
                return art.value
        with trace.span("profile-build", "engine", kind="spmv-plan") as sp:
            plan = SpmvPlan(X)
            sp.count(bytes_built=int(plan.nbytes), nnz=X.nnz)
        self._store_profile(akey, "spmv-plan", plan, int(plan.nbytes))
        return plan

    def _store_profile(self, akey: tuple, kind: str, value: object,
                       nbytes: int) -> None:
        with self._lock:
            if akey in self._artifacts:       # lost a build race: keep first
                return
            self._stats.artifact_misses += 1
            if kind.startswith("profile:"):   # not spmv- or fusion-plans
                self._stats.profiles_built += 1
            self._artifacts[akey] = ArtifactEntry(kind, value, nbytes, 0.0)
            self._artifact_bytes += nbytes
            while (self._artifact_bytes > self.max_artifact_bytes
                   and len(self._artifacts) > 1):
                _, old = self._artifacts.popitem(last=False)
                self._artifact_bytes -= old.nbytes
                self._stats.evictions += 1

    def _transpose_for(self, X: CsrMatrix, mat_fp: str
                       ) -> tuple[CsrMatrix, KernelResult | None, bool]:
        akey = (mat_fp, self._device_fp, "csr2csc")
        with self._lock:
            art = self._artifacts.get(akey)
            if art is not None:
                self._artifacts.move_to_end(akey)
                self._stats.artifact_hits += 1
                return art.value, None, True
        with trace.span("transpose-build", "engine") as sp:
            trans_res = csr2csc_kernel(X, self.ctx)
            csc = trans_res.output
            XT = CsrMatrix((X.n, X.m), csc.values, csc.row_idx, csc.col_off)
            nbytes = int(XT.values.nbytes + XT.col_idx.nbytes
                         + XT.row_off.nbytes)
            sp.count(bytes_built=nbytes, nnz=X.nnz)
        with self._lock:
            existing = self._artifacts.get(akey)
            if existing is not None:          # lost a build race: keep first
                return existing.value, trans_res, False
            self._stats.artifact_misses += 1
            self._stats.transposes_built += 1
            # keep-first recheck above makes the dropped-lock rebuild safe
            # analyze: allow(lock-drop-reentry)
            self._artifacts[akey] = ArtifactEntry(
                "csr2csc", XT, nbytes, trans_res.time_ms)
            self._artifact_bytes += nbytes
            while (self._artifact_bytes > self.max_artifact_bytes
                   and len(self._artifacts) > 1):
                _, old = self._artifacts.popitem(last=False)
                self._artifact_bytes -= old.nbytes
                self._stats.evictions += 1
        return XT, trans_res, False
