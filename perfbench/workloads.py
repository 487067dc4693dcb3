"""The four workloads: inputs from the seed, set-up, timed phases, checks.

``SolveBench`` drives closed-loop Listing-1 solves (``lrcg``, ``sysml``);
``RequestBench`` drives open-loop windows of pattern requests alternating
with backlog bursts (``serve``, ``cluster``).  Both expose the same steps to
:mod:`run`: ``setup`` (timed, repeated), ``phase`` (timed, optionally under
a :class:`probes.Probe`), ``floor_ms``, ``verify`` and the metric
derivations.  Verification against the uncached references and the floor
measurement run outside every timed region.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.core.engine as core_engine
import repro.kernels.blas1 as blas1
import repro.serve.request as serve_request
import repro.systemml.fusion as fusion
from repro.cluster import ClusterConfig, ClusterRequest, ShardRouter
from repro.cluster.protocol import OP_EVAL, OP_RESULT, OP_UPLOAD
from repro.core.engine import PatternEngine
from repro.data.synthetic import kdd_like, regression_targets
from repro.ml import linreg_cg
from repro.ml.runtime import MLRuntime
from repro.serve import (AutoscaleConfig, PatternServer, ServeRequest,
                         ServerConfig, TierSpec)
from repro.sparse.generate import random_csr
from repro.sparse.ops import SpmvPlan
from repro.systemml.runner import SystemMLSession

import spec
import stats
from probes import Probe, SpanIndex
from verify import digest, reference_pattern, reference_solve

#: how long to wait for one future before counting the request as lost
RESULT_TIMEOUT_S = 60.0
#: requests whose bare-numerics floor is timed
FLOOR_SAMPLE = 200


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, plus the live child processes' peaks."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        for proc in multiprocessing.active_children():
            try:
                with open(f"/proc/{proc.pid}/status") as f:
                    kb += sum(int(line.split()[1]) for line in f
                              if line.startswith("VmHWM:"))
            except OSError:
                pass
    return kb / 1024.0


def _pin_process(pid: int, cpus: set[int]) -> None:
    """Pin every thread of a process: ``sched_setaffinity(pid)`` alone
    moves only its main thread.  Threads started later inherit the
    affinity of the thread that starts them."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:             # the thread ended meanwhile
            pass


def _kernel_counters(res) -> dict:
    """A KernelResult's simulated-device quantities, as span counters."""
    c = res.counters
    return {"model_ms": res.time_ms,
            "global_load_tx": c.global_load_transactions,
            "atomic_global_ops": c.atomic_global_ops,
            "launches": c.kernel_launches}


def _fingerprint_probes(probe: Probe) -> None:
    # the engine resolves ``fingerprint_matrix`` from its module on every
    # call (pin, unpinned lookups, fusion-plan keys); admission resolves
    # the name imported into ``repro.serve.request``
    probe.wrap(core_engine, "fingerprint_matrix", "engine.fingerprint",
               "engine", site="core.engine")
    probe.wrap(serve_request, "fingerprint_matrix", "engine.fingerprint",
               "engine", site="serve.request")


def _engine_caches(before: dict, after: dict) -> dict:
    """Cache behaviour between two ``EngineStats.to_dict()`` snapshots."""
    d = {k: after.get(k, 0) - before.get(k, 0)
         for k in ("calls", "plan_hits", "plan_misses", "artifact_hits",
                   "artifact_misses", "warm_calls", "profiles_built",
                   "evictions", "pinned_fingerprint_hits")}
    calls = d["calls"]
    return {
        "engine.pinned_hits": _per(d["pinned_fingerprint_hits"], calls),
        "engine.plan_hit_rate":
            _per(d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
        "engine.artifact_hit_rate": _per(
            d["artifact_hits"], d["artifact_hits"] + d["artifact_misses"]),
        "engine.warm_share": _per(d["warm_calls"], calls),
        "engine.profiles_built": 1e3 * _per(d["profiles_built"], calls),
        "engine.evictions": 1e3 * _per(d["evictions"], calls),
    }


def _engine_lookup(idx: SpanIndex, floor: float, fp_parent: str) -> dict:
    """Engine and simulated-device metrics from ``engine.evaluate`` spans.

    ``engine.fingerprint_ms`` counts only hashing inside the evaluation
    path (spans under ``fp_parent``); ``engine.fingerprints_per_eval``
    counts every hash the phase made, admission and pinning included.
    """
    evals = idx.count("engine.evaluate")
    ev_ms = stats.median(idx.ms("engine.evaluate"))
    spans = idx.by_name.get("engine.evaluate", [])

    def per_eval(key: str) -> float:
        # a median, so that the count repeats exactly however many
        # evaluations a time-bounded phase fits in
        return stats.median([s.counters[key] for s in spans])

    inside = [s.duration_ms for s in idx.by_name.get("engine.fingerprint", [])
              if idx.parent_name(s) == fp_parent]
    # median hash x hashes per evaluation: robust to a descheduled thread
    fp_ms = stats.median(inside) * _per(len(inside), evals)
    return {
        "engine.evaluate_ms": ev_ms,
        "engine.fingerprint_ms": fp_ms,
        "engine.fingerprints_per_eval":
            _per(idx.count("engine.fingerprint"), evals),
        "engine.self_ms": ev_ms - fp_ms - floor,
        "kernels.over_floor": _per(ev_ms, floor),
        "gpu.model_ms_per_eval": per_eval("model_ms"),
        "gpu.global_load_tx_per_eval": per_eval("global_load_tx"),
        "gpu.atomic_global_ops_per_eval": per_eval("atomic_global_ops"),
    }


@dataclass
class Outcome:
    """Attempted and failed operations of one run, failures by reason."""

    attempted: int = 0
    failed: int = 0
    by_reason: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1

    @property
    def mismatched(self) -> int:
        return self.by_reason.get("mismatch", 0)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed_share


@dataclass
class Phase:
    """One timed measurement: its operations and counters around it."""

    ops: list                     # every operation, in issue order
    before: dict
    after: dict
    rate: list = field(default_factory=list)      # requests only
    backlog: list = field(default_factory=list)   # requests: one per burst


# ------------------------------------------------------------------ solves
_reference_bench = None        # set in each verification worker process


def _init_reference(bench) -> None:
    global _reference_bench
    _reference_bench = bench


def _reference_digest(k: int) -> bytes:
    b = _reference_bench
    return digest(reference_solve(b.X, b.target(k), spec.CG_CAP,
                                  spec.CG_EPS)[0])


@dataclass
class Solve:
    k: int
    wall_s: float
    output: bytes               # digest of the fitted weights
    iterations: int
    mismatch: bool = False


class SolveBench:
    """Closed loop, one caller: back-to-back solves on one KDD-like X."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.limit_s = spec.SOLVE_LIMIT_S[name]
        self.X = kdd_like(scale=spec.KDD_SCALE, rng=seed)
        self.prog = None

    def target(self, k: int) -> np.ndarray:
        """Fresh ``regression_targets`` target of solve ``k`` (-1: set-up)."""
        return regression_targets(self.X, rng=[self.seed, k + 1])[0]

    def build(self):
        if self.name == "lrcg":
            return MLRuntime("gpu-fused")
        return SystemMLSession("gpu-fused", fuse="auto")

    def solve(self, prog, y) -> tuple[np.ndarray, int]:
        if self.name == "lrcg":
            res = linreg_cg(self.X, y, runtime=prog, eps=spec.CG_EPS,
                            max_iterations=spec.CG_CAP)
            return res.w, res.iterations
        rep = prog.run_linreg_cg(self.X, y, eps=spec.CG_EPS,
                                 max_iterations=spec.CG_CAP)
        return rep.w, rep.iterations

    def counters(self) -> dict:
        return {"engine": self.prog.engine.snapshot().to_dict()}

    def setup(self) -> tuple[list[float], list[Solve]]:
        times, solves = [], []
        for _ in range(spec.SETUP_REPEATS):
            t0 = time.monotonic()
            self.prog = self.build()
            w, it = self.solve(self.prog, self.target(-1))
            times.append(time.monotonic() - t0)
            solves.append(Solve(-1, times[-1], digest(w), it))
        return times, solves

    def phase(self, probe: Probe | None = None) -> Phase:
        before = self.counters()
        out: list[Solve] = []
        end = time.monotonic() + self.seconds
        k = 0
        while time.monotonic() < end:
            y = self.target(k)
            root = probe.root("bench.solve", rid=k) if probe else nullcontext()
            with root:
                t0 = time.monotonic()
                w, it = self.solve(self.prog, y)
                dt = time.monotonic() - t0
            out.append(Solve(k, dt, digest(w), it))
            k += 1
        return Phase(out, before, self.counters())

    def install(self, probe: Probe) -> None:
        eng = self.prog.engine
        if self.name == "lrcg":
            for m in ("pattern", "xt_mv", "axpy", "dot", "sumsq", "scal",
                      "upload", "download"):
                probe.wrap(self.prog, m, f"ml.{m}", "ml")
            for k in ("axpy", "dot", "sumsq", "scal"):
                probe.wrap(blas1, k, "gpu.blas1", "gpu", kernel=k,
                           after=lambda sp, a, kw, res:
                           sp.count(**_kernel_counters(res)))
            probe.wrap(eng, "evaluate_pattern", "engine.evaluate", "engine",
                       after=lambda sp, a, kw, res:
                       sp.count(**_kernel_counters(res)))
        else:
            def dag_launches(sp, a, kw, out):
                for res in kw.get("results") or ():
                    sp.count(launches=res.counters.kernel_launches)

            def eval_counters(sp, a, kw, res):
                # launches are counted once, on the enclosing DAG span
                counters = _kernel_counters(res)
                del counters["launches"]
                sp.count(**counters)

            probe.wrap(eng, "fusion_plan", "systemml.fusion_plan",
                       "systemml")
            probe.wrap(fusion, "evaluate_dag", "systemml.dag", "systemml",
                       after=dag_launches)
            probe.wrap(eng, "evaluate_pattern", "engine.evaluate", "engine",
                       after=eval_counters)
        _fingerprint_probes(probe)

    def floor_ms(self, phase: Phase) -> tuple[float, int]:
        """Bare SpMV -> SpMV^T -> axpy on X: the numeric floor of Eq. 1."""
        plan = SpmvPlan(self.X)
        rng = np.random.default_rng([self.seed, 1 << 20])
        vecs = [rng.normal(size=self.X.shape[1]) for _ in range(5)]
        samples = []
        for _ in range(3):
            for p in vecs:
                t0 = time.monotonic()
                q = plan.spmv_t(plan.spmv(p))
                spec.CG_EPS * p + q
                samples.append((time.monotonic() - t0) * 1e3)
        return stats.median(samples), len(samples)

    def verify(self, ops: list[Solve], outcome: Outcome) -> None:
        # one reference solve per target, two at a time: forked workers
        # inherit X instead of receiving it pickled
        ks = sorted({s.k for s in ops})
        with ProcessPoolExecutor(
                max_workers=2, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_reference, initargs=(self,)) as pool:
            refs = dict(zip(ks, pool.map(_reference_digest, ks)))
        for s in ops:
            outcome.attempted += 1
            if s.output != refs[s.k]:
                s.mismatch = True
                outcome.fail("mismatch")

    def end_to_end(self, phase: Phase) -> dict:
        solves = phase.ops
        walls = [s.wall_s for s in solves]
        ms = [w * 1e3 for w in walls]
        p99, q = stats.tail(ms)
        n = len(solves)
        met = sum(1 for s in solves
                  if not s.mismatch and s.wall_s <= self.limit_s)
        return {
            "solve_s": (stats.median(walls), n),
            "p50_ms": (stats.median(ms), n),
            "p99_ms": (p99, n, q),
            "slo_attainment": (met / n, n),
            "capacity_rps": (n / sum(walls), n),
        }

    @staticmethod
    def headline(e2e: dict) -> float:
        return e2e["solve_s"][0]

    def lag_ms(self, phase: Phase) -> None:
        return None                     # closed loop: nothing is due

    def per_layer(self, idx: SpanIndex, phase: Phase, floor: float) -> dict:
        iters = sum(s.iterations for s in phase.ops)
        blas = sum(sum(idx.ms(f"ml.{m}"))
                   for m in ("axpy", "dot", "sumsq", "scal"))
        dag_self = [s.duration_ms - idx.child_ms(s, ("engine.evaluate",))
                    for s in idx.by_name.get("systemml.dag", [])]
        launch_spans = (("engine.evaluate", "gpu.blas1")
                        if self.name == "lrcg" else ("systemml.dag",))
        launches = sum(idx.counter(n, "launches") for n in launch_spans)
        out = {
            "ml.iterations": iters / len(phase.ops),
            "gpu.launches_per_iter": _per(launches, iters),
            # wrapped layer time / solve wall time
            "bench.coverage": stats.median(
                [idx.child_ms(s) / s.duration_ms
                 for s in idx.by_name["bench.solve"]]),
        }
        if self.name == "lrcg":
            out["ml.pattern_ms"] = stats.median(idx.ms("ml.pattern"))
            out["ml.blas1_ms_per_iter"] = _per(blas, iters)
        else:
            out["systemml.fusion_plan_ms"] = stats.median(
                idx.ms("systemml.fusion_plan"))
            out["systemml.dag_ms"] = stats.median(idx.ms("systemml.dag"))
            out["systemml.dag_self_ms"] = stats.median(dag_self)
        out.update(_engine_lookup(idx, floor, "engine.evaluate"))
        out.update(_engine_caches(phase.before["engine"],
                                  phase.after["engine"]))
        return out

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- requests
@dataclass
class Sent:
    """One request as the generator sent it, and how it ended."""

    k: int
    matrix: int
    req: object
    tier: str
    limit_ms: float
    due: float = 0.0
    s0: float = 0.0             # generator called submit
    s1: float = 0.0             # submit returned
    fut: object = None
    resp: object = None
    resolved_at: float = 0.0
    mismatch: bool = False

    @property
    def ok(self) -> bool:
        return self.resp is not None and self.resp.status == "ok"

    @property
    def latency_ms(self) -> float:
        return (self.resolved_at - self.due) * 1e3

    @property
    def output(self) -> bytes | None:
        return digest(self.resp.result.output) if self.ok else None


class RequestBench:
    """Open-loop windows at ``spec.RATE_RPS`` alternating with backlog
    bursts, over many small matrices."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        self.mats = [random_csr(spec.MATRIX_ROWS, spec.MATRIX_COLS,
                                spec.MATRIX_SPARSITY, rng=[seed, i])
                     for i in range(spec.MATRICES)]
        self.tiers = {n: TierSpec(n, weight=w, rank=r, slo_ms=lim)
                      for r, (n, (_, lim, w)) in enumerate(spec.TIERS.items())}
        self.seconds = seconds
        rate = spec.RATE_RPS[name]
        zipf = 1.0 / np.arange(1, spec.MATRICES + 1) ** spec.ZIPF_S
        self._zipf = zipf / zipf.sum()
        rng = self._rng = np.random.default_rng([seed, 1 << 20])
        self.window_s = seconds * spec.RATE_SHARE / spec.BURSTS
        span = self.window_s * spec.BURSTS
        at = np.cumsum(rng.exponential(1.0 / rate,
                                       size=int(rate * span * 2) + 16))
        self.at = at[at < span]
        self.warm = [self._draw(i) for i in range(spec.MATRICES)]
        self.rate = [self._draw() for _ in self.at]
        self.backlog = [[self._draw() for _ in range(spec.BACKLOG)]
                        for _ in range(spec.BURSTS)]
        self.fps: list[str] = []
        self.prog = None
        #: id(request vector) -> root span id, for spans on server threads
        self._roots: dict[int, int] = {}
        self._floor_plans: dict[int, SpmvPlan] = {}
        #: the CPUs to give back in ``close`` after ``serve`` pinned itself
        self._cpus: set[int] | None = None

    def _draw(self, matrix: int | None = None) -> tuple:
        rng = self._rng
        if matrix is None:
            matrix = int(rng.choice(spec.MATRICES, p=self._zipf))
        y = rng.normal(size=spec.MATRIX_COLS)
        if self.name != "serve":
            return matrix, y, "", spec.CLUSTER_LIMIT_MS
        names = list(spec.TIERS)
        shares = np.array([spec.TIERS[n][0] for n in names])
        tier = names[int(rng.choice(len(names), p=shares / shares.sum()))]
        return matrix, y, tier, spec.TIERS[tier][1]

    def _sent(self, k: int, draw: tuple) -> Sent:
        matrix, y, tier, limit = draw
        if self.name == "serve":
            req = ServeRequest(self.mats[matrix], y, z=y, beta=spec.BETA,
                               strategy=spec.STRATEGY, tier=tier)
        else:
            req = ClusterRequest(self.fps[matrix], y, z=y, beta=spec.BETA,
                                 strategy=spec.STRATEGY)
        return Sent(k, matrix, req, tier, limit)

    def build(self):
        if self.name == "serve":
            # starts at the autoscaler's maximum: under this mix the wait /
            # service ratio (1 ms batch linger against ~1 ms of service)
            # crosses the stock scale-up threshold at any load, so a server
            # started at one worker scales up at a random moment mid-phase
            engine = PatternEngine(max_artifact_bytes=spec.SERVE_LRU_BYTES)
            return PatternServer(engine, ServerConfig(
                policy="edf", tiers=self.tiers, workers=2,
                queue_capacity=2 * spec.BACKLOG,
                autoscale=AutoscaleConfig(min_workers=1, max_workers=2)))
        router = ShardRouter(ClusterConfig(shards=2))
        # one shard worker per CPU: left to the OS, the two workers and the
        # router share the CPUs in a pattern that flips between runs, and
        # the backlog rate flipped with it between ~750 and ~1400 req/s
        cpus = sorted(os.sched_getaffinity(0))
        for i, proc in enumerate(multiprocessing.active_children()):
            _pin_process(proc.pid, {cpus[i % len(cpus)]})
        self.fps = [router.register(X) for X in self.mats]
        return router

    def counters(self) -> dict:
        """Server counters and engine stats (merged over shards, plus the
        router's own counters, for ``cluster``)."""
        snap = self.prog.metrics_snapshot()
        if self.name == "serve":
            return {"serve": snap["counters"], "engine": snap["engine"]}
        agg = snap["aggregate"]
        return {"serve": agg["counters"], "engine": agg.get("engine", {}),
                "router": snap["counters"]}

    def setup(self) -> tuple[list[float], list[Sent]]:
        if self.name == "serve":
            # the server's threads and the generator share one CPU: left
            # to the OS, their placement across two flipped the mean burst
            # drain between ~150 and ~235 ms from run to run; on one CPU,
            # four runs interleaved with those stayed within 229-254 ms
            self._cpus = os.sched_getaffinity(0)
            _pin_process(os.getpid(), {min(self._cpus)})
        times, warm = [], []
        for _ in range(spec.SETUP_REPEATS):
            if self.prog is not None:
                self.prog.stop()
            t0 = time.monotonic()
            self.prog = self.build()
            for i, draw in enumerate(self.warm):
                s = self._sent(i, draw)
                s.resp = self.prog.submit(s.req).result(RESULT_TIMEOUT_S)
                warm.append(s)
            times.append(time.monotonic() - t0)
        return times, warm

    def _send(self, s: Sent, probe: Probe | None) -> None:
        root = nullcontext()
        if probe is not None:
            root = probe.root("bench.request", rid=s.k)
            # registered before submit: a server thread may need it at once
            self._roots[id(s.req.y)] = root.id
        with root:
            s.s0 = time.monotonic()
            # looked up per call so that a probe's wrapper is honoured
            s.fut = self.prog.submit(s.req)
            s.s1 = time.monotonic()

    @staticmethod
    def _collect(sents: list[Sent]) -> None:
        for s in sents:
            try:
                s.resp = s.fut.result(RESULT_TIMEOUT_S)
                s.resolved_at = s.fut.resolved_at
            except TimeoutError:
                s.resp = None
            s.fut = None

    def phase(self, probe: Probe | None = None) -> Phase:
        """Fixed-rate windows alternating with backlog bursts."""
        self._roots.clear()
        before = self.counters()
        rate = [self._sent(k, d) for k, d in enumerate(self.rate)]
        window = self.window_s
        k = len(rate)
        backlog = []
        for i, burst in enumerate(self.backlog):
            start = time.monotonic() + 0.02 - i * window
            for s, at in zip(rate, self.at):
                if not i * window <= at < (i + 1) * window:
                    continue
                s.due = start + at
                delay = s.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                self._send(s, probe)
            self._collect([s for s in rate if s.fut is not None])
            sents = [self._sent(k + j, d) for j, d in enumerate(burst)]
            k += len(sents)
            t0 = time.monotonic()
            for s in sents:
                s.due = t0
                self._send(s, probe)
            self._collect(sents)
            backlog.append(sents)
        ops = rate + [s for burst in backlog for s in burst]
        return Phase(ops, before, self.counters(), rate, backlog)

    def install(self, probe: Probe) -> None:
        if self.name == "cluster":
            probe.wrap(self.prog, "submit", "cluster.router.submit",
                       "cluster")
            return
        tracer = probe.tracer

        def first_root(a, kw):
            reqs = a[0] if a else kw["requests"]
            return self._roots.get(id(reqs[0].y)) if reqs else None

        def per_request(sp, a, kw, results):
            reqs = a[0] if a else kw["requests"]
            for req, br in zip(reqs, results):
                tracer.add_span("engine.evaluate", "engine", br.started_at,
                                br.started_at + br.wall_ms / 1e3,
                                parent=self._roots.get(id(req.y)),
                                counters=_kernel_counters(br.result))

        probe.wrap(self.prog, "submit", "serve.submit", "serve")
        probe.wrap(self.prog.engine, "evaluate_many", "engine.evaluate_many",
                   "engine", parent=first_root, after=per_request)
        _fingerprint_probes(probe)

    def floor_ms(self, phase: Phase) -> tuple[float, int]:
        """Bare SpMV -> SpMV^T -> axpy on each sampled request's matrix."""
        samples = []
        for s in phase.rate[:FLOOR_SAMPLE]:
            plan = self._floor_plans.get(s.matrix)
            if plan is None:
                plan = self._floor_plans[s.matrix] = SpmvPlan(
                    self.mats[s.matrix])
            y = s.req.y
            t0 = time.monotonic()
            w = plan.spmv_t(plan.spmv(y))
            spec.BETA * y + w
            samples.append((time.monotonic() - t0) * 1e3)
        return stats.median(samples), len(samples)

    def verify(self, ops: list[Sent], outcome: Outcome) -> None:
        refs: dict[int, bytes] = {}
        for s in ops:
            outcome.attempted += 1
            if s.resp is None:
                outcome.fail("lost")
            elif s.resp.status != "ok":
                outcome.fail(s.resp.status)
            else:
                key = id(s.req.y)
                if key not in refs:
                    refs[key] = digest(reference_pattern(
                        self.mats[s.matrix], s.req.y, spec.BETA,
                        spec.STRATEGY))
                if s.output != refs[key]:
                    s.mismatch = True
                    outcome.fail("mismatch")

    def end_to_end(self, phase: Phase) -> dict:
        rate, backlog = phase.rate, phase.backlog
        lat = [s.latency_ms for s in rate if s.ok]
        p99, q = stats.tail(lat)
        met = sum(1 for s in rate
                  if s.ok and not s.mismatch and s.latency_ms <= s.limit_ms)
        drains, completed = [], 0
        for burst in backlog:
            done = [s.resolved_at for s in burst if s.ok]
            drains.append(max(done) - burst[0].due if done else float("inf"))
            completed += len(done)
        # pooled over the bursts, not a median: see spec.capacity_rps
        return {
            "solve_s": (stats.mean(drains), len(drains)),
            "p50_ms": (stats.median(lat), len(lat)),
            "p99_ms": (p99, len(lat), q),
            "slo_attainment": (met / len(rate), len(rate)),
            "capacity_rps": (completed / sum(drains), len(drains)),
        }

    @staticmethod
    def headline(e2e: dict) -> float:
        return e2e["p50_ms"][0]

    def lag_ms(self, phase: Phase) -> tuple[float, float, int]:
        """How far the generator sent behind schedule: (tail, q, n)."""
        lags = [(s.s0 - s.due) * 1e3 for s in phase.rate]
        p99, q = stats.tail(lags)
        return p99, q, len(lags)

    def per_layer(self, idx: SpanIndex, phase: Phase, floor: float) -> dict:
        rate = phase.rate
        done = [s for s in phase.ops if s.ok]
        # wait and service at the fixed rate (what latency is made of);
        # batch size while the backlog drains (what capacity_rps rests on)
        wait = [s.resp.wait_ms for s in rate if s.ok]
        service = [s.resp.service_ms for s in rate if s.ok]
        b, a = phase.before, phase.after
        served = {k: a["serve"][k] - b["serve"].get(k, 0)
                  for k in a["serve"]}
        out = {
            "serve.wait_ms_p50": stats.median(wait),
            "serve.wait_ms_p99": stats.tail(wait)[0],
            "serve.service_ms_p50": stats.median(service),
            "serve.batch_size_mean": stats.mean(
                [s.resp.batch_size for burst in phase.backlog
                 for s in burst if s.ok]),
            "serve.shed": served["shed"],
            "serve.timeout": served["timeout"],
            "serve.rejected": served["rejected"],
            "serve.errors": served["errors"],
            "serve.autoscale.scale_events":
                served["scale_up"] + served["scale_down"],
            "loadgen.lag_ms_p99": self.lag_ms(phase)[0],
            # share of each request's latency spent in the generator
            # (lag, submit) or reported by the server (wait, service)
            "bench.coverage": stats.median(
                [((s.s1 - s.due) * 1e3 + s.resp.wait_ms + s.resp.service_ms)
                 / s.latency_ms for s in rate if s.ok]),
        }
        out.update(_engine_caches(b["engine"], a["engine"]))
        if self.name == "serve":
            out["serve.submit_ms"] = stats.median(idx.ms("serve.submit"))
            out.update(_engine_lookup(idx, floor, "engine.evaluate_many"))
            out["gpu.launches_per_iter"] = _per(
                idx.counter("engine.evaluate", "launches"),
                idx.count("engine.evaluate"))
            inter = [s for s in rate if s.tier == "interactive"]
            out["serve.sched.interactive_p99_ms"] = stats.tail(
                [s.latency_ms for s in inter if s.ok])[0]
            out["serve.sched.batch_p99_ms"] = stats.tail(
                [s.latency_ms for s in rate if s.tier == "batch" and s.ok])[0]
            out["serve.sched.interactive_attainment"] = _per(
                sum(1 for s in inter if s.ok and s.latency_ms <= s.limit_ms),
                len(inter))
            return out
        routed = {k: a["router"][k] - b["router"].get(k, 0)
                  for k in a["router"]}
        transit = [s.resp.latency_ms - s.resp.wait_ms - s.resp.service_ms
                   for s in rate if s.ok]
        shards = [s.resp.shard for s in done]
        results = [s.resp.result for s in done]
        n = len(results)
        ev_ms = stats.median(service)
        out.update({
            "engine.evaluate_ms": ev_ms,
            "kernels.over_floor": _per(ev_ms, floor),
            "gpu.model_ms_per_eval":
                stats.median([r.time_ms for r in results]),
            "gpu.global_load_tx_per_eval": stats.median(
                [r.counters.global_load_transactions for r in results]),
            "gpu.atomic_global_ops_per_eval": stats.median(
                [r.counters.atomic_global_ops for r in results]),
            "gpu.launches_per_iter": _per(sum(
                r.counters.kernel_launches for r in results), n),
            "cluster.router.submit_ms":
                stats.median(idx.ms("cluster.router.submit")),
            "cluster.transit_ms_p50": stats.median(transit),
            "cluster.transit_ms_p99": stats.tail(transit)[0],
            "cluster.router.replica_share": _per(
                routed["routed_replica"],
                routed["routed_primary"] + routed["routed_replica"]
                + routed["failovers"]),
            "cluster.router.retries": routed["retries"],
            "cluster.max_shard_share":
                _per(max(shards.count(i) for i in set(shards)), n),
        })
        out.update(self.wire_bytes(done, a["router"]["uploads"]))
        return out

    def wire_bytes(self, done: list[Sent], uploads: int) -> dict:
        """Frame sizes computed the way ``protocol.send_msg`` pickles them:
        mean request and reply frames, and every upload of the run."""
        def size(msg) -> int:
            return len(pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL))

        req_b = [size(dict(s.req.to_wire(), op=OP_EVAL, rid=s.k))
                 for s in done]
        rep_b = [size({"op": OP_RESULT, "rid": s.k, "status": s.resp.status,
                       "result": s.resp.result, "reason": s.resp.reason,
                       "fingerprint": s.resp.fingerprint,
                       "wait_ms": s.resp.wait_ms,
                       "service_ms": s.resp.service_ms,
                       "batch_size": s.resp.batch_size,
                       "cached": s.resp.cached, "tier": s.resp.tier})
                 for s in done]
        up_b = [size({"op": OP_UPLOAD, "fingerprint": fp, "matrix": X,
                      "rid": 0}) for fp, X in zip(self.fps, self.mats)]
        return {"cluster.wire.request_bytes": stats.mean(req_b),
                "cluster.wire.reply_bytes": stats.mean(rep_b),
                "cluster.wire.upload_bytes": uploads * stats.mean(up_b)}

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(children=self.name == "cluster")

    def close(self) -> None:
        if self.prog is not None:
            self.prog.stop()
            self.prog = None
        if self._cpus:
            _pin_process(os.getpid(), self._cpus)
            self._cpus = None


def make(name: str, seed: int, seconds: float):
    cls = SolveBench if name in ("lrcg", "sysml") else RequestBench
    return cls(name, seed, seconds)
