"""Builder for the PatternEngine amortization experiment.

Models the iterative-workload scenario the session cache exists for: 100
LR-CG-style iterations (the hot statement of Listing 1, ``q = X^T (X p) +
eps * p``, with ``p`` changing every iteration) on one fixed matrix.

* **cold** — every iteration pays the full per-call price, exactly like
  calling :func:`repro.core.api.evaluate` afresh: plan selection, §3.3
  tuning, and (for the explicit-transpose route) the ``csr2csc`` conversion
  Figure 2 shows must be amortized.
* **warm** — the same series through one :class:`~repro.core.engine.
  PatternEngine` session: the first call is cold, the rest reuse the cached
  plan, parameters, and transpose.

A serial-vs-batched wall-clock comparison of :meth:`evaluate_many` goes in
the result notes (wall time, not model time — threads do not change the
simulated device).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.api import evaluate as evaluate_uncached
from ..core.engine import PatternEngine, PatternRequest
from ..data.synthetic import SWEEP_ROWS, SWEEP_SPARSITY, synthetic_sparse
from ..kernels.base import DEFAULT_CONTEXT, GpuContext
from .harness import ExperimentResult, register, resolve_scale

ITERATIONS = 100
STRATEGIES = ("fused", "cusparse", "cusparse-explicit")


@register("engine")
def engine_amortization(scale: float | None = None,
                        ctx: GpuContext = DEFAULT_CONTEXT,
                        iterations: int = ITERATIONS) -> ExperimentResult:
    """Cold-vs-warm model time for an LR-CG-style iteration series."""
    scale = resolve_scale(0.2) if scale is None else scale
    res = ExperimentResult(
        "engine",
        f"PatternEngine session cache: {iterations} LR-CG-style iterations "
        "(q = X^T(Xp) + eps*p), cold per-call vs warm session",
        ("strategy", "cold_call_ms", "warm_call_ms", "cold_total_ms",
         "warm_total_ms", "amortized_x", "hit_rate", "transposes_built"),
    )
    m = max(1000, int(SWEEP_ROWS * scale))
    X = synthetic_sparse(1024, m=m, sparsity=SWEEP_SPARSITY, rng=99)
    rng = np.random.default_rng(7)
    vectors = [rng.normal(size=X.n) for _ in range(iterations)]

    for strategy in STRATEGIES:
        # cold: a fresh, uncached evaluation per iteration (api.evaluate)
        cold_total = sum(
            evaluate_uncached(X, p, z=p, beta=1e-3, strategy=strategy,
                              ctx=ctx).time_ms
            for p in vectors)

        # warm: the same series through one engine session
        engine = PatternEngine(ctx)
        warm_total = sum(
            engine.evaluate(X, p, z=p, beta=1e-3, strategy=strategy).time_ms
            for p in vectors)
        st = engine.stats()
        res.add(strategy, st.cold_ms_per_call, st.warm_ms_per_call,
                cold_total, warm_total, cold_total / warm_total,
                st.hit_rate, st.transposes_built)

    # serial vs batched wall clock through the thread pool
    engine = PatternEngine(ctx)
    reqs = [PatternRequest(X, p, z=p, beta=1e-3, strategy="fused")
            for p in vectors[:16]]
    t0 = time.perf_counter()
    engine.evaluate_many(reqs, max_workers=1)
    serial_wall = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    engine.evaluate_many(reqs, max_workers=4)
    batched_wall = (time.perf_counter() - t0) * 1e3
    res.notes.append(
        f"batched evaluation (16 requests, wall-clock): serial "
        f"{serial_wall:.1f} ms vs 4 workers {batched_wall:.1f} ms "
        f"({serial_wall / max(batched_wall, 1e-9):.2f}x)")
    res.notes.append(
        "cold = fresh api.evaluate() per iteration (plan + tuning + "
        "csr2csc re-paid every call); warm = one PatternEngine session "
        "(first call cold, rest cached) — the Fig. 2 amortization claim "
        "as a session-layer guarantee")
    return res


@register("profile")
def profile_amortization(scale: float | None = None,
                         ctx: GpuContext = DEFAULT_CONTEXT,
                         iterations: int = 30) -> ExperimentResult:
    """Kernel-profile amortization on the Fig. 3 sparse sweep workload.

    Wall-clock (host) cost of the *counter model* per call, across three
    warmth levels of the fused strategy:

    * ``cold_full`` — fresh :func:`repro.core.api.evaluate` per call: strategy
      choice, §3.3 tuning, and the full structure inspection every iteration;
    * ``warm_unprofiled`` — the pre-profile session state: tuned parameters
      are reused but the kernel still rebuilds its counter template (the
      O(nnz) row-segment/gather inspection) on every call;
    * ``warm_profiled`` — the template and the planned SpMV come from the
      session cache; the call only closes the template over the scalars.

    ``model_overhead_ms`` is the per-call wall time minus the numeric floor
    (the planned ``spmv``/``spmv_t`` arithmetic timed on its own).  The
    end-to-end rows compare the full engine warm path (content fingerprint +
    profiled call) against the equivalent pre-profile warm path (fingerprint
    + unprofiled call), and against the same engine path with ``X`` pinned
    (:meth:`~repro.core.engine.PatternEngine.pin`: memoized fingerprint, no
    per-call content hash).

    The series are timed round-robin, best of three rounds: each round
    calls every series once, starting one series later than the round
    before, so host drift over the run reaches every series alike instead
    of deciding the ratios between them.
    """
    from ..core.engine import fingerprint_matrix
    from ..core.pattern import GenericPattern
    from ..core.plans import FusedPlan
    from ..kernels.sparse_fused import profile_sparse_fused
    from ..tuning.sparse_params import tune_sparse

    scale = resolve_scale(0.2) if scale is None else scale
    res = ExperimentResult(
        "profile",
        f"Kernel-profile amortization: {iterations} fused-pattern calls "
        "(q = X^T(Xy) + beta*y) on the Fig. 3 sparse sweep matrix",
        ("series", "per_call_ms", "model_overhead_ms"),
    )
    m = max(1000, int(SWEEP_ROWS * scale))
    X = synthetic_sparse(1024, m=m, sparsity=SWEEP_SPARSITY, rng=99)
    rng = np.random.default_rng(7)
    vectors = [rng.normal(size=X.n) for _ in range(iterations)]
    beta = 1e-3

    params = tune_sparse(X, ctx.device)
    prof = profile_sparse_fused(X, ctx, params)
    plan = FusedPlan(ctx)
    patterns = [GenericPattern(X, y, z=y, beta=beta) for y in vectors]
    splan = prof.spmv_plan

    def numeric_floor():
        for y in vectors:
            p = splan.spmv(y)
            w = splan.spmv_t(p)
            w = w + beta * y

    def cold_full():
        for y in vectors:
            evaluate_uncached(X, y, z=y, beta=beta, strategy="fused",
                              ctx=ctx)

    def warm_unprofiled():
        for pat in patterns:
            plan.evaluate(pat, params=params)

    def warm_profiled():
        for pat in patterns:
            plan.evaluate(pat, params=params, profile=prof)

    def pre_profile_e2e():
        for pat in patterns:
            fingerprint_matrix(X)
            plan.evaluate(pat, params=params)

    engine = PatternEngine(ctx)
    engine.evaluate(X, vectors[0], z=vectors[0], beta=beta,
                    strategy="fused")          # absorb the one cold call

    def engine_e2e():
        for y in vectors:
            engine.evaluate(X, y, z=y, beta=beta, strategy="fused")

    pinned = PatternEngine(ctx)

    def engine_pinned_e2e():
        for y in vectors:
            pinned.evaluate(X, y, z=y, beta=beta, strategy="fused")

    series_fns = {
        "numeric_floor": numeric_floor,
        "cold_full": cold_full,
        "warm_unprofiled": warm_unprofiled,
        "warm_profiled": warm_profiled,
        "pre_profile_warm_e2e": pre_profile_e2e,
        "engine_warm_e2e": engine_e2e,
        "engine_pinned_warm_e2e": engine_pinned_e2e,
    }

    def per_call_ms(name: str) -> float:
        # pin only around the pinned series' own call: every other series
        # measures an unpinned, writable matrix
        pin = name == "engine_pinned_warm_e2e"
        if pin:
            pinned.pin(X)
        try:
            t0 = time.perf_counter()
            series_fns[name]()
            return (time.perf_counter() - t0) / iterations * 1e3
        finally:
            if pin:
                pinned.unpin(X)

    pinned.pin(X)
    try:
        probe = pinned.evaluate(X, vectors[0], z=vectors[0], beta=beta,
                                strategy="fused")
        if not np.array_equal(probe.output, engine.evaluate(
                X, vectors[0], z=vectors[0], beta=beta,
                strategy="fused").output):
            raise AssertionError("pinned engine output is not bit-identical")
    finally:
        pinned.unpin(X)
    names = list(series_fns)
    for name in names:                         # warm caches / allocator
        per_call_ms(name)
    series = dict.fromkeys(names, float("inf"))
    for r in range(3):
        for name in names[r:] + names[:r]:
            series[name] = min(series[name], per_call_ms(name))
    floor = series["numeric_floor"]
    for name, per_call in series.items():
        res.add(name, per_call, max(0.0, per_call - floor))

    # the profiled overhead routinely measures at/below zero (it is within
    # the run-to-run noise of the numeric floor), so clamp the denominator
    # at the timing resolution (1% of the floor) and report a lower bound
    resolution = max(0.01 * floor, 1e-6)
    unprof_overhead = max(series["warm_unprofiled"] - floor, 0.0)
    prof_overhead = max(series["warm_profiled"] - floor, resolution)
    model_x = unprof_overhead / prof_overhead
    e2e_x = series["pre_profile_warm_e2e"] / max(series["engine_warm_e2e"],
                                                 1e-9)
    pinned_x = series["engine_warm_e2e"] / max(
        series["engine_pinned_warm_e2e"], 1e-9)
    res.notes.append(
        f"warm counter-model overhead: {unprof_overhead:.3f} ms/call "
        f"unprofiled vs {max(series['warm_profiled'] - floor, 0.0):.3f} "
        f"ms/call profiled (>= {model_x:.0f}x reduction at the "
        f"{resolution:.3f} ms timing resolution; target >= 5x)")
    res.notes.append(
        f"end-to-end warm evaluate(): {series['pre_profile_warm_e2e']:.3f} "
        f"ms/call pre-profile vs {series['engine_warm_e2e']:.3f} ms/call "
        f"with cached profiles ({e2e_x:.2f}x; target >= 1.5x)")
    res.notes.append(
        f"pinning X skips the per-call content hash: warm evaluate() "
        f"{series['engine_warm_e2e']:.3f} -> "
        f"{series['engine_pinned_warm_e2e']:.3f} ms/call ({pinned_x:.2f}x; "
        f"target >= 2x), numeric floor {floor:.3f} ms/call")
    res.notes.append(
        "host wall-clock on the simulated-device counter model; outputs and "
        "counters are bit-identical across all series (see "
        "tests/test_profile_parity.py)")
    return res
