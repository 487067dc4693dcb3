"""What the benchmark measures: workloads, metric names and units, limits.

``BENCHMARK.json`` at the repository root repeats the names, units and
bounds below; ``test_perfbench.py`` checks that the two agree, so a metric
cannot be renamed or re-unitised on one side only.

An *operation* is one Listing-1 solve (``lrcg``, ``sysml``) or one
pattern-evaluation request (``serve``, ``cluster``).  Every workload
reports every end-to-end metric, defined per operation kind:

``setup_s``
    Program construction through warm-up, median of ``SETUP_REPEATS``
    set-ups in one run.  Covers the runtime, session, server or router
    (worker spawn, registration and uploads included) plus the first cold
    solve or one request per matrix.  The benchmark's own input generation
    is excluded.
``peak_rss_mb``
    Peak resident memory of the processes running the program (the
    benchmark process, plus the shard workers for ``cluster``).
``solve_s``
    Wall time of one fixed job: a solve at the fixed iteration cap (median
    over the run), or draining one backlog burst (mean over the run's
    bursts, see ``capacity_rps``).
``p50_ms``
    Median operation latency.  Solves: wall time of one solve (closed
    loop, so due time = start).  Requests: from each request's due time in
    the fixed-rate windows to its future's ``resolved_at``.
``slo_attainment``
    Share of sent operations that completed correctly within their
    latency limit; failures count as misses.
``capacity_rps``
    Operations completed per second while work is always waiting: solves
    per second of the closed loop, or completions per second while the
    backlog bursts drain with nothing shed (all completions over all drain
    time).  Burst drains are pooled rather than taken as a median because
    they are bimodal (about 170 and 230 ms within one ``serve`` run): a
    median of a few such drains jumps between the two modes from run to
    run.
``ok_share``
    Share of attempted operations that succeeded: not shed, timed out,
    rejected or errored, and bit-identical to the uncached reference.
    The complement of ``failed_share``, which the report also prints with
    its base; a metric that reads 0 cannot carry a relative bound.

``p99_ms`` (the 99th percentile of the same latencies, or the highest
percentile with at least ten samples beyond it) is printed and recorded
with every result but carries no bound: on a 2-vCPU virtual machine its
run-to-run spread (interquartile range over median, ten runs) was 0.4-0.9
for ``serve``, where stalls of the interpreter lock holder's vCPU set the
tail, against a largest allowed bound of 0.25.  ``slo_attainment`` gates
the tail instead, at the latency limits below.
"""

from __future__ import annotations

from dataclasses import dataclass

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: ``lrcg`` / ``sysml`` input: ``kdd_like(scale=KDD_SCALE)`` is 15009 x 29890
#: with ~28 non-zeros per row and power-law column popularity, so CG on it
#: is ill-conditioned and every solve runs to ``CG_CAP`` iterations.  At
#: twice the scale (30018 x 59780) the median solve of a 12 s run moved
#: with the host's memory traffic by about +-9% between interleaved runs on
#: a 2-vCPU virtual machine, against +-4% at this scale
KDD_SCALE = 0.001
CG_CAP = 20
CG_EPS = 1e-3

#: per-solve latency limits for ``slo_attainment`` on the solve workloads
SOLVE_LIMIT_S = {"lrcg": 1.5, "sysml": 3.0}

#: ``serve`` / ``cluster`` request mix: Zipf popularity over many small
#: matrices, each request a fresh vector through Eq. 1 with beta != 0
MATRICES = 24
MATRIX_ROWS = 2000
MATRIX_COLS = 96
MATRIX_SPARSITY = 0.05
ZIPF_S = 1.1
BETA = 1e-3
STRATEGY = "fused"

#: offered load of the fixed-rate windows (Poisson arrivals), and the
#: backlog bursts: the run alternates ``BURSTS`` fixed-rate windows, which
#: together last ``RATE_SHARE`` of ``--seconds``, with ``BURSTS`` bursts of
#: ``BACKLOG`` requests, each sent at once and drained before the next
#: window, so every metric samples the whole run.  The
#: rates are about an eighth (``serve``) and a fifth (``cluster``) of the
#: measured backlog capacity; ``cluster`` runs faster because, in
#: alternating runs, its latency median spread a third as much at 250 as at
#: 120 req/s (fewer idle hand-offs between its processes)
RATE_RPS = {"serve": 120.0, "cluster": 250.0}
BACKLOG = 200
BURSTS = 20
RATE_SHARE = 0.6

#: ``serve`` tiers in priority order: (traffic share, latency limit ms,
#: fair-share weight); ``cluster`` has one limit for every request
TIERS = {"interactive": (0.3, 40.0, 3.0), "batch": (0.7, 120.0, 1.0)}
CLUSTER_LIMIT_MS = 100.0

#: ``serve`` engine artifact LRU, in bytes: the 24 matrices' profiles and
#: compiled kernels take ~2.8 MB warm (~4.6 MB with their SpMV plans), so
#: the Zipf tail keeps rebuilding and evicting beside hits
SERVE_LRU_BYTES = 2_000_000

#: a run whose generator fell further behind schedule than this (p99) is
#: reported invalid: later than the whole interactive budget, it measured
#: the generator rather than the program.  Shorter stalls (the generator
#: shares the interpreter lock with the server's threads) are part of
#: what is measured, since latency counts from each request's due time.
MAX_LAG_MS = 50.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str            # one line, as in BENCHMARK.json
    rationale: str      # the longer reason, printed with every result
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "lrcg",
            "Table-5 path: closed-loop Listing-1 solves via linreg_cg and "
            "MLRuntime(gpu-fused) on a pinned 15k x 30k KDD-like matrix, "
            "20 iterations each",
            "X is pinned, so warm time is numerics + BLAS-1 + counter "
            "accounting, which is where kernel work shows.",
            ("ml", "core.engine", "kernels", "sparse.ops", "gpu"),
            ("serve", "cluster", "systemml")),
        Workload(
            "sysml",
            "Table-6 path: the same solves through "
            "SystemMLSession(gpu-fused, fuse=auto): unpinned engine hashes X "
            "per call, plus fusion-plan lookups and the DAG executor",
            "Numerics are bit-identical to lrcg, but every evaluation hashes "
            "X and each solve adds fusion-plan lookups and the DAG "
            "executor, so systemml and fingerprinting changes show here and "
            "not in lrcg.",
            ("systemml", "core.engine", "kernels", "sparse.ops", "gpu"),
            ("serve", "cluster")),
        Workload(
            "serve",
            "PatternServer, edf, 2 tiers, autoscale 1-2: open loop 120 req/s "
            "Poisson with 20 backlog bursts of 200; Zipf over 24 small "
            "matrices, artifact LRU < working set",
            "Admission (two hashes per request), scheduling and the engine's "
            "write path (profile rebuilds and evictions beside hits) "
            "dominate; numerics are small.",
            ("serve", "serve.sched", "serve.autoscale", "core.engine"),
            ("cluster", "ml", "systemml")),
        Workload(
            "cluster",
            "same mix without tiers through a 2-shard ShardRouter: 250 req/s "
            "Poisson with 20 backlog bursts of 200; crosses router, pickle "
            "wire and worker",
            "The only workload crossing router, wire and worker; workers "
            "batch by fingerprint and each shard's LRU holds its slice, so "
            "engine write-path changes are predicted flat here.",
            ("cluster", "serve", "core.engine"),
            ("ml", "systemml", "serve.sched")),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                  # "lower" | "higher"
    bound: float | None = None   # end-to-end only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("solve_s", "s", "lower", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("slo_attainment", "share", "higher", 0.05),
    Metric("capacity_rps", "1/s", "higher", 0.25),
    Metric("ok_share", "share", "higher", 0.01),
)

#: per-layer metrics, in request order of the layers; "model_ms" is
#: simulated GTX-Titan time, never wall time, and the ``gpu.*_per_eval``
#: quantities are medians over evaluations, so they repeat exactly
PER_LAYER = (
    Metric("ml.pattern_ms", "ms", "lower"),
    Metric("ml.blas1_ms_per_iter", "ms", "lower"),
    Metric("ml.iterations", "count", "lower"),
    Metric("systemml.fusion_plan_ms", "ms", "lower"),
    Metric("systemml.dag_ms", "ms", "lower"),
    Metric("systemml.dag_self_ms", "ms", "lower"),
    Metric("engine.evaluate_ms", "ms", "lower"),
    Metric("engine.fingerprint_ms", "ms", "lower"),
    Metric("engine.fingerprints_per_eval", "count", "lower"),
    Metric("engine.self_ms", "ms", "lower"),
    Metric("engine.pinned_hits", "share", "higher"),
    Metric("engine.plan_hit_rate", "share", "higher"),
    Metric("engine.artifact_hit_rate", "share", "higher"),
    Metric("engine.warm_share", "share", "higher"),
    Metric("engine.profiles_built", "per_1k", "lower"),
    Metric("engine.evictions", "per_1k", "lower"),
    Metric("kernels.floor_ms", "ms", "lower"),
    Metric("kernels.over_floor", "ratio", "lower"),
    Metric("gpu.model_ms_per_eval", "model_ms", "lower"),
    Metric("gpu.global_load_tx_per_eval", "count", "lower"),
    Metric("gpu.atomic_global_ops_per_eval", "count", "lower"),
    Metric("gpu.launches_per_iter", "count", "lower"),
    Metric("serve.submit_ms", "ms", "lower"),
    Metric("serve.wait_ms_p50", "ms", "lower"),
    Metric("serve.wait_ms_p99", "ms", "lower"),
    Metric("serve.service_ms_p50", "ms", "lower"),
    Metric("serve.batch_size_mean", "count", "higher"),
    Metric("serve.shed", "count", "lower"),
    Metric("serve.timeout", "count", "lower"),
    Metric("serve.rejected", "count", "lower"),
    Metric("serve.errors", "count", "lower"),
    Metric("serve.sched.interactive_p99_ms", "ms", "lower"),
    Metric("serve.sched.batch_p99_ms", "ms", "lower"),
    Metric("serve.sched.interactive_attainment", "share", "higher"),
    Metric("serve.autoscale.scale_events", "count", "lower"),
    Metric("cluster.router.submit_ms", "ms", "lower"),
    Metric("cluster.transit_ms_p50", "ms", "lower"),
    Metric("cluster.transit_ms_p99", "ms", "lower"),
    Metric("cluster.wire.request_bytes", "B", "lower"),
    Metric("cluster.wire.reply_bytes", "B", "lower"),
    Metric("cluster.wire.upload_bytes", "B", "lower"),
    Metric("cluster.router.replica_share", "share", "lower"),
    Metric("cluster.router.retries", "count", "lower"),
    Metric("cluster.max_shard_share", "share", "lower"),
    Metric("loadgen.lag_ms_p99", "ms", "lower"),
    Metric("bench.trace_overhead", "ratio", "lower"),
    Metric("bench.coverage", "share", "higher"),
)

#: computed, not measured: the wire sizes come from pickling the frames
#: the way ``repro.cluster.protocol.send_msg`` does
COMPUTED = frozenset({"cluster.wire.request_bytes",
                      "cluster.wire.reply_bytes",
                      "cluster.wire.upload_bytes"})
