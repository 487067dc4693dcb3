"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``evaluate`` — evaluate the generic pattern on a saved or synthetic matrix
  under one or more strategies, printing model times and speedups;
* ``tune`` — print the §3.3 launch parameters for a matrix (sparse or dense)
  and optionally the exhaustive-sweep validation;
* ``report`` — regenerate EXPERIMENTS.md (all tables and figures);
* ``script`` — run a mini-DML script (Listing-1 dialect) on saved data;
* ``engine-stats`` — run an LR-CG-style iteration series through the
  :class:`~repro.core.engine.PatternEngine` session cache and report
  hits/misses, bytes cached, and amortized-vs-cold model time;
* ``generate`` — build and save a synthetic dataset (sweep point, KDD-like,
  HIGGS-like);
* ``loadgen`` — synthesize a serving workload trace (Zipf-skewed matrix
  popularity, Poisson arrivals, deadline spread) as a small JSON file;
* ``serve`` — replay a workload trace through the micro-batching
  :class:`~repro.serve.server.PatternServer` and report latency
  percentiles, shedding/timeout counts, and live engine metrics;
* ``trace`` — run a pattern workload (or replay a loadgen trace) under span
  tracing; writes Chrome trace-event JSON (``chrome://tracing``/Perfetto)
  and prints the top-down phase summary with end-to-end cost attribution;
* ``check`` — static race/barrier/codegen analysis of the per-thread SIMT
  kernels (shipped set or explicit files), a (VS, TL) grid of generated
  dense specializations and the optimizer's cell-wise fusion sources, plus
  lock-discipline analysis of the host modules; machine-readable findings
  with ``--json``, exit 1 on any finding;
* ``plan`` — enumerate, cost, and select DAG fusion plans
  (:mod:`repro.systemml.fusion`) for the shipped DML scripts or an
  arbitrary ``--expr``, printing per-candidate fused/unfused model costs
  and the chosen plan; machine-readable with ``--json``.

``serve``, ``loadgen --run``, and ``trace --replay`` honor SIGINT: the
first Ctrl-C drains in-flight work and shuts the server down gracefully
(exit 130); further SIGINTs are deferred until the drain completes so the
scheduler thread can never be leaked mid-join.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import zipfile

import numpy as np

from . import evaluate as evaluate_pattern
from .core.executor import STRATEGIES
from .data import higgs_like, kdd_like, regression_targets, synthetic_sparse
from .data.io import load_csr, load_dataset, save_csr, save_dataset
from .sparse import CsrMatrix, random_csr
from .tuning import autotune_sparse, tune_dense, tune_sparse


def _load_matrix(spec: str) -> CsrMatrix | np.ndarray:
    """``path.npz`` or ``MxN:sparsity`` (synthetic, seeded)."""
    if spec.endswith(".npz"):
        if not os.path.exists(spec):
            raise SystemExit(f"matrix file not found: {spec}")
        return load_csr(spec)
    try:
        dims, sparsity = spec.split(":")
        m, n = (int(v) for v in dims.lower().split("x"))
        return random_csr(m, n, float(sparsity), rng=0)
    except ValueError:
        raise SystemExit(
            f"matrix spec {spec!r} must be a .npz path or MxN:sparsity "
            "(e.g. 100000x1024:0.01)") from None


def cmd_evaluate(args: argparse.Namespace) -> int:
    X = _load_matrix(args.matrix)
    m, n = X.shape
    rng = np.random.default_rng(args.seed)
    y = rng.normal(size=n)
    v = rng.normal(size=m) if args.with_v else None
    z = rng.normal(size=n) if args.beta else None
    results = {}
    for strategy in args.strategies:
        res = evaluate_pattern(X, y, v=v, z=z, alpha=args.alpha,
                               beta=args.beta, strategy=strategy)
        results[strategy] = res
        print(f"{strategy:>18}: {res.time_ms:10.4f} model-ms   "
              f"loads={res.counters.global_load_transactions:12.0f}")
    if "fused" in results and len(results) > 1:
        base = min((r.time_ms for s, r in results.items() if s != "fused"),
                   default=None)
        if base:
            print(f"\nfused speedup vs best competitor: "
                  f"{base / results['fused'].time_ms:.2f}x")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    X = _load_matrix(args.matrix)
    if isinstance(X, CsrMatrix):
        p = tune_sparse(X)
        print(f"sparse {X.m}x{X.n} (mu={X.mean_row_nnz:.1f}): "
              f"VS={p.vector_size} BS={p.block_size} C={p.coarsening} "
              f"grid={p.grid_size} shm={p.shared_bytes}B "
              f"variant={p.variant}")
        if args.sweep:
            at = autotune_sparse(X)
            print(f"sweep: {len(at.settings)} settings, model gap "
                  f"{100 * at.model_gap:.2f}% "
                  f"(best {at.best.time_ms:.4f} ms)")
    else:
        m, n = X.shape
        p = tune_dense(m, n)
        print(f"dense {m}x{n}: TL={p.thread_load} VS={p.vector_size} "
              f"BS={p.block_size} C={p.coarsening} grid={p.grid_size} "
              f"regs={p.registers} padded_n={p.padded_n}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .bench.report import generate
    generate(args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_script(args: argparse.Namespace) -> int:
    from .ml.runtime import MLRuntime
    from .systemml.script import run_script
    if not os.path.exists(args.script):
        raise SystemExit(f"script file not found: {args.script}")
    if not os.path.exists(args.dataset):
        raise SystemExit(f"dataset file not found: {args.dataset}")
    X, y, _ = load_dataset(args.dataset)
    with open(args.script) as f:
        source = f.read()
    rt = MLRuntime(args.backend)
    res = run_script(source, {"1": X, "2": y}, rt)
    print(f"executed {res.statements_executed} statements, "
          f"{res.fused_calls} fused pattern calls")
    for cat, ms in sorted(rt.ledger.by_category.items()):
        print(f"  {cat:>9}: {ms:10.3f} model-ms")
    for name in res.outputs:
        print(f"output {name!r}: vector of length "
              f"{np.asarray(res.outputs[name]).size}")
    return 0


def cmd_engine_stats(args: argparse.Namespace) -> int:
    """Cold-vs-warm cache report for an LR-CG-style iteration series."""
    from .core.engine import PatternEngine, PatternRequest

    X = _load_matrix(args.matrix)
    m, n = X.shape
    rng = np.random.default_rng(args.seed)
    engine = PatternEngine()

    # the hot statement of Listing 1: q = X^T (X p) + eps * p, p changing
    # every iteration but the matrix (and therefore the plan) staying fixed
    for _ in range(args.iterations):
        p = rng.normal(size=n)
        engine.evaluate(X, p, z=p, beta=args.eps, strategy=args.strategy)
    st = engine.stats()

    if args.json:
        # sorted-key export (EngineStats.to_dict): the same deterministic
        # shape the serve metrics endpoint and cluster aggregation consume
        print(json.dumps(st.to_dict(), indent=2, sort_keys=True))
        return 0

    # an uncached run pays the cold per-call price every iteration
    cold_total = st.cold_ms_per_call * args.iterations
    warm_total = st.cold_model_ms + st.warm_model_ms
    print(f"matrix {m}x{n}, strategy {args.strategy!r}, "
          f"{args.iterations} iterations")
    print(st.report())
    print(f"uncached total:   {cold_total:10.3f} model-ms")
    print(f"engine total:     {warm_total:10.3f} model-ms "
          f"({cold_total / max(warm_total, 1e-12):.2f}x)")

    if args.batch:
        reqs = [PatternRequest(X, rng.normal(size=n), strategy=args.strategy)
                for _ in range(args.batch)]
        results = engine.evaluate_many(reqs, max_workers=args.workers)
        walls = [r.wall_ms for r in results]
        print(f"batched:          {len(results)} requests on "
              f"{args.workers} workers, wall "
              f"{min(walls):.2f}-{max(walls):.2f} ms/request")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "sweep":
        X: CsrMatrix | np.ndarray = synthetic_sparse(
            args.n, m=args.m, rng=args.seed)
    elif args.kind == "kdd":
        X = kdd_like(scale=args.scale, rng=args.seed)
    elif args.kind == "higgs":
        X = higgs_like(scale=args.scale, rng=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown kind {args.kind}")
    y, _ = regression_targets(X, rng=args.seed + 1)
    if args.targets:
        save_dataset(args.output, X, y)
    elif isinstance(X, CsrMatrix):
        save_csr(args.output, X)
    else:
        raise SystemExit("dense matrices need --targets (saved as dataset)")
    m, n = X.shape
    print(f"wrote {args.output}: {m}x{n}"
          + (f", nnz={X.nnz}" if isinstance(X, CsrMatrix) else " dense"))
    return 0


def _resolve_sched(args: argparse.Namespace, trace: dict | None = None):
    """Resolve the SLO-scheduling knobs shared by serve/cluster/trace.

    Returns ``(tiers, autoscale, policy)``.  ``--tiers`` wins; otherwise a
    replayed trace that carries a ``tiers`` block configures the server the
    same way the trace was synthesized.  When tiers or a default SLO are in
    play and no policy was named, the scheduler defaults to ``edf``.
    """
    from .serve import parse_autoscale, parse_tiers, tiers_from_trace
    tiers = parse_tiers(args.tiers) if getattr(args, "tiers", None) else None
    if tiers is None and trace is not None:
        tiers = tiers_from_trace(trace)
    autoscale = (parse_autoscale(args.autoscale)
                 if getattr(args, "autoscale", None) else None)
    slo = getattr(args, "slo", None)
    policy = args.policy or ("edf" if (tiers or slo is not None)
                             else "fingerprint")
    return tiers, autoscale, policy


def _serve_config(args: argparse.Namespace, trace: dict | None = None):
    from .serve import ServerConfig
    tiers, autoscale, policy = _resolve_sched(args, trace)
    return ServerConfig(
        queue_capacity=args.queue_capacity, max_batch=args.max_batch,
        batch_linger_ms=args.linger_ms, workers=args.workers,
        engine_workers=args.engine_workers, policy=policy,
        default_deadline_ms=args.default_deadline_ms,
        tiers=tiers, default_slo_ms=getattr(args, "slo", None),
        autoscale=autoscale)


def _drain_ignoring_sigint(server) -> None:
    """Stop the server with SIGINT deferred for the duration.

    A second Ctrl-C during the drain would otherwise interrupt
    ``PatternServer.stop()`` mid-join and leak the scheduler thread; the
    stop is retried by the caller's ``finally`` if that ever happens.
    """
    try:
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:                     # not the main thread (tests)
        previous = None
    try:
        server.stop()
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)


def _interrupted(args: argparse.Namespace, server) -> int:
    """Shared SIGINT epilogue for serve/loadgen/trace replays (exit 130)."""
    _drain_ignoring_sigint(server)
    print(f"repro {args.command}: interrupted — drained in-flight work "
          "and shut down cleanly", file=sys.stderr)
    return 130


def _run_trace(args: argparse.Namespace, trace: dict) -> int:
    from .core.engine import PatternEngine
    from .serve import PatternServer, format_report, run_workload

    engine = PatternEngine(max_plans=args.max_plans,
                           max_artifact_bytes=args.max_artifact_bytes)
    server = PatternServer(engine, _serve_config(args, trace))
    try:
        report = run_workload(server, trace, verify=args.verify)
        server.stop()                  # drain before the final snapshots
        metrics_json = server.metrics_json()
        metrics_prom = server.metrics_prometheus()
    except KeyboardInterrupt:
        return _interrupted(args, server)
    finally:
        server.stop()                  # idempotent; covers error paths
    print(format_report(report))
    for spec, text in ((args.metrics_json, metrics_json),
                       (args.prometheus, metrics_prom)):
        if spec == "-":
            print(text)
        elif spec:
            with open(spec, "w") as f:
                f.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {spec}")
    if args.verify and report["divergent"]:
        print(f"{report['divergent']} outputs diverged from uncached "
              "evaluation", file=sys.stderr)
        return 1
    return 0


def _traced_replay(args: argparse.Namespace) -> tuple[int | None, float]:
    """Replay a loadgen trace through a server while a tracer is installed.

    Returns ``(exit_status, measured_ms)`` where ``exit_status`` is not
    ``None`` only when the replay was interrupted, and ``measured_ms`` is
    the sum of completed-request end-to-end latencies (the quantity the
    attribution gate decomposes).
    """
    from .core.engine import PatternEngine
    from .serve import (PatternServer, format_report, load_workload,
                        run_workload)

    if not os.path.exists(args.replay):
        raise SystemExit(f"workload file not found: {args.replay}")
    workload = load_workload(args.replay)
    engine = PatternEngine(max_plans=args.max_plans,
                           max_artifact_bytes=args.max_artifact_bytes)
    server = PatternServer(engine, _serve_config(args, workload))
    try:
        report = run_workload(server, workload)
        server.stop()                  # drain so every span is recorded
    except KeyboardInterrupt:
        return _interrupted(args, server), 0.0
    finally:
        server.stop()
    print(format_report(report))
    print()
    # arithmetic mean * count recovers the latency sum exactly
    measured = report["latency_ms"]["mean"] * report["completed"]
    return None, measured


def _traced_engine_loop(args: argparse.Namespace, tracer) -> float:
    """Warm-engine iteration loop (the Listing-1 hot statement) under
    tracing; returns the summed per-call wall time in milliseconds."""
    from .core.engine import PatternEngine

    X = _load_matrix(args.matrix)
    n = X.shape[1]
    rng = np.random.default_rng(args.seed)
    engine = PatternEngine(max_plans=args.max_plans,
                           max_artifact_bytes=args.max_artifact_bytes)
    # warm the session first, then drop the warmup spans: first-call costs
    # (plan/tune/profile builds, allocator and code warmup) land partly
    # outside any span and would skew the attribution of the amortized
    # regime this mode profiles; replay mode keeps its cold starts because
    # its per-request decomposition is exact by construction
    warm = rng.normal(size=n)
    engine.evaluate(X, warm, z=warm, beta=1e-3, strategy=args.strategy)
    tracer.clear()
    measured = 0.0
    for _ in range(args.iterations):
        y = rng.normal(size=n)
        t0 = time.perf_counter()
        engine.evaluate(X, y, z=y, beta=1e-3, strategy=args.strategy)
        measured += (time.perf_counter() - t0) * 1e3
    return measured


def cmd_trace(args: argparse.Namespace) -> int:
    from . import trace as tracing

    with tracing.capture() as tracer:
        if args.replay:
            status, measured = _traced_replay(args)
            if status is not None:
                return status
        else:
            measured = _traced_engine_loop(args, tracer)

    spans = tracer.snapshot()
    if tracer.dropped:
        print(f"repro trace: retention cap hit, {tracer.dropped} spans "
              "dropped (aggregates remain exact)", file=sys.stderr)
    if args.chrome:
        doc = tracing.to_chrome(spans)
        tracing.validate_chrome(doc)
        with open(args.chrome, "w") as f:
            json.dump(doc, f)
        print(f"wrote {args.chrome}: {len(doc['traceEvents'])} trace events "
              "(open in chrome://tracing or Perfetto)")
    print(tracing.to_text(tracing.aggregate(spans)))
    print()
    att = tracing.attribution(spans, measured)
    print(tracing.attribution_text(att))
    if measured > 0 and abs(att["coverage"] - 1.0) > args.coverage_tolerance:
        print(f"repro trace: attribution coverage {att['coverage']:.3f} "
              f"outside 1±{args.coverage_tolerance:g} of measured latency",
              file=sys.stderr)
        return 1
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Static kernel + host-concurrency analysis; exit 1 on any finding."""
    from .analyze import (HOST_MODULE_FILES, findings_json, findings_text,
                          parse_grid, run_check, run_host_check)
    scope = args.scope
    if scope not in ("all", "kernels", "host"):
        raise ValueError(
            f"unknown scope {scope!r}; expected kernels, host, or all")
    try:
        grid = parse_grid(args.grid)
        findings, suppressed = [], []
        if scope in ("kernels", "all"):
            findings.extend(run_check(paths=args.paths or None, grid=grid))
        if scope in ("host", "all"):
            host_active, host_supp = run_host_check(args.paths or None)
            findings.extend(host_active)
            suppressed.extend(host_supp)
    except KeyboardInterrupt:
        print("repro check: interrupted", file=sys.stderr)
        return 130
    if args.json:
        print(findings_json(findings, suppressed))
    else:
        if args.paths:
            checked = f"{len(args.paths)} file(s)"
        else:
            parts = []
            if scope in ("kernels", "all"):
                parts.append(f"shipped kernels + {len(grid)} generated "
                             "specializations + fusion sources")
            if scope in ("host", "all"):
                parts.append(f"{len(HOST_MODULE_FILES)} host module(s)")
            checked = " + ".join(parts)
        print(findings_text(findings, checked,
                            suppressed_count=len(suppressed)))
    return 1 if findings else 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Enumerate, cost, and select fusion plans for DML expressions."""
    from .core.engine import PatternEngine
    from .systemml.fusion import SHIPPED_DML, infer_roles, make_env
    from .systemml.parser import parse_expression

    X = _load_matrix(args.matrix)
    engine = PatternEngine()
    jobs: list[tuple[str, object, dict]] = []
    try:
        if args.expr:
            root = parse_expression(args.expr)
            env = make_env(infer_roles(root), X, rng=args.seed)
            jobs.append((args.expr, root, env))
        else:
            names = (list(SHIPPED_DML) if args.script == "all"
                     else [args.script])
            for name in names:
                if name not in SHIPPED_DML:
                    raise SystemExit(
                        f"unknown script {name!r} (choose from "
                        f"{', '.join(sorted(SHIPPED_DML))} or 'all')")
                spec = SHIPPED_DML[name]
                jobs.append((f"{name}: {spec.dml}", spec.parse(),
                             make_env(spec, X, rng=args.seed)))
        plans = []
        for name, root, env in jobs:
            plan = engine.fusion_plan(root, env, node_budget=args.budget,
                                      expression=name)
            plans.append(plan)
    except KeyboardInterrupt:
        print("repro plan: interrupted", file=sys.stderr)
        return 130

    if args.json:
        print(json.dumps([p.to_dict() for p in plans], indent=2))
        return 0
    m, n = X.shape
    print(f"matrix {m}x{n}, {len(plans)} expression(s)\n")
    for plan in plans:
        chosen = set(plan.chosen)
        print(f"{plan.expression}")
        print(f"  nodes={plan.node_count} search={plan.search} "
              f"baseline={plan.baseline.time_ms:.4f} model-ms "
              f"saving={plan.saving_ms:.4f} model-ms")
        for i, pc in enumerate(plan.candidates):
            mark = "*" if i in chosen else " "
            print(f"  {mark} [{i}] {pc.candidate.label}")
            print(f"        fused {pc.fused.time_ms:.4f} ms "
                  f"({pc.fused.transactions:.0f} txn, "
                  f"{pc.fused.launches:.0f} launches) | unfused "
                  f"{pc.unfused.time_ms:.4f} ms "
                  f"({pc.unfused.transactions:.0f} txn, "
                  f"{pc.unfused.launches:.0f} launches, "
                  f"{pc.unfused.intermediate_bytes:.0f} B intermediates) "
                  f"| saving {pc.saving_ms:.4f} ms")
        if not plan.candidates:
            print("    (no fusable regions)")
        print()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import load_workload
    if not os.path.exists(args.workload):
        raise SystemExit(f"workload file not found: {args.workload}")
    return _run_trace(args, load_workload(args.workload))


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve import parse_tier_mix, save_workload, synthesize_workload
    tier_mix = parse_tier_mix(args.tier_mix) if args.tier_mix else None
    trace = synthesize_workload(
        matrices=args.matrices, requests=args.requests, zipf=args.zipf,
        rows=args.rows, cols=args.cols, sparsity=args.sparsity,
        rate_rps=args.rate, mode=args.mode, concurrency=args.concurrency,
        deadline_ms=args.deadline_ms, deadline_spread=args.deadline_spread,
        strategy=args.strategy, beta=args.beta, seed=args.seed,
        tier_mix=tier_mix)
    save_workload(args.output, trace)
    arrivals = "burst at t=0" if args.rate is None or args.mode == "closed" \
        else f"Poisson at {args.rate:g} req/s"
    mix = f", tiers {'/'.join(sorted(tier_mix))}" if tier_mix else ""
    print(f"wrote {args.output}: {args.requests} requests over "
          f"{args.matrices} matrices ({args.rows}x{args.cols}:"
          f"{args.sparsity:g}), Zipf({args.zipf:g}), {args.mode} loop, "
          f"{arrivals}{mix}")
    if args.run and getattr(args, "shards", 0):
        return _run_cluster_trace(args, trace)
    if args.run:
        return _run_trace(args, trace)
    return 0


def _cluster_config(args: argparse.Namespace, trace: dict | None = None):
    from .cluster import ClusterConfig
    from .cluster.worker import WorkerConfig
    tiers, autoscale, policy = _resolve_sched(args, trace)
    worker = WorkerConfig(
        queue_capacity=args.queue_capacity, max_batch=args.max_batch,
        batch_linger_ms=args.linger_ms, workers=args.workers,
        engine_workers=args.engine_workers, policy=policy,
        max_plans=args.max_plans,
        max_artifact_bytes=args.max_artifact_bytes,
        max_matrices=args.max_matrices,
        tiers=tiers, default_slo_ms=getattr(args, "slo", None),
        autoscale=autoscale)
    return ClusterConfig(
        shards=args.shards, replication=args.replication,
        hot_threshold=args.hot_threshold,
        hot_min_requests=args.hot_min_requests,
        max_retries=args.max_retries, seed=args.seed, worker=worker)


def _run_cluster_trace(args: argparse.Namespace, trace: dict) -> int:
    from .cluster import (ShardRouter, format_cluster_report,
                          run_cluster_workload)

    router = ShardRouter(_cluster_config(args, trace))
    try:
        report = run_cluster_workload(router, trace, verify=args.verify)
        metrics_json = router.metrics_json()
        metrics_prom = router.metrics_prometheus()
    except KeyboardInterrupt:
        return _interrupted(args, router)
    finally:
        router.stop()                  # idempotent; covers error paths
    print(format_cluster_report(report))
    for spec, text in ((args.metrics_json, metrics_json),
                       (args.prometheus, metrics_prom)):
        if spec == "-":
            print(text)
        elif spec:
            with open(spec, "w") as f:
                f.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {spec}")
    if args.verify and report["divergent"]:
        print(f"{report['divergent']} outputs diverged from uncached "
              "evaluation", file=sys.stderr)
        return 1
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from .serve import load_workload
    if not os.path.exists(args.workload):
        raise SystemExit(f"workload file not found: {args.workload}")
    return _run_cluster_trace(args, load_workload(args.workload))


def _add_serve_config_flags(p: argparse.ArgumentParser) -> None:
    """Server/engine knobs shared by ``serve``, ``loadgen --run``, ``trace``."""
    from .serve import POLICIES
    p.add_argument("--policy", default=None, choices=list(POLICIES),
                   help="micro-batching policy (default: fingerprint, or "
                        "edf once --tiers/--slo are given)")
    p.add_argument("--tiers", nargs="?", const="interactive:3,batch:1",
                   default=None, metavar="SPEC",
                   help="priority tiers as name:weight[:slo_ms],... "
                        "ranked by position (bare flag = "
                        "'interactive:3,batch:1')")
    p.add_argument("--slo", type=float, default=None, metavar="MS",
                   help="default latency SLO for requests and tiers that "
                        "carry none")
    p.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                   help="autoscale in-flight batch workers between MIN and "
                        "MAX from the queue-wait/service-time ratio")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent batches in flight")
    p.add_argument("--engine-workers", type=int, default=1,
                   help="threads inside evaluate_many per batch")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--queue-capacity", type=int, default=256)
    p.add_argument("--linger-ms", type=float, default=1.0,
                   help="batch-fill linger before dispatch")
    p.add_argument("--default-deadline-ms", type=float, default=None,
                   help="deadline for requests that carry none")
    p.add_argument("--max-plans", type=int, default=256,
                   help="engine plan-LRU bound")
    p.add_argument("--max-artifact-bytes", type=int,
                   default=256 * 1024 * 1024,
                   help="engine artifact-LRU byte budget")


def _add_serve_run_flags(p: argparse.ArgumentParser) -> None:
    """Config knobs plus the replay-output flags of ``serve``/``loadgen``."""
    _add_serve_config_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="check every output bit-identically against "
                        "uncached evaluation (slow; exits 1 on divergence)")
    p.add_argument("--metrics-json", metavar="PATH",
                   help="write the metrics snapshot as JSON ('-' = stdout)")
    p.add_argument("--prometheus", metavar="PATH",
                   help="write Prometheus text metrics ('-' = stdout)")


def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
    """Topology/replication knobs of the sharded cluster router."""
    p.add_argument("--replication", type=int, default=2,
                   help="replica-set size for hot fingerprints "
                        "(1 disables replication)")
    p.add_argument("--hot-threshold", type=float, default=0.2,
                   help="traffic share that promotes a fingerprint")
    p.add_argument("--hot-min-requests", type=int, default=16,
                   help="absolute popularity floor before promotion")
    p.add_argument("--max-retries", type=int, default=3,
                   help="forwarding attempts before deterministic "
                        "rejection")
    p.add_argument("--max-matrices", type=int, default=0,
                   help="per-shard matrix-cache bound (0 = unbounded)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate the generic pattern")
    ev.add_argument("matrix", help=".npz path or MxN:sparsity")
    ev.add_argument("--strategies", nargs="+", default=["fused", "cusparse"],
                    choices=[s for s in STRATEGIES if s != "auto"])
    ev.add_argument("--alpha", type=float, default=1.0)
    ev.add_argument("--beta", type=float, default=0.0)
    ev.add_argument("--with-v", action="store_true")
    ev.add_argument("--seed", type=int, default=0)
    ev.set_defaults(fn=cmd_evaluate)

    tu = sub.add_parser("tune", help="print §3.3 launch parameters")
    tu.add_argument("matrix")
    tu.add_argument("--sweep", action="store_true",
                    help="also run the exhaustive validation sweep")
    tu.set_defaults(fn=cmd_tune)

    rp = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    rp.add_argument("--output", default="EXPERIMENTS.md")
    rp.set_defaults(fn=cmd_report)

    sc = sub.add_parser("script", help="run a mini-DML script")
    sc.add_argument("script", help="path to the .dml file")
    sc.add_argument("dataset", help=".npz dataset (matrix as $1, y as $2)")
    sc.add_argument("--backend", default="gpu-fused",
                    choices=["cpu", "gpu-baseline", "gpu-fused"])
    sc.set_defaults(fn=cmd_script)

    es = sub.add_parser("engine-stats",
                        help="cold-vs-warm cache report for an LR-CG-style "
                             "iteration series")
    es.add_argument("matrix", help=".npz path or MxN:sparsity")
    es.add_argument("--iterations", type=int, default=100)
    es.add_argument("--strategy", default="auto",
                    choices=list(STRATEGIES))
    es.add_argument("--eps", type=float, default=0.001)
    es.add_argument("--batch", type=int, default=0,
                    help="also time N batched requests through the pool")
    es.add_argument("--workers", type=int, default=4)
    es.add_argument("--seed", type=int, default=0)
    es.add_argument("--json", action="store_true",
                    help="machine-readable stats (sorted keys) on stdout")
    es.set_defaults(fn=cmd_engine_stats)

    ge = sub.add_parser("generate", help="build a synthetic dataset")
    ge.add_argument("kind", choices=["sweep", "kdd", "higgs"])
    ge.add_argument("output")
    ge.add_argument("--m", type=int, default=100_000)
    ge.add_argument("--n", type=int, default=1024)
    ge.add_argument("--scale", type=float, default=0.004)
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--targets", action="store_true",
                    help="save as dataset with regression targets")
    ge.set_defaults(fn=cmd_generate)

    ck = sub.add_parser("check",
                        help="static race/barrier/codegen analysis of the "
                             "SIMT kernels and lock-discipline analysis of "
                             "the threaded host stack (exit 1 on any "
                             "finding)")
    ck.add_argument("paths", nargs="*",
                    help="files to analyze (default: shipped kernels + "
                         "generated dense and cell-wise sources and/or "
                         "the shipped host modules, per --scope)")
    ck.add_argument("--scope", default="all",
                    help="kernels | host | all (default all): SIMT kernel "
                         "checkers, host lock-discipline checkers, or both")
    ck.add_argument("--json", action="store_true",
                    help="machine-readable findings on stdout")
    ck.add_argument("--grid", default="2x2,4x2,4x4,8x2,8x4,16x2,32x2",
                    help="VSxTL specialization grid for the codegen lint "
                         "(comma-separated, e.g. 8x4,16x2)")
    ck.set_defaults(fn=cmd_check)

    pl = sub.add_parser("plan",
                        help="enumerate, cost, and select DAG fusion plans "
                             "for shipped DML scripts or an expression")
    pl.add_argument("--script", default="all",
                    help="shipped script name or 'all' (default)")
    pl.add_argument("--expr", metavar="DML",
                    help="plan an arbitrary DML expression instead "
                         "(vector roles are inferred from matvec edges)")
    pl.add_argument("--matrix", default="2000x128:0.02",
                    help=".npz path or MxN:sparsity (default "
                         "2000x128:0.02)")
    pl.add_argument("--budget", type=int, default=32,
                    help="node budget before greedy fallback")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--json", action="store_true",
                    help="machine-readable plans on stdout")
    pl.set_defaults(fn=cmd_plan)

    sv = sub.add_parser("serve",
                        help="replay a workload trace through the "
                             "micro-batching PatternServer")
    sv.add_argument("workload", help="trace JSON from `repro loadgen`")
    _add_serve_run_flags(sv)
    sv.set_defaults(fn=cmd_serve)

    lg = sub.add_parser("loadgen", help="synthesize a serving workload trace")
    lg.add_argument("output", help="trace JSON path to write")
    lg.add_argument("--matrices", type=int, default=8)
    lg.add_argument("--requests", type=int, default=200)
    lg.add_argument("--zipf", type=float, default=1.1,
                    help="matrix-popularity skew exponent")
    lg.add_argument("--rows", type=int, default=2000)
    lg.add_argument("--cols", type=int, default=96)
    lg.add_argument("--sparsity", type=float, default=0.05)
    lg.add_argument("--rate", type=float, default=None,
                    help="open-loop arrival rate in req/s (default: burst)")
    lg.add_argument("--mode", default="open", choices=["open", "closed"])
    lg.add_argument("--concurrency", type=int, default=8,
                    help="closed-loop outstanding requests")
    lg.add_argument("--deadline-ms", type=float, default=None)
    lg.add_argument("--deadline-spread", type=float, default=0.0,
                    help="uniform deadline spread fraction in [0, 1)")
    lg.add_argument("--strategy", default="fused",
                    choices=list(STRATEGIES))
    lg.add_argument("--beta", type=float, default=1e-3)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--tier-mix", default=None, metavar="SPEC",
                    help="tiered tenant mix as name:share[:slo_ms[:weight]]"
                         ",... (e.g. 'interactive:0.3:30:3,batch:0.7'); "
                         "stamps tier/tenant/slo_ms on every request")
    lg.add_argument("--run", action="store_true",
                    help="also replay the trace through a server in-process")
    lg.add_argument("--cluster", type=int, default=0, metavar="SHARDS",
                    dest="shards",
                    help="with --run: drive a sharded cluster of N worker "
                         "processes instead of a single server")
    _add_serve_run_flags(lg)
    _add_cluster_flags(lg)
    lg.set_defaults(fn=cmd_loadgen)

    cl = sub.add_parser("cluster",
                        help="replay a workload trace through the sharded "
                             "multi-process cluster router")
    cl.add_argument("workload", help="trace JSON from `repro loadgen`")
    cl.add_argument("--shards", type=int, default=2,
                    help="worker processes to spawn")
    cl.add_argument("--seed", type=int, default=0)
    _add_serve_run_flags(cl)
    _add_cluster_flags(cl)
    cl.set_defaults(fn=cmd_cluster)

    tr = sub.add_parser("trace",
                        help="run a workload under span tracing: Chrome "
                             "trace JSON + per-phase cost attribution")
    mode = tr.add_mutually_exclusive_group(required=True)
    mode.add_argument("--replay", metavar="TRACE.json",
                      help="loadgen trace to replay through a PatternServer")
    mode.add_argument("--matrix", metavar="SPEC",
                      help=".npz path or MxN:sparsity for a warm engine loop")
    tr.add_argument("--iterations", type=int, default=30,
                    help="engine-loop iterations (--matrix mode)")
    tr.add_argument("--strategy", default="auto", choices=list(STRATEGIES))
    tr.add_argument("--chrome", metavar="PATH",
                    help="write Chrome trace-event JSON "
                         "(chrome://tracing, Perfetto)")
    tr.add_argument("--coverage-tolerance", type=float, default=0.10,
                    help="fail when |attribution coverage - 1| exceeds this")
    tr.add_argument("--seed", type=int, default=0)
    _add_serve_config_flags(tr)
    tr.set_defaults(fn=cmd_trace)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        # uniform contract: unreadable/corrupt inputs exit 1 with one line
        # on stderr, never a traceback (tests/test_cli_errors.py)
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
