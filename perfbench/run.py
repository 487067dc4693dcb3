"""The repository benchmark: one command, four workloads, two kinds of run.

Run from the repository root::

    python3 perfbench/run.py                                # every workload
    python3 perfbench/run.py --workload lrcg --seed 3 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` sets the program up the same way, measures once untraced and
once with the probes of :mod:`probes` timing the calls into each layer, and
reports the per-layer metrics (see ``spec.PER_LAYER``).  Every output is
checked bit for bit against uncached ``repro.core.api.evaluate``.

The report lines describe the run (seed, rationale, load, limits, host,
numeric floor, failures with their base) and every metric with its unit
and sample count; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same record,
and for traced runs the Chrome trace of the spans, are written under
``perfbench/out/``.

Exit status: 0 on a result, 1 if the program raised, 2 if the source tree
is missing, 3 if the load generator fell behind by more than
``spec.MAX_LAG_MS`` (the run is invalid and no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SECONDS = 12


class InvalidRun(Exception):
    """The load generator measured itself, not the program."""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no repro source tree under {src}")
    sys.path.insert(0, str(src))


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, measure, verify; returns the run's full record."""
    import stats
    import workloads
    from probes import Probe, SpanIndex

    bench = workloads.make(name, seed, seconds)
    outcome = workloads.Outcome()
    probe = traced_phase = None
    try:
        setup_times, warm = bench.setup()
        plain = bench.phase()
        if traced:
            probe = Probe()
            with probe.installed(bench.install):
                traced_phase = bench.phase(probe)
        rss = bench.peak_rss_mb()
    finally:
        bench.close()

    # everything below runs outside the timed regions
    for phase in filter(None, (plain, traced_phase)):
        lag = bench.lag_ms(phase)
        if lag and lag[0] > spec.MAX_LAG_MS:
            raise InvalidRun(f"load generator fell {lag[0]:.2f} ms behind "
                             f"schedule at p{100 * lag[1]:g} (limit "
                             f"{spec.MAX_LAG_MS} ms)")
    floor, floor_n = bench.floor_ms(plain)
    ops = warm + plain.ops + (traced_phase.ops if traced_phase else [])
    bench.verify(ops, outcome)
    e2e = bench.end_to_end(plain)
    e2e["setup_s"] = (stats.median(setup_times), len(setup_times))
    e2e["peak_rss_mb"] = (rss, 1)
    e2e["ok_share"] = (outcome.ok_share, outcome.attempted)
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), **_context(name),
        "kernels.floor_ms": {"value": floor, "n": floor_n},
        "setup_s_samples": setup_times,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failed_by_reason": outcome.by_reason,
        "mismatched": outcome.mismatched,
        "end_to_end": _metrics(spec.END_TO_END, e2e),
        # printed and recorded, not gated (see spec)
        "p99_ms": {"value": e2e["p99_ms"][0], "n": e2e["p99_ms"][1],
                   "q": e2e["p99_ms"][2]},
    }
    lag = bench.lag_ms(plain)
    if lag:
        record["loadgen.lag_ms"] = {"value": lag[0], "q": lag[1], "n": lag[2]}
    if traced_phase is not None:
        untraced = {o.k: o.output for o in plain.ops}
        record["trace_divergent"] = sum(
            1 for o in traced_phase.ops
            if o.k in untraced
            and (o.output is None or o.output != untraced[o.k]))
        spans = probe.tracer.snapshot()
        layer = bench.per_layer(SpanIndex(spans), traced_phase, floor)
        layer["kernels.floor_ms"] = floor
        layer["bench.trace_overhead"] = (
            bench.headline(bench.end_to_end(traced_phase))
            / bench.headline(bench.end_to_end(plain)))
        record["per_layer"] = {
            m.name: {"value": float(layer.get(m.name, 0.0)), "unit": m.unit,
                     "measured": m.name in layer}
            for m in spec.PER_LAYER}
        record["spans"] = len(spans)
        OUT.mkdir(parents=True, exist_ok=True)
        probe.write(OUT / f"{name}-seed{seed}.trace.json")
    return record


def _context(name: str) -> dict:
    import numpy as np

    wl = spec.WORKLOADS[name]
    if name in spec.SOLVE_LIMIT_S:
        load = "closed loop, one caller"
        limits = {"solve_s": spec.SOLVE_LIMIT_S[name]}
    else:
        load = (f"open loop, Poisson at {spec.RATE_RPS[name]:g} req/s in "
                f"{spec.BURSTS} windows, each followed by a burst of "
                f"{spec.BACKLOG} requests; one generator thread")
        limits = ({f"{t}_ms": v[1] for t, v in spec.TIERS.items()}
                  if name == "serve" else
                  {"request_ms": spec.CLUSTER_LIMIT_MS})
        limits["max_lag_ms"] = spec.MAX_LAG_MS
    return {"why": wl.why, "rationale": wl.rationale,
            "stresses": list(wl.stresses), "bypasses": list(wl.bypasses),
            "load": load, "limits": limits, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def _metrics(table, values: dict) -> dict:
    return {m.name: {"value": float(values[m.name][0]), "unit": m.unit,
                     "n": values[m.name][1]} for m in table}


def report(record: dict) -> list[str]:
    """The human-readable lines printed before the JSON result."""
    r = record
    lines = [
        f"# perfbench {r['workload']} seed={r['seed']} "
        f"seconds={r['seconds']:g} trace={r['trace']}",
        f"# why: {r['why']}",
        f"# rationale: {r['rationale']}",
        f"# stresses: {', '.join(r['stresses'])}; "
        f"bypasses: {', '.join(r['bypasses'])}",
        f"# load: {r['load']}",
        "# limits: " + ", ".join(f"{k}={v:g}"
                                 for k, v in r["limits"].items()),
        f"# host: nproc={r['nproc']} python={r['python']} "
        f"numpy={r['numpy']}",
        f"# kernels.floor_ms = {r['kernels.floor_ms']['value']:.4f} ms "
        f"(n={r['kernels.floor_ms']['n']})",
        f"# failed_share = {r['failed']}/{r['attempted']} = "
        f"{r['failed'] / r['attempted']:.4f} {r['failed_by_reason'] or ''}; "
        f"divergent outputs = {r['mismatched']}",
    ]
    if "loadgen.lag_ms" in r:
        lag = r["loadgen.lag_ms"]
        lines.append(f"# loadgen lag p{100 * lag['q']:g} = "
                     f"{lag['value']:.3f} ms (n={lag['n']})")
    if r["trace"]:
        lines.append(f"# traced: {r['spans']} spans; traced vs untraced "
                     f"divergent outputs = {r['trace_divergent']}")
        for name, m in r["per_layer"].items():
            tag = ("  (not on this workload)" if not m["measured"]
                   else "  (computed)" if name in spec.COMPUTED else "")
            lines.append(f"{name:<36} {m['value']:>14.6g} {m['unit']}{tag}")
    else:
        for name, m in r["end_to_end"].items():
            lines.append(f"{name:<16} {m['value']:>14.6g} {m['unit']:<6} "
                         f"n={m['n']}")
        tail = r["p99_ms"]
        lines.append(f"{'p99_ms':<16} {tail['value']:>14.6g} {'ms':<6} "
                     f"n={tail['n']} at p{100 * tail['q']:g} (no bound)")
    return lines


def result(record: dict) -> dict:
    """The final JSON line: end-to-end or per-layer metrics by name."""
    table = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {"correct": record["mismatched"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in table.items()}}


def run_all(args) -> int:
    """Every workload in its own process; a summary table at the end."""
    rows, status = {}, 0
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = status or proc.returncode
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    print("# summary: " + " | ".join(rows))
    for m in table:
        cells = [f"{rows[w]['metrics'][m.name]['value']:>12.6g}"
                 for w in rows]
        print(f"{m.name:<36} {m.unit:<8} " + " ".join(cells))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        _load_program()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    print("\n".join(report(record)))
    print(json.dumps(result(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
