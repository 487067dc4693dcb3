"""Kernel-profile amortization: structure-invariant templates + planned SpMV.

Regenerates the profile experiment: per-call wall time of the fused-pattern
counter model at three warmth levels (cold full evaluation, warm without a
profile, warm with the cached profile), plus the end-to-end warm
``evaluate()`` comparison against the pre-profile session state and
against a pinned matrix (memoized fingerprint, no per-call hash).

Also runnable as a script for CI smoke runs::

    PYTHONPATH=src python benchmarks/bench_profile.py --quick

which writes the series to ``benchmarks/results/BENCH_profile.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench.engine_bench import profile_amortization

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _ratios(result) -> tuple[float, float, float]:
    """(model-overhead reduction, end-to-end speedup, pinning speedup) from
    the series rows."""
    per_call = dict(zip(result.column("series"),
                        result.column("per_call_ms")))
    overhead = dict(zip(result.column("series"),
                        result.column("model_overhead_ms")))
    # same clamp as the builder's notes: the profiled overhead sits within
    # timing noise of the numeric floor, so bound it by the resolution
    resolution = max(0.01 * per_call["numeric_floor"], 1e-6)
    model_x = (overhead["warm_unprofiled"]
               / max(overhead["warm_profiled"], resolution))
    e2e_x = (per_call["pre_profile_warm_e2e"]
             / max(per_call["engine_warm_e2e"], 1e-9))
    pinned_x = (per_call["engine_warm_e2e"]
                / max(per_call["engine_pinned_warm_e2e"], 1e-9))
    return model_x, e2e_x, pinned_x


def bench_profile(benchmark, record_experiment):
    result = benchmark.pedantic(profile_amortization, rounds=1, iterations=1)
    record_experiment(result)

    per_call = dict(zip(result.column("series"),
                        result.column("per_call_ms")))
    model_x, e2e_x, pinned_x = _ratios(result)

    # the acceptance claims: cached profiles cut the warm per-iteration
    # model-building overhead >= 5x and the end-to-end warm evaluate()
    # >= 1.5x on the Fig. 3 sweep workload; pinning the matrix (no
    # per-call content hash) makes the warm evaluate() >= 2x faster again
    assert model_x >= 5.0, f"model-overhead reduction {model_x:.2f}x < 5x"
    assert e2e_x >= 1.5, f"end-to-end warm speedup {e2e_x:.2f}x < 1.5x"
    assert pinned_x >= 2.0, f"pinned warm speedup {pinned_x:.2f}x < 2x"

    # sanity on the series shape: the floor is the cheapest, the cold path
    # the dearest of the single-call series, and the profiled warm call
    # lands within noise of the floor
    assert per_call["numeric_floor"] <= per_call["warm_profiled"] * 1.25
    assert per_call["warm_profiled"] < per_call["warm_unprofiled"]
    assert per_call["warm_unprofiled"] <= per_call["cold_full"] * 1.25


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small iteration count for CI smoke runs")
    ap.add_argument("--scale", type=float, default=None,
                    help="row-count scale in (0, 1] (default: REPRO_SCALE)")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero if the >=5x / >=1.5x / >=2x "
                         "targets are missed (wall-clock ratios are noisy "
                         "on shared runners, so CI records without "
                         "gating)")
    args = ap.parse_args(argv)

    iterations = 10 if args.quick else 30
    result = profile_amortization(scale=args.scale, iterations=iterations)
    result.print()

    model_x, e2e_x, pinned_x = _ratios(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "experiment": result.experiment,
        "title": result.title,
        "iterations": iterations,
        "series": [dict(zip(result.columns, row)) for row in result.rows],
        "model_overhead_reduction_x": model_x,
        "warm_e2e_speedup_x": e2e_x,
        "pinned_warm_e2e_x": pinned_x,
        "notes": result.notes,
    }
    out = RESULTS_DIR / "BENCH_profile.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    ok = model_x >= 5.0 and e2e_x >= 1.5 and pinned_x >= 2.0
    if not ok:
        print(f"targets missed: model {model_x:.2f}x (>=5 wanted), "
              f"e2e {e2e_x:.2f}x (>=1.5 wanted), pinned {pinned_x:.2f}x "
              f"(>=2 wanted)", file=sys.stderr)
    return 0 if ok or not args.check else 1


if __name__ == "__main__":
    raise SystemExit(main())
