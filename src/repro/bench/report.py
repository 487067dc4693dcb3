"""EXPERIMENTS.md generator: run every experiment, record paper-vs-measured.

Usage::

    python -m repro.bench.report [output_path]

Runs all registered experiments at the default scales (honouring
``REPRO_SCALE`` / ``REPRO_FULL_SCALE``) and writes the consolidated report.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from .harness import REGISTRY, ExperimentResult

#: paper-reported headline values per experiment, for the summary table
PAPER_HEADLINES: dict[str, str] = {
    "engine": "Fig. 2 amortization as a session guarantee (transpose built "
              "once; plans/tuning reused across iterations)",
    "profile": "structure-invariant inspection hoisted out of the iteration, "
               "and a pinned matrix's fingerprint memoized instead of "
               "re-hashed per call (SystemML-style plan reuse; no paper "
               "headline)",
    "serve": "fingerprint-aware micro-batching vs naive FIFO under a "
             "bounded artifact LRU (serving-layer extension; no paper "
             "headline)",
    "slo": "tiered EDF scheduling with weighted fair sharing: interactive "
           "tenants meet a latency SLO that arrival-order dispatch "
           "structurally cannot (serving-layer extension; no paper "
           "headline)",
    "cluster": "fingerprint-sharded serving: aggregate cache capacity "
               "scales with shard count; hot keys replicated across "
               "shards (distributed extension, cf. 1.5D replication "
               "arXiv:2203.07673; no paper headline)",
    "trace": "span-level phase attribution of serving latency "
             "(observability extension; no paper headline)",
    "fusion": "SystemML-style cost-based operator fusion: the optimizer "
              "rediscovers the Eq.-1 kernel from the counter model "
              "(plan-selection extension, arXiv:1801.00829; no paper "
              "headline)",
    "analyze": "static race/barrier/codegen checking of the fused kernels, "
               "cross-validated by a dynamic sanitizer (correctness gate; "
               "no paper headline)",
    "host-analyze": "lock-discipline checking of the serve/cluster/engine "
                    "host stack, cross-validated by a dynamic lock-order "
                    "witness (correctness gate; no paper headline)",
    "figure2": "avg ~35x vs cuSPARSE, max 67x at small n; ~3.5x fewer loads",
    "figure3": "avg 20.33x / 14.66x / 9.28x vs cuSPARSE / BIDMat-GPU / "
               "BIDMat-CPU",
    "figure4": "avg 26.21x / 19.62x / 13.41x (full pattern)",
    "figure5": "avg 4.27x / 2.18x / 15.33x vs cuBLAS / BIDMat-GPU / "
               "BIDMat-CPU (dense)",
    "figure6": "~1,200 settings; model within 2% of optimum, top-1%",
    "table1": "5 instantiations x 5 algorithms coverage matrix",
    "table2": "pattern share of CPU time: KDD 82.9%, HIGGS 99.4%",
    "table4": "KDD2010: 110x / 72.6x / 66.9x vs cuSPARSE (50.5/78.3/85.2 ms "
              "fused)",
    "table5": "end-to-end LR-CG: HIGGS 4.8x (32 it), KDD 9x (100 it)",
    "table6": "SystemML: total 1.2x/1.9x, fused-kernel-only 11.2x/4.1x",
}


def measured_headline(name: str, res: ExperimentResult) -> str:
    """One-line summary of the measured outcome per experiment."""
    try:
        if name == "engine":
            rows = {r[0]: r for r in res.rows}
            exp = rows["cusparse-explicit"]
            return (f"explicit-transpose {exp[5]:.1f}x amortized over "
                    f"{res.title.split()[3]} iters, hit-rate {exp[6]:.2f}, "
                    f"{exp[7]:.0f} transpose built")
        if name == "profile":
            per_call = dict(zip(res.column("series"),
                                res.column("per_call_ms")))
            overhead = dict(zip(res.column("series"),
                                res.column("model_overhead_ms")))
            e2e = (per_call["pre_profile_warm_e2e"]
                   / per_call["engine_warm_e2e"])
            pinned = (per_call["engine_warm_e2e"]
                      / per_call["engine_pinned_warm_e2e"])
            return (f"warm model overhead {overhead['warm_unprofiled']:.1f} "
                    f"-> {overhead['warm_profiled']:.2f} ms/call; warm "
                    f"e2e {e2e:.1f}x; pinned warm e2e "
                    f"{per_call['engine_pinned_warm_e2e']:.1f} ms/call vs "
                    f"{per_call['engine_warm_e2e']:.1f} unpinned "
                    f"({pinned:.1f}x), at the "
                    f"{per_call['numeric_floor']:.1f} ms numeric floor")
        if name == "analyze":
            rows = {r[0]: r for r in res.rows}
            clean = sum(r[1] for s, r in rows.items()
                        if not s.startswith("badkernels"))
            corpus = [r[2] for s, r in rows.items()
                      if s.startswith("badkernels")]
            return (f"{clean} findings over the shipped + generated "
                    f"scopes; corpus: {'; '.join(corpus) or 'skipped'}")
        if name == "host-analyze":
            rows = {r[0]: r for r in res.rows}
            active = sum(r[1] for s, r in rows.items()
                         if s.startswith("shipped"))
            extra = [r[2] for s, r in rows.items()
                     if not s.startswith("shipped")]
            return (f"{active} active findings over the shipped host "
                    f"stack; {'; '.join(extra) or 'corpus skipped'}")
        if name == "fusion":
            sp = dict(zip(res.column("script"), res.column("auto_speedup")))
            eq1 = min(sp[s] for s in ("linreg-cg", "logreg", "svm"))
            cell = min(sp[s] for s in ("cg-update", "row-scale"))
            return (f"auto >= {eq1:.1f}x vs unfused on the Eq.-1 scripts, "
                    f">= {cell:.1f}x on cell-wise scripts the fixed "
                    f"rewriter leaves unfused")
        if name == "figure2":
            sp = res.column("speedup")
            lr = res.column("load_ratio")
            return (f"avg {np.mean(sp):.1f}x, max {max(sp):.1f}x at "
                    f"n={res.rows[int(np.argmax(sp))][0]}; "
                    f"{np.mean(lr):.1f}x fewer loads")
        if name in ("figure3", "figure4", "figure5"):
            a = np.mean(res.column("cusparse_x"))
            b = np.mean(res.column("bidmat-gpu_x"))
            c = np.mean(res.column("bidmat-cpu_x"))
            return f"avg {a:.1f}x / {b:.1f}x / {c:.1f}x"
        if name == "figure6":
            q = dict(zip(res.column("quantity"), res.column("value")))
            return (f"{q['settings_explored']:.0f} settings; model gap "
                    f"{q['model_gap_pct']:.2f}%, rank "
                    f"{q['model_rank_pct']:.1f}%")
        if name == "table1":
            marks = sum(r[1:].count("x") for r in res.rows)
            return f"{marks} traced cells; paper coverage complete"
        if name == "table2":
            rows = {r[0]: r for r in res.rows}
            return (f"KDD-like {rows['KDD2010-like'][1]:.1f}%, HIGGS-like "
                    f"{rows['HIGGS-like'][1]:.1f}% pattern share")
        if name == "table4":
            sp = res.column("speedup")
            return (f"{sp[0]:.0f}x / {sp[1]:.0f}x / {sp[2]:.0f}x; fused "
                    f"{res.rows[0][1]:.2f}/{res.rows[1][1]:.2f}/"
                    f"{res.rows[2][1]:.2f} model-ms")
        if name == "table5":
            rows = {r[0]: r for r in res.rows}
            return (f"HIGGS-like {rows['HIGGS-like'][4]:.1f}x (32 it), "
                    f"KDD-like {rows['KDD2010-like'][4]:.1f}x (100 it)")
        if name == "cluster":
            cols = res.columns
            rps = {r[cols.index("shards")]: r[cols.index("throughput_rps")]
                   for r in res.rows if r[0] == "scaling"}
            shards = sorted(rps)
            warm = {r[cols.index("shards")]: r[cols.index("warm_fraction")]
                    for r in res.rows if r[0] == "scaling"}
            divergent = sum(r[cols.index("divergent")] for r in res.rows)
            return (f"{rps[shards[-1]] / rps[shards[0]]:.2f}x throughput "
                    f"{shards[0]} -> {shards[-1]} shards (warm "
                    f"{warm[shards[0]]:.2f} -> {warm[shards[-1]]:.2f}), "
                    f"{divergent} divergent outputs")
        if name == "serve":
            rows = {r[0]: r for r in res.rows}
            ratio = rows["fifo"][4] / rows["fingerprint"][4]
            return (f"p99 {rows['fifo'][4]:.1f} -> "
                    f"{rows['fingerprint'][4]:.1f} ms ({ratio:.1f}x), "
                    f"{rows['fingerprint'][10]:.0f} divergent outputs")
        if name == "slo":
            rows = {r[0]: r for r in res.rows}
            cols = res.columns
            att, p99 = cols.index("slo_attainment"), \
                cols.index("interactive_p99_ms")
            ratio = rows["fifo"][p99] / max(rows["edf"][p99], 1e-9)
            return (f"interactive SLO attainment "
                    f"{100 * rows['fifo'][att]:.0f}% -> "
                    f"{100 * rows['edf'][att]:.0f}% under tiered EDF; "
                    f"interactive p99 {ratio:.1f}x better")
        if name == "trace":
            q = dict(zip(res.column("quantity"), res.column("value")))
            return (f"coverage {100 * q['coverage']:.1f}% of "
                    f"{q['measured_ms']:.0f} ms over {q['spans']:.0f} "
                    f"spans; queue {q['queue_wait_ms']:.0f} ms, kernels "
                    f"{q['kernel_execute_ms']:.0f} ms")
        if name == "table6":
            rows = {r[0]: r for r in res.rows}
            return (f"total {rows['HIGGS-like'][2]:.1f}x/"
                    f"{rows['KDD2010-like'][2]:.1f}x, kernel-only "
                    f"{rows['HIGGS-like'][3]:.1f}x/"
                    f"{rows['KDD2010-like'][3]:.1f}x")
    except Exception as exc:  # pragma: no cover - report must not die
        return f"(summary unavailable: {exc})"
    return "see detail table"


HEADER = """# EXPERIMENTS — paper vs measured

Generated by `python -m repro.bench.report`.  Every table and figure of the
paper's evaluation section is regenerated by a builder in `repro.bench`
(wrapped by `benchmarks/bench_*.py` with shape assertions).  Times are
**model milliseconds** on the simulated GTX Titan: absolute values are not
comparable to the paper's hardware; orderings and ratios are the reproduced
quantities.

Scaling: sparse sweeps default to m = 100k rows (paper: 500k), dense to
m = 20k (paper: 500k), KDD-like stand-ins to 0.4% of the original
(60k x 120k, with device caches scaled proportionally so cache-pressure
phenomena survive the reduction — see DESIGN.md §5).  `REPRO_FULL_SCALE=1`
lifts all scales.

## Summary

| Experiment | Paper | Measured |
|---|---|---|
"""


NOTES = """
## Known deviations and why

* **Fig. 2-4 magnitudes run below the paper at reduced scale.**  Speedups
  grow with input size as fixed costs (kernel launches, barriers) amortize;
  the scale-invariance tests verify the ratios only *increase* toward the
  paper's operating point (m = 500k).  The shape claims — largest win at
  small n, monotone decline, cuSPARSE > BIDMat-GPU > BIDMat-CPU ordering —
  hold at every scale.
* **Fig. 2's load ratio measures ~5x vs the paper's ~3.5x.**  Our structural
  model charges cuSPARSE's transpose mode for the row-recovery and semaphore
  traffic explicitly; the paper's profiler counted only load transactions.
* **Fig. 6 rank: the model's pick is within 2% of the optimum (the paper's
  headline claim) but only at the ~26th percentile of settings.**  The model
  time surface is smoother than real silicon, so hundreds of settings tie
  within fractions of a percent; on hardware most of those ties spread out
  and the paper's "top 1%" emerges.
* **Table 5's KDD-like end-to-end speedup overshoots (24x vs 9x).**  With
  the proportionally scaled cache (DESIGN.md §5.5), the baseline's
  per-iteration transpose SpMV is fully pathological every iteration, while
  in the paper some of its cost hides behind other work; the HIGGS-like row
  (2.2x vs 4.8x) errs in the opposite, conservative direction.
* **Times are model milliseconds.**  Absolute values are meaningless against
  real hardware; every comparison in this file is a ratio of two numbers
  produced by the same machinery.
"""


#: experiments measuring host wall-clock (not model time) run first, before
#: the long model-time builders perturb the process (allocator arenas, CPU
#: caches) and skew the timed comparisons
WALL_CLOCK_FIRST = ("profile", "serve", "slo", "cluster", "trace")


def generate(path: str = "EXPERIMENTS.md") -> str:
    results: dict[str, ExperimentResult] = {}
    order = [n for n in WALL_CLOCK_FIRST if n in REGISTRY]
    order += [n for n in sorted(REGISTRY) if n not in order]
    for name in order:
        t0 = time.time()
        results[name] = REGISTRY[name](scale=None)
        print(f"{name}: done in {time.time() - t0:.1f}s", file=sys.stderr)

    lines = [HEADER]
    for name in sorted(results):
        lines.append(f"| {name} | {PAPER_HEADLINES.get(name, '-')} | "
                     f"{measured_headline(name, results[name])} |")
    lines.append(NOTES)
    lines.append("\n## Detail\n")
    for name in sorted(results):
        lines.append(results[name].to_markdown())
    text = "\n".join(lines)
    with open(path, "w") as f:
        f.write(text)
    return text


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    generate(out)
    print(f"wrote {out}", file=sys.stderr)
