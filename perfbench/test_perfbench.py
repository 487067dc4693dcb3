"""Self-tests of the benchmark (not of the program it measures).

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
workloads run here at a reduced size so the file finishes in well under a
minute; the metric names, units and accounting are the same.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro.core import api  # noqa: E402
from repro.serve import ServeResponse  # noqa: E402
from verify import digest  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def small(monkeypatch):
    """Shrink the inputs: a 3k x 6k KDD-like matrix, short backlogs."""
    monkeypatch.setattr(spec, "KDD_SCALE", 0.0002)
    monkeypatch.setattr(spec, "BACKLOG", 40)
    monkeypatch.setattr(spec, "BURSTS", 2)
    monkeypatch.setattr(run, "OUT", ROOT / "perfbench" / "out" / "selftest")


def _bench_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def test_benchmark_json_matches_the_runner():
    doc = _bench_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in spec.WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]


def test_names_units_and_bounds_are_within_the_contract():
    doc = _bench_json()
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer")
             for x in doc[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for k in ("end_to_end", "per_layer") for m in doc[k])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(doc)) <= 64 * 1024


def test_forced_shed_and_wrong_output_count_in_failed_share():
    bench = workloads.RequestBench("serve", 0, 1.0)
    sents = [bench._sent(k, d) for k, d in enumerate(bench.rate[:4])]
    for s in sents:
        res = api.evaluate(bench.mats[s.matrix], s.req.y, z=s.req.y,
                           beta=spec.BETA, strategy=spec.STRATEGY)
        s.resp = ServeResponse(id=s.k, status="ok", result=res)
    sents[1].resp = ServeResponse(id=1, status="shed",
                                  reason="admission queue full")
    wrong = sents[2].resp.result
    wrong.output = np.nextafter(wrong.output, np.inf)   # one ulp off
    outcome = workloads.Outcome()
    bench.verify(sents, outcome)
    assert (outcome.attempted, outcome.failed) == (4, 2)
    assert outcome.by_reason == {"shed": 1, "mismatch": 1}
    assert outcome.failed_share == pytest.approx(2 / 4)
    assert outcome.ok_share == pytest.approx(2 / 4)
    assert sents[2].mismatch and not sents[0].mismatch


def test_forced_wrong_solve_counts_in_failed_share(small):
    bench = workloads.SolveBench("lrcg", 0, 1.0)
    bench.prog = bench.build()
    solves = []
    for k in range(2):
        w, it = bench.solve(bench.prog, bench.target(k))
        if k == 1:
            w = w.copy()
            w[0] = np.nextafter(w[0], np.inf)        # one ulp off
        solves.append(workloads.Solve(k, 0.0, digest(w), it))
    outcome = workloads.Outcome()
    bench.verify(solves, outcome)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.by_reason == {"mismatch": 1}


@pytest.mark.parametrize("name", ["lrcg", "serve"])
def test_untraced_and_traced_runs(small, name):
    plain = run.measure(name, 3, 1.0, traced=False)
    assert plain["failed"] == 0 and plain["mismatched"] == 0
    out = run.result(plain)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == \
        [(m.name, m.unit) for m in spec.END_TO_END]
    assert all(v["value"] > 0 for v in out["metrics"].values())
    lines = run.report(plain)
    assert any(line.startswith("# failed_share = 0/") for line in lines)

    traced = run.measure(name, 3, 1.0, traced=True)
    assert traced["failed"] == 0 and traced["trace_divergent"] == 0
    out = run.result(traced)
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == \
        [(m.name, m.unit) for m in spec.PER_LAYER]
    layer = traced["per_layer"]
    assert layer["engine.evaluate_ms"]["value"] > 0
    assert layer["kernels.floor_ms"]["value"] > 0
    assert 0.9 <= layer["bench.coverage"]["value"] <= 1.1


def test_gpu_counts_repeat_exactly(small):
    first, second = (run.measure("lrcg", 5, 1.0, traced=True)["per_layer"]
                     for _ in range(2))
    for key in ("gpu.model_ms_per_eval", "gpu.global_load_tx_per_eval",
                "gpu.atomic_global_ops_per_eval", "gpu.launches_per_iter",
                "ml.iterations"):
        assert first[key]["value"] == second[key]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lrcg",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
