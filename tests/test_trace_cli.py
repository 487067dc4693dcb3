"""``repro trace``: Chrome JSON output, phase summary, attribution gate."""

import json

import pytest

from repro import cli
from repro.trace import validate_chrome


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_engine_loop_mode_writes_valid_chrome_trace(tmp_path, capsys):
    chrome = tmp_path / "trace.json"
    code, out, err = run_cli(
        capsys, "trace", "--matrix", "3000x64:0.02", "--iterations", "20",
        "--chrome", str(chrome))
    assert code == 0, err
    doc = json.loads(chrome.read_text())
    assert validate_chrome(doc) > 0
    names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
    assert {"evaluate", "fingerprint"} <= names
    # kernel spans: the fused kernel brackets each Algorithm-2 phase
    assert {"spmv", "xt-accumulate"} <= names
    # top-down phase table plus the attribution block
    assert "phase" in out and "self ms" in out
    assert "engine.evaluate" in out
    assert "phase attribution (per-request end-to-end):" in out
    assert "attributed:" in out


def test_engine_loop_attribution_within_10_percent(capsys):
    code, out, err = run_cli(capsys, "trace", "--matrix", "3000x64:0.02",
                             "--iterations", "25")
    assert code == 0, err
    line = next(ln for ln in out.splitlines() if "attributed:" in ln)
    coverage = float(line.rsplit("(", 1)[1].rstrip("%)")) / 100.0
    assert abs(coverage - 1.0) <= 0.10


def test_replay_mode_attributes_serve_phases(tmp_path, capsys):
    workload = tmp_path / "wl.json"
    chrome = tmp_path / "serve-trace.json"
    code, _, err = run_cli(
        capsys, "loadgen", str(workload), "--requests", "40",
        "--matrices", "3", "--rows", "800", "--cols", "48",
        "--mode", "closed")
    assert code == 0, err
    code, out, err = run_cli(
        capsys, "trace", "--replay", str(workload), "--chrome", str(chrome))
    assert code == 0, err
    doc = json.loads(chrome.read_text())
    assert validate_chrome(doc) > 0
    names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
    assert {"queue-wait", "batch", "completion", "request"} <= names
    assert "serve.queue-wait" in out
    # queue-wait + evaluate + completion explain the measured latency sum
    line = next(ln for ln in out.splitlines() if "attributed:" in ln)
    coverage = float(line.rsplit("(", 1)[1].rstrip("%)")) / 100.0
    assert abs(coverage - 1.0) <= 0.10


def test_impossible_tolerance_fails_with_diagnostic(capsys):
    code, _, err = run_cli(capsys, "trace", "--matrix", "500x32:0.05",
                           "--iterations", "5",
                           "--coverage-tolerance", "0.0")
    assert code == 1
    assert "attribution coverage" in err


def test_trace_requires_a_mode(capsys):
    with pytest.raises(SystemExit):
        cli.main(["trace"])


def test_missing_replay_file_is_a_one_line_error(capsys):
    with pytest.raises(SystemExit, match="workload file not found"):
        cli.main(["trace", "--replay", "/nonexistent/wl.json"])
