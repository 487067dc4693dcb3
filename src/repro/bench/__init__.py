"""Benchmark harness reproducing every table and figure of the paper."""

from . import analyze_bench, cluster_bench, engine_bench, figures, \
    fusion_bench, host_analyze_bench, serve_bench, slo_bench, tables, \
    trace_bench  # noqa: F401
from .harness import REGISTRY, ExperimentResult, register, resolve_scale, \
    run_all

__all__ = ["REGISTRY", "ExperimentResult", "register", "resolve_scale",
           "run_all"]
