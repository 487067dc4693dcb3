"""Top-down phase summary and end-to-end cost attribution over a span tree.

:func:`aggregate` folds a span list into per-phase rows with *total* time
(span open -> close) and *self* time (total minus direct children), so
nested phases — kernel execution inside an engine evaluation inside a serve
batch — sum sensibly instead of double-counting.  :func:`to_text` renders
the classic profiler table, hottest phase first.

:func:`attribution` is the acceptance check behind ``repro trace``: given
the spans of a traced run and the measured end-to-end latency, it sums the
per-request phases (queue wait, evaluation — itself decomposed into
profile/transpose builds and kernel execution — and completion wait) and
reports what fraction of the measured time the trace explains.  A healthy
trace attributes within 10%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .span import Span


@dataclass
class PhaseStat:
    """Aggregated totals for one ``category.name`` phase."""

    name: str
    category: str
    count: int = 0
    total_ms: float = 0.0
    self_ms: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.category}.{self.name}" if self.category else self.name

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0


def aggregate(spans: list[Span]) -> list[PhaseStat]:
    """Per-phase totals with self time, ordered by total time descending."""
    child_ms: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_ms[s.parent_id] = child_ms.get(s.parent_id, 0.0) \
                + s.duration_ms
    stats: dict[tuple[str, str], PhaseStat] = {}
    for s in spans:
        st = stats.get((s.category, s.name))
        if st is None:
            st = stats[(s.category, s.name)] = PhaseStat(s.name, s.category)
        st.count += 1
        st.total_ms += s.duration_ms
        st.self_ms += max(0.0, s.duration_ms - child_ms.get(s.id, 0.0))
        for k, v in s.counters.items():
            st.counters[k] = st.counters.get(k, 0) + v
    return sorted(stats.values(), key=lambda st: -st.total_ms)


def to_text(stats: list[PhaseStat]) -> str:
    """Render the top-down phase table (hottest total first)."""
    total_self = sum(st.self_ms for st in stats) or 1.0
    lines = [f"{'phase':<28} {'count':>7} {'total ms':>10} {'self ms':>10} "
             f"{'self %':>7} {'mean ms':>9}"]
    for st in stats:
        lines.append(
            f"{st.key:<28} {st.count:>7d} {st.total_ms:>10.3f} "
            f"{st.self_ms:>10.3f} {100 * st.self_ms / total_self:>6.1f}% "
            f"{st.mean_ms:>9.4f}")
        if st.counters:
            extras = ", ".join(f"{k}={v:g}" for k, v in
                               sorted(st.counters.items()))
            lines.append(f"{'':<28}   {extras}")
    return "\n".join(lines)


def _total(stats: dict[str, PhaseStat], key: str) -> float:
    st = stats.get(key)
    return st.total_ms if st is not None else 0.0


def attribution(spans: list[Span], measured_ms: float) -> dict:
    """Explain ``measured_ms`` of end-to-end latency from the span tree.

    ``measured_ms`` is the sum of per-request end-to-end latencies the run
    measured *outside* the tracer (serve response latencies, or per-call
    walls for an engine loop).  Returns the per-phase decomposition plus
    ``coverage`` = attributed / measured; the ``repro trace`` gate requires
    ``|coverage - 1| <= 0.1``.
    """
    stats = {st.key: st for st in aggregate(spans)}
    queue_wait = sum(s.duration_ms for s in spans
                     if s.name == "queue-wait"
                     and s.args.get("status", "ok") == "ok")
    completion = _total(stats, "serve.completion")
    # one span per evaluated request: engine.request under serve/batched
    # paths, bare engine.evaluate for direct engine loops
    evaluate = _total(stats, "engine.request") or \
        _total(stats, "engine.evaluate")
    attributed = queue_wait + evaluate + completion
    profile_build = _total(stats, "engine.profile-build") \
        + _total(stats, "engine.transpose-build")
    kernel = sum(st.total_ms for st in stats.values()
                 if st.category == "kernel")
    return {
        "measured_ms": measured_ms,
        "attributed_ms": attributed,
        "coverage": attributed / measured_ms if measured_ms else 0.0,
        "queue_wait_ms": queue_wait,
        "evaluate_ms": evaluate,
        "completion_ms": completion,
        "profile_build_ms": profile_build,
        "kernel_execute_ms": kernel,
        "evaluate_other_ms": max(0.0, evaluate - profile_build - kernel),
    }


def attribution_text(att: dict) -> str:
    """Human-readable attribution block for the CLI."""
    cov = att["coverage"]
    lines = [
        "phase attribution (per-request end-to-end):",
        f"  queue-wait:       {att['queue_wait_ms']:10.3f} ms",
        f"  evaluate:         {att['evaluate_ms']:10.3f} ms",
        f"    profile-build:  {att['profile_build_ms']:10.3f} ms",
        f"    kernel-execute: {att['kernel_execute_ms']:10.3f} ms",
        f"    other (plan/fingerprint/dispatch): "
        f"{att['evaluate_other_ms']:.3f} ms",
        f"  completion-wait:  {att['completion_ms']:10.3f} ms",
        f"  attributed:       {att['attributed_ms']:10.3f} ms of "
        f"{att['measured_ms']:.3f} ms measured ({100 * cov:.1f}%)",
    ]
    return "\n".join(lines)
