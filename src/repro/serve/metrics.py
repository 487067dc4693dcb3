"""Live serving metrics: counters, histograms, JSON and Prometheus export.

Everything is streaming and bounded: histograms keep fixed log-spaced
buckets plus count/sum/min/max (no unbounded per-request samples), so a
long-lived server's metrics footprint is constant.  ``ServeMetrics`` is the
single lock-protected sink the server records into; ``snapshot()`` folds in
the queue/in-flight gauges and the engine's own cache statistics so one
call yields the full serving picture, exportable as JSON or as the
Prometheus text exposition format.
"""

from __future__ import annotations

import json
import threading

#: Default latency buckets (milliseconds), log-spaced 50us .. 10s.
DEFAULT_BUCKETS_MS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                      50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0)

#: Default micro-batch size buckets.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


class Histogram:
    """Fixed-bucket streaming histogram (Prometheus-style, cumulative le)."""

    def __init__(self, buckets=DEFAULT_BUCKETS_MS):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)   # last = +Inf overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucket-interpolated percentile estimate (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        lo = 0.0
        for i, bound in enumerate(self.buckets):
            c = self.counts[i]
            if seen + c >= rank and c > 0:
                frac = (rank - seen) / c
                return min(lo + frac * (bound - lo), self.max)
            seen += c
            lo = bound
        return self.max        # landed in the +Inf overflow bucket

    def to_dict(self) -> dict:
        # sorted key order, like every other metrics exporter: merged and
        # diffed across shards, so ordering is part of the contract
        # (bucket keys sort by bound -- they are data, not schema)
        return {
            "buckets": {str(b): c
                        for b, c in zip(self.buckets, self.counts)},
            "count": self.count,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "overflow": self.counts[-1],
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "sum": self.total,
        }


class ServeMetrics:
    """Lock-protected metrics sink for one :class:`PatternServer`."""

    COUNTERS = ("submitted", "admitted", "completed", "shed", "timeout",
                "rejected", "errors", "batches", "preempted",
                "scale_up", "scale_down")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = dict.fromkeys(self.COUNTERS, 0)
        self._wait_ms = Histogram()
        self._service_ms = Histogram()
        self._latency_ms = Histogram()
        self._batch_size = Histogram(BATCH_SIZE_BUCKETS)
        self._tiers: dict[str, dict] = {}

    # -------------------------------------------------------------- recording
    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    def observe_wait(self, ms: float) -> None:
        with self._lock:
            self._wait_ms.observe(ms)

    def observe_batch(self, size: int, service_ms_per_request) -> None:
        """Record one dispatched batch and its per-request service times."""
        with self._lock:
            self._counters["batches"] += 1
            self._batch_size.observe(size)
            for ms in service_ms_per_request:
                self._service_ms.observe(ms)

    def observe_latency(self, ms: float) -> None:
        with self._lock:
            self._latency_ms.observe(ms)

    def observe_tier(self, tier: str, status: str,
                     latency_ms: float | None = None,
                     slo_ms: float | None = None) -> None:
        """Record one terminal outcome against its service tier.

        SLO attainment counts every SLO-carrying request: completing
        within ``slo_ms`` attains; completing late — or not completing
        at all (shed/timeout/rejected/error) — misses.  Requests without
        an SLO only feed the per-tier status counts and latency
        histogram.
        """
        if not tier:
            return
        with self._lock:
            rec = self._tiers.get(tier)
            if rec is None:
                rec = self._tiers[tier] = {
                    "counts": {}, "latency": Histogram(),
                    "slo_ok": 0, "slo_miss": 0,
                }
            rec["counts"][status] = rec["counts"].get(status, 0) + 1
            if latency_ms is not None:
                rec["latency"].observe(latency_ms)
            if slo_ms is not None:
                if status == "ok" and latency_ms is not None \
                        and latency_ms <= slo_ms:
                    rec["slo_ok"] += 1
                else:
                    rec["slo_miss"] += 1

    def flow_totals(self) -> dict:
        """Monotonic wait/service totals for interval deltas (autoscaler)."""
        with self._lock:
            return {
                "completed": self._counters["completed"],
                "service_count": self._service_ms.count,
                "service_ms_sum": self._service_ms.total,
                "wait_count": self._wait_ms.count,
                "wait_ms_sum": self._wait_ms.total,
            }

    # -------------------------------------------------------------- exporting
    @staticmethod
    def _tier_dict(rec: dict) -> dict:
        judged = rec["slo_ok"] + rec["slo_miss"]
        return {
            "counts": {k: rec["counts"][k] for k in sorted(rec["counts"])},
            "latency_ms": rec["latency"].to_dict(),
            "slo_attainment": (rec["slo_ok"] / judged) if judged else None,
            "slo_miss": rec["slo_miss"],
            "slo_ok": rec["slo_ok"],
        }

    def snapshot(self, queue_depth: int = 0, in_flight: int = 0,
                 engine_stats=None, phases=None,
                 workers: int | None = None) -> dict:
        """One consistent dict of counters, gauges, histograms, hit-rates.

        ``phases``, when given, is the span-derived per-phase aggregate from
        an installed :class:`repro.trace.Tracer` (``phase_totals()``), so a
        traced server exports queue-wait/profile-build/kernel-execute time
        next to its endpoint histograms.
        """
        with self._lock:
            # sorted key order at every level: shard-level snapshots are
            # merged counter-by-counter by the cluster router, and the
            # merge (and its tests) only stay deterministic when every
            # exporter agrees on ordering
            snap = {
                "counters": {k: self._counters[k]
                             for k in sorted(self._counters)},
                "gauges": {"in_flight": in_flight,
                           "queue_depth": queue_depth},
                "histograms": {
                    "batch_size": self._batch_size.to_dict(),
                    "latency_ms": self._latency_ms.to_dict(),
                    "service_ms": self._service_ms.to_dict(),
                    "wait_ms": self._wait_ms.to_dict(),
                },
                "tiers": {name: self._tier_dict(self._tiers[name])
                          for name in sorted(self._tiers)},
            }
        if workers is not None:
            snap["gauges"]["workers_target"] = workers
        if phases is not None:
            snap["phases"] = {k: phases[k] for k in sorted(phases)}
        if engine_stats is not None:
            snap["engine"] = engine_stats.to_dict()
        return {k: snap[k] for k in sorted(snap)}

    def to_json(self, queue_depth: int = 0, in_flight: int = 0,
                engine_stats=None, indent: int | None = 2,
                phases=None, workers: int | None = None) -> str:
        return json.dumps(self.snapshot(queue_depth, in_flight, engine_stats,
                                        phases=phases, workers=workers),
                          indent=indent)

    def to_prometheus(self, queue_depth: int = 0, in_flight: int = 0,
                      engine_stats=None, phases=None,
                      workers: int | None = None) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        snap = self.snapshot(queue_depth, in_flight, engine_stats,
                             phases=phases, workers=workers)
        lines: list[str] = []

        def counter(name, help_, value, labels=""):
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{labels} {value}")

        def gauge(name, help_, value):
            lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")

        lines.append("# HELP repro_serve_requests_total requests by "
                     "terminal status")
        lines.append("# TYPE repro_serve_requests_total counter")
        for status in ("completed", "shed", "timeout", "rejected", "errors"):
            lines.append(f'repro_serve_requests_total'
                         f'{{status="{status}"}} '
                         f'{snap["counters"][status]}')
        counter("repro_serve_submitted_total",
                "requests offered to the admission queue",
                snap["counters"]["submitted"])
        counter("repro_serve_batches_total", "micro-batches dispatched",
                snap["counters"]["batches"])
        counter("repro_serve_preempted_total",
                "queued requests evicted by higher-priority arrivals",
                snap["counters"]["preempted"])
        lines.append("# HELP repro_serve_scale_events_total autoscaler "
                     "worker-target changes by direction")
        lines.append("# TYPE repro_serve_scale_events_total counter")
        for direction in ("down", "up"):
            lines.append(f'repro_serve_scale_events_total'
                         f'{{direction="{direction}"}} '
                         f'{snap["counters"]["scale_" + direction]}')
        gauge("repro_serve_queue_depth", "requests waiting for dispatch",
              snap["gauges"]["queue_depth"])
        gauge("repro_serve_in_flight", "batches currently evaluating",
              snap["gauges"]["in_flight"])
        if "workers_target" in snap["gauges"]:
            gauge("repro_serve_workers_target",
                  "current autoscaled worker-slot target",
                  snap["gauges"]["workers_target"])
        for hname, hist in snap["histograms"].items():
            metric = f"repro_serve_{hname}"
            lines.append(f"# HELP {metric} serving histogram ({hname})")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, c in hist["buckets"].items():
                cumulative += c
                lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
            cumulative += hist["overflow"]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {hist['sum']}")
            lines.append(f"{metric}_count {hist['count']}")
        if snap["tiers"]:
            lines.append("# HELP repro_serve_tier_requests_total terminal "
                         "outcomes by tier and status")
            lines.append("# TYPE repro_serve_tier_requests_total counter")
            for tname, tier in snap["tiers"].items():
                for status, n in tier["counts"].items():
                    lines.append(
                        f'repro_serve_tier_requests_total'
                        f'{{tier="{tname}",status="{status}"}} {n}')
            lines.append("# HELP repro_serve_tier_latency_ms per-tier "
                         "end-to-end latency")
            lines.append("# TYPE repro_serve_tier_latency_ms histogram")
            for tname, tier in snap["tiers"].items():
                hist = tier["latency_ms"]
                cumulative = 0
                for bound, c in hist["buckets"].items():
                    cumulative += c
                    lines.append(
                        f'repro_serve_tier_latency_ms_bucket'
                        f'{{tier="{tname}",le="{bound}"}} {cumulative}')
                cumulative += hist["overflow"]
                lines.append(f'repro_serve_tier_latency_ms_bucket'
                             f'{{tier="{tname}",le="+Inf"}} {cumulative}')
                lines.append(f'repro_serve_tier_latency_ms_sum'
                             f'{{tier="{tname}"}} {hist["sum"]}')
                lines.append(f'repro_serve_tier_latency_ms_count'
                             f'{{tier="{tname}"}} {hist["count"]}')
            lines.append("# HELP repro_serve_tier_slo_attainment fraction "
                         "of SLO-carrying requests served within SLO")
            lines.append("# TYPE repro_serve_tier_slo_attainment gauge")
            for tname, tier in snap["tiers"].items():
                att = tier["slo_attainment"]
                if att is not None:
                    lines.append(f'repro_serve_tier_slo_attainment'
                                 f'{{tier="{tname}"}} {att}')
        for phase, tot in snap.get("phases", {}).items():
            lines.append(
                f'repro_trace_phase_ms_total{{phase="{phase}"}} '
                f'{tot["total_ms"]}')
            lines.append(
                f'repro_trace_phase_count_total{{phase="{phase}"}} '
                f'{tot["count"]}')
        if "engine" in snap:
            eng = snap["engine"]
            gauge("repro_engine_plan_hit_rate",
                  "plan-cache hit rate of the serving engine",
                  eng["plan_hit_rate"])
            gauge("repro_engine_bytes_cached",
                  "bytes held by the engine plan+artifact caches",
                  eng["bytes_cached"])
            counter("repro_engine_profiles_built_total",
                    "kernel profiles built by the serving engine",
                    eng["profiles_built"])
            counter("repro_engine_transposes_built_total",
                    "csr2csc transposes built by the serving engine",
                    eng["transposes_built"])
            counter("repro_engine_evictions_total",
                    "LRU evictions in the serving engine",
                    eng["evictions"])
            lines.append("# HELP repro_engine_artifact_entries artifact-LRU "
                         "entries by kind")
            lines.append("# TYPE repro_engine_artifact_entries gauge")
            for kind in sorted(eng.get("artifact_kinds", {})):
                lines.append(
                    f'repro_engine_artifact_entries{{kind="{kind}"}} '
                    f'{eng["artifact_kinds"][kind]}')
        return "\n".join(lines) + "\n"
