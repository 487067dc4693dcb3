"""Cluster-level metrics: merge per-shard snapshots into one export.

Every shard exports the same :meth:`ServeMetrics.snapshot` shape with
sorted keys at every level (that invariant is pinned by
``tests/test_serve_metrics.py``); this module folds N of those dicts into
one aggregate — counters sum, histograms merge bucket-by-bucket (all
shards share the same bucket bounds, so a cumulative-le merge is exact;
means and percentile estimates are recomputed from the merged buckets),
gauges sum, and engine stats sum where summing makes sense (hits, misses,
bytes) with the hit rate recomputed from the merged totals.

``cluster_prometheus`` renders the router's full snapshot (aggregate +
per-shard + routing counters) as one Prometheus text exposition, with
per-shard series labelled ``shard="<id>"``.
"""

from __future__ import annotations


def merge_counters(dicts: list[dict]) -> dict:
    """Sum numeric values key-by-key; output keys sorted."""
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return {k: out[k] for k in sorted(out)}


def merge_histograms(hists: list[dict]) -> dict:
    """Merge ``Histogram.to_dict()`` exports sharing the same bounds."""
    if not hists:
        return {"buckets": {}, "count": 0, "max": 0.0, "mean": 0.0,
                "min": 0.0, "overflow": 0, "p50": 0.0, "p99": 0.0,
                "sum": 0.0}
    buckets: dict[str, int] = {b: 0 for b in hists[0]["buckets"]}
    count = overflow = 0
    total = 0.0
    lo = float("inf")
    hi = float("-inf")
    for h in hists:
        if set(h["buckets"]) != set(buckets):
            raise ValueError("cannot merge histograms with different "
                             "bucket bounds")
        for b, c in h["buckets"].items():
            buckets[b] += c
        count += h["count"]
        total += h["sum"]
        overflow += h["overflow"]
        if h["count"]:
            lo = min(lo, h["min"])
            hi = max(hi, h["max"])

    def percentile(q: float) -> float:
        if count == 0:
            return 0.0
        rank = q * count
        seen = 0
        prev = 0.0
        for b in sorted(buckets, key=float):
            c = buckets[b]
            if seen + c >= rank and c > 0:
                frac = (rank - seen) / c
                return min(prev + frac * (float(b) - prev), hi)
            seen += c
            prev = float(b)
        return hi

    return {
        "buckets": buckets,
        "count": count,
        "max": hi if count else 0.0,
        "mean": total / count if count else 0.0,
        "min": lo if count else 0.0,
        "overflow": overflow,
        "p50": percentile(0.50),
        "p99": percentile(0.99),
        "sum": total,
    }


#: EngineStats fields where a cluster-wide sum is meaningful.
_ENGINE_SUM_FIELDS = (
    "artifact_bytes", "artifact_hits", "artifact_misses", "batch_requests",
    "batch_wall_ms", "batches", "bytes_cached", "calls", "cold_calls",
    "cold_model_ms", "evictions", "fusion_plans_built", "invalidations",
    "kernels_compiled", "pinned_fingerprint_hits", "plan_entries",
    "plan_hits", "plan_misses", "profiles_built", "transposes_built",
    "warm_calls", "warm_model_ms",
)


def merge_engine_stats(stats: list[dict]) -> dict:
    """Sum summable EngineStats fields; recompute the hit rate."""
    out: dict = {f: 0 for f in _ENGINE_SUM_FIELDS
                 if any(f in s for s in stats)}
    kinds: dict[str, int] = {}
    batch_max = 0
    for s in stats:
        for f in out:
            out[f] += s.get(f, 0)
        batch_max = max(batch_max, s.get("batch_max_requests", 0))
        for kind, n in s.get("artifact_kinds", {}).items():
            kinds[kind] = kinds.get(kind, 0) + n
    out["batch_max_requests"] = batch_max
    lookups = out.get("plan_hits", 0) + out.get("plan_misses", 0)
    out["plan_hit_rate"] = (out.get("plan_hits", 0) / lookups
                            if lookups else 0.0)
    out["artifact_kinds"] = {k: kinds[k] for k in sorted(kinds)}
    return {k: out[k] for k in sorted(out)}


def aggregate_shards(snapshots: list[dict]) -> dict:
    """Fold N per-shard ``ServeMetrics.snapshot()`` dicts into one."""
    snapshots = [s for s in snapshots if s]
    agg = {
        "counters": merge_counters([s.get("counters", {})
                                    for s in snapshots]),
        "gauges": merge_counters([s.get("gauges", {}) for s in snapshots]),
        "histograms": {},
        "shards_reporting": len(snapshots),
    }
    names = sorted({name for s in snapshots
                    for name in s.get("histograms", {})})
    for name in names:
        agg["histograms"][name] = merge_histograms(
            [s["histograms"][name] for s in snapshots
             if name in s.get("histograms", {})])
    engine = [s["engine"] for s in snapshots if "engine" in s]
    if engine:
        agg["engine"] = merge_engine_stats(engine)
    tier_names = sorted({name for s in snapshots
                         for name in s.get("tiers", {})})
    if tier_names:
        tiers: dict[str, dict] = {}
        for name in tier_names:
            recs = [s["tiers"][name] for s in snapshots
                    if name in s.get("tiers", {})]
            ok = sum(r.get("slo_ok", 0) for r in recs)
            miss = sum(r.get("slo_miss", 0) for r in recs)
            tiers[name] = {
                "counts": merge_counters([r.get("counts", {})
                                          for r in recs]),
                "latency_ms": merge_histograms(
                    [r["latency_ms"] for r in recs if "latency_ms" in r]),
                "slo_attainment": (ok / (ok + miss)) if ok + miss else None,
                "slo_miss": miss,
                "slo_ok": ok,
            }
        agg["tiers"] = tiers
    phases = [s["phases"] for s in snapshots if "phases" in s]
    if phases:
        merged: dict[str, dict] = {}
        for p in phases:
            for phase, tot in p.items():
                slot = merged.setdefault(phase,
                                         {"count": 0, "total_ms": 0.0})
                slot["count"] += tot.get("count", 0)
                slot["total_ms"] += tot.get("total_ms", 0.0)
        agg["phases"] = {k: merged[k] for k in sorted(merged)}
    return {k: agg[k] for k in sorted(agg)}


def cluster_prometheus(snapshot: dict) -> str:
    """Render a router ``metrics_snapshot()`` as Prometheus text format."""
    lines: list[str] = []

    lines.append("# HELP repro_cluster_router_total router events by kind")
    lines.append("# TYPE repro_cluster_router_total counter")
    for name, value in snapshot.get("counters", {}).items():
        lines.append(f'repro_cluster_router_total{{event="{name}"}} {value}')

    lines.append("# HELP repro_cluster_gauge router-level gauges")
    lines.append("# TYPE repro_cluster_gauge gauge")
    for name, value in snapshot.get("gauges", {}).items():
        lines.append(f'repro_cluster_gauge{{name="{name}"}} {value}')

    hot = snapshot.get("hotkeys", {})
    if hot:
        lines.append("# HELP repro_cluster_hot_keys fingerprints currently "
                     "over the replication threshold")
        lines.append("# TYPE repro_cluster_hot_keys gauge")
        lines.append(f"repro_cluster_hot_keys {len(hot.get('hot_keys', []))}")

    agg = snapshot.get("aggregate", {})
    lines.append("# HELP repro_cluster_requests_total aggregate worker "
                 "requests by terminal status")
    lines.append("# TYPE repro_cluster_requests_total counter")
    for status in ("completed", "shed", "timeout", "rejected", "errors"):
        value = agg.get("counters", {}).get(status, 0)
        lines.append(f'repro_cluster_requests_total{{status="{status}"}} '
                     f'{value}')

    for hname, hist in agg.get("histograms", {}).items():
        metric = f"repro_cluster_{hname}"
        lines.append(f"# HELP {metric} aggregate serving histogram "
                     f"({hname})")
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound in sorted(hist["buckets"], key=float):
            cumulative += hist["buckets"][bound]
            lines.append(f'{metric}_bucket{{le="{bound}"}} {cumulative}')
        cumulative += hist["overflow"]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {hist['sum']}")
        lines.append(f"{metric}_count {hist['count']}")

    if agg.get("tiers"):
        lines.append("# HELP repro_cluster_tier_requests_total aggregate "
                     "worker outcomes by tier and status")
        lines.append("# TYPE repro_cluster_tier_requests_total counter")
        for tname, tier in agg["tiers"].items():
            for status, n in tier.get("counts", {}).items():
                lines.append(f'repro_cluster_tier_requests_total'
                             f'{{tier="{tname}",status="{status}"}} {n}')
        lines.append("# HELP repro_cluster_tier_slo_attainment aggregate "
                     "fraction of SLO-carrying requests served within SLO")
        lines.append("# TYPE repro_cluster_tier_slo_attainment gauge")
        for tname, tier in agg["tiers"].items():
            att = tier.get("slo_attainment")
            if att is not None:
                lines.append(f'repro_cluster_tier_slo_attainment'
                             f'{{tier="{tname}"}} {att}')

    eng = agg.get("engine")
    if eng:
        lines.append("# HELP repro_cluster_engine_plan_hit_rate merged "
                     "plan-cache hit rate across shards")
        lines.append("# TYPE repro_cluster_engine_plan_hit_rate gauge")
        lines.append(f"repro_cluster_engine_plan_hit_rate "
                     f"{eng['plan_hit_rate']}")
        lines.append("# HELP repro_cluster_engine_bytes_cached merged "
                     "engine cache bytes across shards")
        lines.append("# TYPE repro_cluster_engine_bytes_cached gauge")
        lines.append(f"repro_cluster_engine_bytes_cached "
                     f"{eng.get('bytes_cached', 0)}")

    lines.append("# HELP repro_cluster_shard_gauge per-shard link and "
                 "cache gauges")
    lines.append("# TYPE repro_cluster_shard_gauge gauge")
    for shard, entry in snapshot.get("shards", {}).items():
        for name in ("cached_matrices", "in_flight", "outstanding",
                     "queue_depth"):
            lines.append(f'repro_cluster_shard_gauge{{shard="{shard}",'
                         f'name="{name}"}} {entry.get(name, 0)}')
        healthy = 1 if entry.get("healthy") else 0
        lines.append(f'repro_cluster_shard_gauge{{shard="{shard}",'
                     f'name="healthy"}} {healthy}')
        for status in ("completed", "shed", "timeout", "rejected"):
            value = entry.get("metrics", {}).get("counters", {}) \
                         .get(status, 0)
            lines.append(f'repro_cluster_shard_requests_total'
                         f'{{shard="{shard}",status="{status}"}} {value}')
    return "\n".join(lines) + "\n"
