"""ShardRouter integration: routing, parity, replication, drain hygiene.

Multi-process tests (real worker processes, real sockets) for the cluster
contract:

* completed outputs are bit-identical to direct uncached evaluation —
  sharding adds placement, never numerics;
* the same fingerprint always lands on its ring primary while cold, so
  per-shard caches see disjoint working sets;
* a Zipf-hot fingerprint is promoted and spread over its replica set;
* unknown ops and unregistered fingerprints answer deterministically;
* a cold request (upload and eval written back to back) is not held by
  the worker's delayed ACK;
* shutdown drains cleanly: no leaked threads, no leaked processes, and
  every outstanding request resolves.

Everything uses small matrices (~150x24; 2000x96 for the latency check)
and bounded waits so the suite stays fast and can never hang the runner.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.cluster import (ClusterConfig, ClusterRequest, ShardRouter,
                           STATUS_OK, STATUS_REJECTED, WorkerConfig)
from repro.core.api import evaluate as evaluate_uncached
from repro.sparse import random_csr

pytestmark = pytest.mark.cluster


def cluster_threads():
    return [t for t in threading.enumerate()
            if t.is_alive() and t.name.startswith("repro-cluster")]


def make_router(shards=2, **kw):
    kw.setdefault("worker", WorkerConfig(max_batch=8, batch_linger_ms=0.5))
    kw.setdefault("heartbeat_interval_s", 0.1)
    return ShardRouter(ClusterConfig(shards=shards, **kw))


@pytest.fixture
def matrices():
    return [random_csr(150, 24, 0.08, rng=seed) for seed in range(5)]


# ------------------------------------------------------------------- parity
def test_outputs_bit_identical_to_uncached(matrices):
    router = make_router(shards=2)
    try:
        rng = np.random.default_rng(7)
        for X in matrices:
            fp = router.register(X)
            y = rng.normal(size=X.n)
            resp = router.evaluate(
                ClusterRequest(fp, y, z=y, beta=1e-3, strategy="fused"),
                timeout=60)
            assert resp.status == STATUS_OK, resp
            ref = evaluate_uncached(X, y, z=y, beta=1e-3, strategy="fused")
            assert np.array_equal(resp.result.output, ref.output)
    finally:
        router.stop()


def test_register_is_idempotent(matrices):
    router = make_router(shards=2)
    try:
        assert router.register(matrices[0]) == router.register(matrices[0])
    finally:
        router.stop()


# ----------------------------------------------------------------- affinity
def test_cold_requests_stick_to_ring_primary(matrices):
    router = make_router(shards=4, replication=1)
    try:
        rng = np.random.default_rng(1)
        for X in matrices:
            fp = router.register(X)
            primary = router.ring.primary(fp)
            for _ in range(3):
                resp = router.evaluate(
                    ClusterRequest(fp, rng.normal(size=X.n),
                                   strategy="fused"), timeout=60)
                assert resp.ok and resp.shard == primary, resp
    finally:
        router.stop()


def test_upload_happens_once_per_shard(matrices):
    router = make_router(shards=2, replication=1)
    try:
        fp = router.register(matrices[0])
        rng = np.random.default_rng(2)
        for _ in range(10):
            assert router.evaluate(
                ClusterRequest(fp, rng.normal(size=matrices[0].n),
                               strategy="fused"), timeout=60).ok
        assert router.metrics_snapshot()["counters"]["uploads"] == 1
    finally:
        router.stop()


# ------------------------------------------------------------------ latency
def test_cold_request_is_not_held_by_delayed_ack():
    # the eval frame follows the upload frame before the worker has ACKed
    # it; with Nagle's algorithm on, it waited for Linux's 40 ms
    # delayed-ACK timer (median 24-42 ms), with TCP_NODELAY about 4 ms
    mats = [random_csr(2000, 96, 0.05, rng=seed) for seed in range(24)]
    router = ShardRouter(ClusterConfig(shards=2))
    try:
        rng = np.random.default_rng(24)
        latencies = []
        for X in mats:
            fp = router.register(X)
            y = rng.normal(size=X.n)
            t0 = time.perf_counter()
            resp = router.evaluate(ClusterRequest(fp, y), timeout=60)
            latencies.append((time.perf_counter() - t0) * 1e3)
            assert resp.status == STATUS_OK, resp
        assert np.median(latencies) < 15.0, sorted(latencies)
    finally:
        router.stop()


# -------------------------------------------------------------- replication
def test_hot_key_promoted_and_spread(matrices):
    router = make_router(shards=3, replication=2, hot_threshold=0.5,
                         hot_min_requests=8)
    try:
        fp = router.register(matrices[0])
        rng = np.random.default_rng(3)
        responses = [router.evaluate(
            ClusterRequest(fp, rng.normal(size=matrices[0].n),
                           strategy="fused"), timeout=60)
            for _ in range(40)]
        assert all(r.ok for r in responses)
        snap = router.metrics_snapshot()
        assert snap["counters"]["promotions"] >= 1
        assert fp in snap["replicated"]
        reps = snap["replicated"][fp]
        assert reps == router.ring.replicas(fp, 2)
        shards_used = {r.shard for r in responses if r.replica_routed}
        # power-of-two-choices may favor one replica, but routing must
        # have considered the replica set once hot
        assert any(r.replica_routed for r in responses)
        assert shards_used <= set(reps)
    finally:
        router.stop()


def test_replication_disabled_never_promotes(matrices):
    router = make_router(shards=2, replication=1)
    try:
        fp = router.register(matrices[0])
        rng = np.random.default_rng(4)
        for _ in range(30):
            assert router.evaluate(
                ClusterRequest(fp, rng.normal(size=matrices[0].n),
                               strategy="fused"), timeout=60).ok
        snap = router.metrics_snapshot()
        assert snap["counters"]["promotions"] == 0
        assert snap["counters"]["routed_replica"] == 0
        assert snap["replicated"] == {}
    finally:
        router.stop()


# ----------------------------------------------------------- deterministic no
def test_unregistered_fingerprint_rejected():
    router = make_router(shards=2)
    try:
        resp = router.evaluate(
            ClusterRequest("no-such-fp", np.zeros(4)), timeout=30)
        assert resp.status == STATUS_REJECTED
        assert "unregistered" in resp.reason
    finally:
        router.stop()


def test_submit_after_stop_rejected(matrices):
    router = make_router(shards=2)
    fp = router.register(matrices[0])
    router.stop()
    resp = router.evaluate(
        ClusterRequest(fp, np.zeros(matrices[0].n)), timeout=30)
    assert resp.status == STATUS_REJECTED
    assert "shutdown" in resp.reason


def test_bad_shape_is_error_not_hang(matrices):
    router = make_router(shards=2)
    try:
        fp = router.register(matrices[0])
        resp = router.evaluate(ClusterRequest(fp, np.zeros(3)), timeout=30)
        assert resp.status == "error"
        assert resp.reason
    finally:
        router.stop()


# ------------------------------------------------------------ observability
def test_metrics_aggregate_matches_totals(matrices):
    router = make_router(shards=3)
    try:
        rng = np.random.default_rng(5)
        fps = [router.register(X) for X in matrices]
        n = 30
        for i in range(n):
            X, fp = matrices[i % 5], fps[i % 5]
            assert router.evaluate(
                ClusterRequest(fp, rng.normal(size=X.n),
                               strategy="fused"), timeout=60).ok
        snap = router.metrics_snapshot()
        assert snap["counters"]["submitted"] == n
        assert snap["counters"]["completed"] == n
        agg = snap["aggregate"]
        assert agg["counters"]["completed"] == n
        assert agg["shards_reporting"] == 3
        assert agg["histograms"]["latency_ms"]["count"] == n
        # per-shard completion counts sum to the aggregate
        per_shard = sum(e["metrics"]["counters"]["completed"]
                        for e in snap["shards"].values())
        assert per_shard == n
        # deterministic export ordering at every level
        assert list(snap) == sorted(snap)
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert list(agg["counters"]) == sorted(agg["counters"])
    finally:
        router.stop()


def test_prometheus_export_has_cluster_series(matrices):
    router = make_router(shards=2)
    try:
        fp = router.register(matrices[0])
        rng = np.random.default_rng(6)
        assert router.evaluate(
            ClusterRequest(fp, rng.normal(size=matrices[0].n),
                           strategy="fused"), timeout=60).ok
        text = router.metrics_prometheus()
        for needle in ("repro_cluster_router_total",
                       "repro_cluster_requests_total",
                       "repro_cluster_shard_gauge",
                       'status="completed"', "repro_cluster_latency_ms"):
            assert needle in text
    finally:
        router.stop()


def test_route_spans_emitted(matrices):
    from repro import trace

    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        router = make_router(shards=2)
        try:
            fp = router.register(matrices[0])
            rng = np.random.default_rng(8)
            assert router.evaluate(
                ClusterRequest(fp, rng.normal(size=matrices[0].n),
                               strategy="fused"), timeout=60).ok
            time.sleep(0.1)   # forward span lands from the reader thread
        finally:
            router.stop()
        names = {s.name for s in tracer.spans
                 if s.category == "cluster"}
        assert {"route", "forward"} <= names
    finally:
        trace.uninstall()


# ------------------------------------------------------------------ hygiene
def test_stop_is_idempotent_and_leak_free(matrices):
    before_threads = len(cluster_threads())
    before_children = len(multiprocessing.active_children())
    router = make_router(shards=2)
    fp = router.register(matrices[0])
    rng = np.random.default_rng(9)
    futures = [router.submit(
        ClusterRequest(fp, rng.normal(size=matrices[0].n),
                       strategy="fused")) for _ in range(20)]
    router.stop()
    router.stop()             # second stop must be a no-op
    for f in futures:
        resp = f.result(timeout=30)
        assert resp.status in (STATUS_OK, STATUS_REJECTED)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if (len(cluster_threads()) <= before_threads
                and len(multiprocessing.active_children())
                <= before_children):
            break
        time.sleep(0.05)
    assert len(cluster_threads()) <= before_threads, cluster_threads()
    assert len(multiprocessing.active_children()) <= before_children


def test_context_manager_stops():
    with make_router(shards=2) as router:
        assert router.metrics_snapshot()["gauges"]["shards_healthy"] == 2
    assert router._shutdown_complete
