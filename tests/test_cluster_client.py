"""Cluster clients over the router's socket front door, plus loadgen.

Covers the three client surfaces against one live cluster: the blocking
:class:`SocketClusterClient` (pipelined rid-matched futures), the asyncio
:class:`AsyncClusterClient`, and the trace-driven
:func:`run_cluster_workload` loadgen path with bit-identity verification.
Transport loss on the client side resolves ``error`` responses — same
no-exceptions contract the rest of the serving stack keeps.  Every client
link, and the router's end of it, has ``TCP_NODELAY`` set.
"""

import asyncio
import socket

import numpy as np
import pytest

from repro.cluster import (AsyncClusterClient, ClusterClient, ClusterConfig,
                           ClusterRequest, ShardRouter, SocketClusterClient,
                           STATUS_ERROR, WorkerConfig, run_cluster_workload,
                           format_cluster_report)
from repro.core.api import evaluate as evaluate_uncached
from repro.serve.loadgen import synthesize_workload
from repro.sparse import random_csr

pytestmark = pytest.mark.cluster


@pytest.fixture(scope="module")
def cluster():
    router = ShardRouter(ClusterConfig(
        shards=2, heartbeat_interval_s=0.1,
        worker=WorkerConfig(max_batch=8, batch_linger_ms=0.5)))
    port = router.listen()
    yield router, port
    router.stop()


# ------------------------------------------------------------ socket client
def test_socket_client_roundtrip(cluster):
    router, port = cluster
    X = random_csr(150, 24, 0.08, rng=10)
    rng = np.random.default_rng(10)
    y = rng.normal(size=X.n)
    with SocketClusterClient(port=port) as client:
        fp = client.register(X)
        resp = client.evaluate(ClusterRequest(fp, y, strategy="fused"),
                               timeout=60)
        assert resp.ok, resp
        ref = evaluate_uncached(X, y, strategy="fused")
        assert np.array_equal(resp.result.output, ref.output)


def test_socket_client_pipelines_many(cluster):
    router, port = cluster
    X = random_csr(150, 24, 0.08, rng=11)
    rng = np.random.default_rng(11)
    with SocketClusterClient(port=port) as client:
        fp = client.register(X)
        futures = [client.submit(
            ClusterRequest(fp, rng.normal(size=X.n), strategy="fused"))
            for _ in range(20)]
        responses = [f.result(timeout=60) for f in futures]
        assert all(r.ok for r in responses)
        assert {r.id for r in responses}      # distinct router ids


def test_socket_client_metrics_and_ping(cluster):
    router, port = cluster
    with SocketClusterClient(port=port) as client:
        pong = client.ping()
        assert pong["shards"] == 2
        snap = client.metrics()
        assert "aggregate" in snap and "counters" in snap


def test_socket_client_close_resolves_pending(cluster):
    router, port = cluster
    client = SocketClusterClient(port=port)
    X = random_csr(150, 24, 0.08, rng=12)
    fp = client.register(X)
    future = client.submit(ClusterRequest(fp, np.zeros(X.n)))
    client.close()
    resp = future.result(timeout=10)
    # either the reply won the race or the close failed it -- never a hang
    assert resp.status in ("ok", STATUS_ERROR)


# ------------------------------------------------------------- async client
def test_async_client_roundtrip(cluster):
    router, port = cluster

    async def scenario():
        client = await AsyncClusterClient.connect(port=port)
        try:
            X = random_csr(150, 24, 0.08, rng=13)
            rng = np.random.default_rng(13)
            y = rng.normal(size=X.n)
            fp = await client.register(X)
            resp = await client.evaluate(
                ClusterRequest(fp, y, strategy="fused"))
            assert resp.ok, resp
            ref = evaluate_uncached(X, y, strategy="fused")
            assert np.array_equal(resp.result.output, ref.output)
            # concurrent submissions share the one connection
            many = await asyncio.gather(*[
                client.evaluate(ClusterRequest(
                    fp, rng.normal(size=X.n), strategy="fused"))
                for _ in range(10)])
            assert all(r.ok for r in many)
            pong = await client.ping()
            assert pong["shards"] == 2
            snap = await client.metrics()
            assert snap["counters"]["submitted"] >= 11
        finally:
            await client.close()

    asyncio.run(scenario())


# --------------------------------------------------------------- TCP_NODELAY
def nodelay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_socket_client_and_front_door_set_nodelay(cluster):
    router, port = cluster
    with SocketClusterClient(port=port) as client:
        assert client.ping()["shards"] == 2       # the router has accepted
        assert nodelay(client._sock)
        # no other client connects meanwhile, so the newest front-door
        # connection is this client's
        assert nodelay(router._frontend_conns[-1])


def test_async_client_transport_has_nodelay(cluster):
    _, port = cluster

    async def scenario():
        client = await AsyncClusterClient.connect(port=port)
        try:
            return nodelay(client._writer.get_extra_info("socket"))
        finally:
            await client.close()

    assert asyncio.run(scenario())


# ------------------------------------------------------------------ loadgen
def test_loadgen_replay_verified_zero_divergence(cluster):
    router, _ = cluster
    trace = synthesize_workload(matrices=4, requests=40, rows=150, cols=24,
                                mode="open", strategy="fused", seed=20)
    report = run_cluster_workload(ClusterClient(router), trace, verify=True)
    assert report["by_status"].get("ok") == 40
    assert report["divergent"] == 0
    assert sum(report["by_shard"].values()) == 40
    text = format_cluster_report(report)
    assert "verified:    0 divergent" in text
    assert "shards:" in text


def test_loadgen_closed_loop(cluster):
    router, _ = cluster
    trace = synthesize_workload(matrices=2, requests=20, rows=150, cols=24,
                                mode="closed", concurrency=4,
                                strategy="fused", seed=21)
    report = run_cluster_workload(router, trace)
    assert report["completed"] == 20
    assert report["mode"] == "closed"
    assert report["divergent"] is None
