"""Wire framing, hot-key tracking, and shard-metrics merging.

The cluster's three pure-logic pieces, tested without any processes:

* length-prefixed framing round-trips arbitrary payloads, tells a clean
  close (``None``) from a torn frame (``ConnectionError``), and refuses
  frames whose announced size indicates corruption;
* a router→worker TCP link has ``TCP_NODELAY`` on both ends (a worker
  accept loop in a thread, no processes);
* the hot-key tracker promotes exactly the Zipf head (enough absolute
  traffic AND enough share) and demotes deterministically via decay;
* per-shard metrics snapshots merge into one aggregate with summed
  counters, bucket-exact histogram merging, and sorted keys throughout.
"""

import socket
import threading

import numpy as np
import pytest

from repro.cluster import (HotKeyTracker, ShardChannel, WorkerConfig,
                           WorkerHost, aggregate_shards, merge_counters,
                           merge_engine_stats, merge_histograms)
from repro.cluster.protocol import (MAX_FRAME_BYTES, OP_DRAIN, recv_msg,
                                    send_msg)
from repro.serve.metrics import ServeMetrics


def pair():
    a, b = socket.socketpair()
    return a, b


# ------------------------------------------------------------------- framing
def test_roundtrip_dict_with_arrays():
    a, b = pair()
    msg = {"op": "eval", "y": np.arange(5.0), "nested": {"k": [1, 2]}}
    send_msg(a, msg)
    got = recv_msg(b)
    assert got["op"] == "eval"
    np.testing.assert_array_equal(got["y"], np.arange(5.0))
    a.close(), b.close()


def test_multiple_frames_in_order():
    a, b = pair()
    for i in range(10):
        send_msg(a, {"i": i})
    assert [recv_msg(b)["i"] for i in range(10)] == list(range(10))
    a.close(), b.close()


def test_clean_close_returns_none():
    a, b = pair()
    send_msg(a, {"op": "ping"})
    a.close()
    assert recv_msg(b) == {"op": "ping"}
    assert recv_msg(b) is None          # EOF exactly on a frame boundary
    b.close()


def test_torn_frame_raises():
    a, b = pair()
    # header announces 100 payload bytes, but the link dies after 10
    a.sendall((100).to_bytes(4, "big") + b"x" * 10)
    a.close()
    with pytest.raises(ConnectionError):
        recv_msg(b)
    b.close()


def test_eof_between_header_and_payload_raises():
    a, b = pair()
    a.sendall((100).to_bytes(4, "big"))
    a.close()
    with pytest.raises(ConnectionError):
        recv_msg(b)
    b.close()


def test_oversized_announcement_rejected():
    a, b = pair()
    a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    with pytest.raises((ConnectionError, OverflowError)):
        recv_msg(b)
    a.close(), b.close()


def test_oversized_send_rejected(monkeypatch):
    import repro.cluster.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    a, b = pair()
    with pytest.raises(ValueError):
        send_msg(a, {"payload": b"x" * 128})
    a.close(), b.close()


# ----------------------------------------------------------------- TCP links
def nodelay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_channel_and_worker_accept_set_nodelay():
    host = WorkerHost(WorkerConfig(max_batch=4, batch_linger_ms=0.5))
    accepted = []
    serve_link = host.handle_connection

    def handle(conn):
        accepted.append(nodelay(conn))
        serve_link(conn)

    host.handle_connection = handle
    listener = socket.create_server(("127.0.0.1", 0))
    server = threading.Thread(target=host.serve_forever, args=(listener,),
                              daemon=True)
    server.start()
    channel = ShardChannel(0, listener.getsockname()[1])
    try:
        assert nodelay(channel._sock)
        drained = threading.Event()
        channel.send({"op": OP_DRAIN}, on_reply=lambda _r: drained.set())
        assert drained.wait(10.0)
    finally:
        channel.close()
        server.join(timeout=10.0)
    assert not server.is_alive()
    assert accepted == [True]


# ------------------------------------------------------------------ hot keys
def test_hot_promotion_needs_count_and_share():
    t = HotKeyTracker(threshold=0.5, min_requests=4, window=1000)
    for _ in range(3):
        assert not t.record("a")       # share 1.0 but below min_requests
    assert t.record("a")               # 4th: both conditions met
    assert t.is_hot("a")
    assert t.hot_keys() == ["a"]


def test_cold_long_tail_never_promotes():
    t = HotKeyTracker(threshold=0.2, min_requests=4, window=10_000)
    for i in range(400):
        t.record(f"k{i % 40}")         # uniform: share 2.5% each
    assert t.hot_keys() == []


def test_decay_demotes_deterministically():
    t = HotKeyTracker(threshold=0.5, min_requests=8, window=32)
    for _ in range(16):
        t.record("hot")
    assert t.is_hot("hot")
    # traffic moves on: decays halve "hot" while others accumulate
    i = 0
    while t.is_hot("hot"):
        t.record(f"other-{i % 16}")
        i += 1
        assert i < 10_000, "decay never demoted the cooled key"
    assert not t.is_hot("hot")


def test_snapshot_keys_sorted():
    t = HotKeyTracker()
    t.record("zz"), t.record("aa")
    snap = t.snapshot()
    assert list(snap) == sorted(snap)


def test_tracker_thread_safety():
    t = HotKeyTracker(window=64)
    errors = []

    def hammer(tag):
        try:
            for i in range(2000):
                t.record(f"{tag}-{i % 7}")
        except Exception as exc:       # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(j,)) for j in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert t.snapshot()["tracked_keys"] <= 28


def test_tracker_validation():
    with pytest.raises(ValueError):
        HotKeyTracker(threshold=0.0)
    with pytest.raises(ValueError):
        HotKeyTracker(min_requests=0)
    with pytest.raises(ValueError):
        HotKeyTracker(window=1)


# ------------------------------------------------------------ metrics merge
def shard_snapshot(n):
    m = ServeMetrics()
    for i in range(n):
        m.inc("submitted"), m.inc("completed")
        m.observe_latency(float(i + 1))
        m.observe_wait(0.5)
        m.observe_batch(2, [0.3, 0.3])
    return m.snapshot(queue_depth=n, in_flight=1)


def test_merge_counters_sums_and_sorts():
    merged = merge_counters([{"b": 1, "a": 2}, {"a": 3, "c": 1}])
    assert merged == {"a": 5, "b": 1, "c": 1}
    assert list(merged) == ["a", "b", "c"]


def test_merge_histograms_exact_counts():
    snaps = [shard_snapshot(5), shard_snapshot(3)]
    merged = merge_histograms([s["histograms"]["latency_ms"]
                               for s in snaps])
    assert merged["count"] == 8
    assert merged["sum"] == pytest.approx(sum(range(1, 6))
                                          + sum(range(1, 4)))
    assert merged["min"] == 1.0 and merged["max"] == 5.0
    assert sum(merged["buckets"].values()) + merged["overflow"] == 8


def test_merge_histograms_rejects_mismatched_buckets():
    a = shard_snapshot(1)["histograms"]["latency_ms"]
    b = dict(a, buckets={"1.0": 1})
    with pytest.raises(ValueError):
        merge_histograms([a, b])


def test_merge_empty():
    merged = merge_histograms([])
    assert merged["count"] == 0 and merged["p99"] == 0.0


def test_aggregate_shards_shape_and_order():
    agg = aggregate_shards([shard_snapshot(4), shard_snapshot(2), {}])
    assert agg["shards_reporting"] == 2
    assert agg["counters"]["completed"] == 6
    assert agg["gauges"]["queue_depth"] == 6     # 4 + 2
    assert list(agg) == sorted(agg)
    assert list(agg["counters"]) == sorted(agg["counters"])
    assert list(agg["histograms"]) == sorted(agg["histograms"])


def test_merge_engine_stats_recomputes_hit_rate():
    merged = merge_engine_stats([
        {"plan_hits": 8, "plan_misses": 2, "bytes_cached": 100,
         "artifact_kinds": {"csc": 1}},
        {"plan_hits": 0, "plan_misses": 10, "bytes_cached": 50,
         "artifact_kinds": {"csc": 2, "profile": 1}},
    ])
    assert merged["plan_hits"] == 8 and merged["plan_misses"] == 12
    assert merged["plan_hit_rate"] == pytest.approx(0.4)
    assert merged["bytes_cached"] == 150
    assert merged["artifact_kinds"] == {"csc": 3, "profile": 1}
    assert list(merged) == sorted(merged)
