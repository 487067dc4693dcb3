"""The shard router: fingerprint-affinity placement over worker processes.

``ShardRouter`` is the cluster's front process.  It spawns N
:mod:`~repro.cluster.worker` processes (each a ``PatternServer`` with its
own engine and artifact LRU), places every request by consistent-hashing
its matrix content fingerprint (:mod:`~repro.cluster.hashring`), and keeps
the matrices themselves in a registry that is uploaded to shards lazily —
so each shard's caches hold exactly the disjoint slice of the working set
the ring assigns it, and aggregate warm capacity grows linearly with N.

* **Hot-key replication** — a :class:`~repro.cluster.hotkeys.HotKeyTracker`
  watches observed popularity; fingerprints above the threshold are routed
  over their deterministic ring replica set instead of the primary alone,
  picking among healthy replicas with power-of-two-choices on the
  channels' outstanding-request gauges (arXiv:2203.07673's 1.5D tradeoff:
  replicate the dense few, partition the long tail).
* **Failure handling** — a heartbeat thread pings every shard and sweeps
  per-request timeouts; torn links or expired replies fail back into the
  router, which retries with exponential backoff on the next healthy
  shard (excluding ones that already failed this request) up to
  ``max_retries``, then resolves a deterministic ``rejected`` response.
  Workers are never restarted mid-run: a dead shard simply leaves the
  routing set, and its keys fail over along the ring.
* **Drain** — ``stop()`` stops admission, waits for live requests, asks
  every healthy worker to drain (in-flight completes, queued rejects),
  then joins processes; stragglers are terminated after a timeout.
* **Observability** — per-shard serve/engine snapshots are gathered over
  the control op and merged (sorted keys) next to router-level counters
  into one JSON/Prometheus endpoint; route/forward/retry phases emit
  :mod:`repro.trace` spans.

The router also exposes a socket front door (:meth:`listen`) speaking the
same length-prefixed protocol, used by the socket and asyncio clients.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_context

from .. import trace
from ..core.engine import fingerprint_matrix
from .channel import ShardChannel
from .hashring import HashRing
from .hotkeys import HotKeyTracker
from .metrics import aggregate_shards, cluster_prometheus
from .protocol import (CODE_UNKNOWN_FINGERPRINT, OP_CLUSTER_METRICS,
                       OP_DRAIN, OP_EVAL, OP_METRICS, OP_PING, OP_REGISTER,
                       OP_RESULT, OP_UPLOAD, recv_msg, send_msg,
                       set_nodelay)
from .request import (STATUS_OK, STATUS_REJECTED, ClusterFuture,
                      ClusterRequest, ClusterResponse, _RouterTicket)
from .worker import WorkerConfig, worker_main

#: worker reply statuses the router retries elsewhere instead of returning:
#: a shed or shutdown-rejection from one shard says nothing about the rest
#: of the cluster, so placement policy (not the worker) decides the outcome
RETRYABLE_STATUSES = ("shed", "rejected")


@dataclass
class ClusterConfig:
    """Cluster topology, replication policy, and failure-handling bounds."""

    shards: int = 2
    vnodes: int = 64                  # ring smoothing (per shard)
    replication: int = 2              # replica-set size for hot keys (incl.
                                      # the primary); 1 disables replication
    hot_threshold: float = 0.2        # traffic share that makes a key hot
    hot_min_requests: int = 16
    hot_window: int = 1024            # popularity decay window (requests)
    max_retries: int = 3              # forwarding attempts per request
    retry_backoff_ms: float = 5.0     # base of the exponential backoff
    request_timeout_s: float = 60.0   # per-forward reply bound
    heartbeat_interval_s: float = 0.25
    drain_timeout_s: float = 30.0
    seed: int = 0                     # power-of-two-choices tie RNG
    worker: WorkerConfig | None = None   # template; shard_id is stamped in

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if not 1 <= self.replication:
            raise ValueError("replication must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


class ShardRouter:
    """Cluster front door: spawn, route, replicate, retry, drain."""

    def __init__(self, config: ClusterConfig | None = None,
                 start: bool = True):
        self.config = config or ClusterConfig()
        self.ring = HashRing(range(self.config.shards),
                             vnodes=self.config.vnodes)
        self.tracker = HotKeyTracker(
            threshold=self.config.hot_threshold,
            min_requests=self.config.hot_min_requests,
            window=self.config.hot_window)
        self._rng = random.Random(self.config.seed)
        self._channels: dict[int, ShardChannel] = {}
        self._matrices: dict[str, object] = {}
        self._uploaded: set[tuple[int, str]] = set()
        self._hot: dict[str, list[int]] = {}      # fp -> replica set
        self._live: dict[int, _RouterTicket] = {}
        self._lock = threading.RLock()
        self._counters = {k: 0 for k in (
            "completed", "demotions", "errors", "failovers", "promotions",
            "rejected", "retries", "reuploads", "routed_primary",
            "routed_replica", "shed", "submitted", "timeout", "uploads")}
        self._next_id = 0
        # an Event, not a bare bool: flipped under the lifecycle lock but
        # read on the submit fast path under the routing lock only
        self._accepting = threading.Event()
        self._stopped = False
        self._shutdown_complete = False
        self._lifecycle_lock = threading.RLock()
        self._live_cond = threading.Condition(self._lock)
        self._timers: set[threading.Timer] = set()
        self._hb_stop = threading.Event()
        self._heartbeat: threading.Thread | None = None
        self._listener: socket.socket | None = None
        self._frontend_threads: list[threading.Thread] = []
        self._frontend_conns: list[socket.socket] = []
        if start:
            self.start()

    # ------------------------------------------------------------- lifecycle
    # the worker-spawn handshake (pipe poll/recv) deliberately runs under
    # the lifecycle lock so a concurrent stop() cannot interleave with it
    def start(self) -> "ShardRouter":  # analyze: allow(lock-held-blocking)
        """Spawn workers, connect channels, start the heartbeat."""
        with self._lifecycle_lock:
            if self._stopped:
                raise RuntimeError("router was stopped; create a new one")
            if self._channels:
                return self
            ctx = get_context(
                "fork" if "fork" in
                __import__("multiprocessing").get_all_start_methods()
                else "spawn")
            template = self.config.worker or WorkerConfig()
            for shard in self.ring.shards:
                cfg = WorkerConfig(**{**template.__dict__,
                                      "shard_id": shard})
                parent_pipe, child_pipe = ctx.Pipe()
                proc = ctx.Process(
                    target=worker_main, args=(child_pipe, cfg),
                    name=f"repro-cluster-worker-{shard}", daemon=True)
                proc.start()
                child_pipe.close()
                if not parent_pipe.poll(30.0):
                    raise RuntimeError(f"shard {shard} never reported its "
                                       "port (spawn failed?)")
                port = parent_pipe.recv()
                parent_pipe.close()
                self._channels[shard] = ShardChannel(shard, port,
                                                     process=proc)
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop, name="repro-cluster-heartbeat",
                daemon=True)
            self._heartbeat.start()
            self._accepting.set()
        return self

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # draining/joining under the lifecycle lock is the shutdown contract:
    # a concurrent stop() must observe a fully-reaped router
    def stop(self) -> None:  # analyze: allow(lock-held-blocking)
        """Graceful drain: live requests finish (or fail over), queued
        worker backlogs reject deterministically, processes join.

        Idempotent, and safe to retry after an interrupt cut a previous
        call short — completion latches only once every worker has been
        reaped (the same contract ``PatternServer.stop`` keeps)."""
        with self._lifecycle_lock:
            if self._shutdown_complete:
                return
            self._stopped = True
            self._accepting.clear()
            self._close_frontend()
            deadline = time.monotonic() + self.config.drain_timeout_s
            with self._live_cond:
                while self._live and time.monotonic() < deadline:
                    self._live_cond.wait(0.1)
                leftovers = list(self._live.values())
                self._live.clear()
            for ticket in leftovers:
                self._resolve(ticket, ClusterResponse(
                    id=ticket.id, status=STATUS_REJECTED,
                    fingerprint=ticket.request.fingerprint,
                    reason="router shutdown before completion",
                    attempts=ticket.attempts), count=False)
            # _retry mutates _timers under the routing lock; swap the set
            # out under that same lock before cancelling
            with self._lock:
                timers, self._timers = list(self._timers), set()
            for timer in timers:
                timer.cancel()
            # ask every live worker to drain, then reap
            acks = []
            for shard, channel in self._channels.items():
                if channel.healthy:
                    done = threading.Event()
                    channel.send({"op": OP_DRAIN},
                                 on_reply=lambda _r, d=done: d.set())
                    acks.append(done)
            for done in acks:
                done.wait(self.config.drain_timeout_s)
            self._hb_stop.set()
            if self._heartbeat is not None:
                self._heartbeat.join(timeout=5.0)
            for channel in self._channels.values():
                channel.close()
                proc = channel.process
                if proc is not None:
                    proc.join(timeout=5.0)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=5.0)
            self._shutdown_complete = True

    close = stop

    # -------------------------------------------------------------- frontend
    def register(self, X) -> str:
        """Publish a matrix; returns the fingerprint requests route by."""
        fp = fingerprint_matrix(X)
        with self._lock:
            self._matrices.setdefault(fp, X)
        return fp

    def submit(self, request: ClusterRequest) -> ClusterFuture:
        """Route one request; always returns a future that will resolve."""
        with trace.span("route", "cluster") as sp:
            with self._lock:
                self._next_id += 1
                ticket = _RouterTicket(id=self._next_id, request=request,
                                       submitted_at=time.monotonic())
                self._counters["submitted"] += 1
                accepting = self._accepting.is_set()
                known = request.fingerprint in self._matrices
            sp.set("rid", ticket.id)
            if not accepting:
                self._resolve(ticket, self._rejection(
                    ticket, "router shutdown"), count=False)
                sp.set("outcome", "rejected")
                return ticket.future
            if not known:
                self._resolve(ticket, self._rejection(
                    ticket, f"unregistered fingerprint "
                            f"{request.fingerprint!r}"), count=False)
                sp.set("outcome", "rejected")
                return ticket.future
            with self._lock:
                self._live[ticket.id] = ticket
            shard = self._route(ticket)
            sp.set("shard", -1 if shard is None else shard)
            if shard is None:
                self._reject_no_shard(ticket)
            else:
                self._forward(ticket, shard)
        return ticket.future

    def evaluate(self, request: ClusterRequest,
                 timeout: float | None = None) -> ClusterResponse:
        return self.submit(request).result(timeout)

    # --------------------------------------------------------------- routing
    # _channels is sealed in start() before the heartbeat and any frontend
    # thread exists; post-start it is read-only, so bare reads are safe
    def _healthy_shards(self) -> list[int]:  # analyze: allow(atomicity)
        return [s for s, c in self._channels.items() if c.healthy]

    def _route(self, ticket: _RouterTicket) -> int | None:
        """Pick the next shard for ``ticket`` (None = nothing healthy)."""
        fp = ticket.request.fingerprint
        replicas = self._note_popularity(fp)
        exclude = ticket.failed_shards
        if replicas is not None:
            candidates = [s for s in replicas
                          if s not in exclude
                          and self._channels[s].healthy]
            if len(candidates) >= 2:
                # power-of-two-choices among the healthy replicas: sample
                # two, take the one with fewer outstanding forwards
                a, b = self._rng.sample(candidates, 2)
                pick = a if (self._channels[a].outstanding
                             <= self._channels[b].outstanding) else b
                ticket.replica_routed = True
                self._inc("routed_replica")
                return pick
            if candidates:
                ticket.replica_routed = True
                self._inc("routed_replica")
                return candidates[0]
        # cold path: ring order from the primary, skipping failed/dead
        for shard in self.ring.replicas(fp, len(self.ring)):
            if shard in exclude or not self._channels[shard].healthy:
                continue
            if ticket.attempts == 0 and shard == self.ring.primary(fp):
                self._inc("routed_primary")
            else:
                self._inc("failovers")
            return shard
        return None

    def _note_popularity(self, fp: str) -> list[int] | None:
        """Record one observation; the replica set while ``fp`` is hot."""
        if self.config.replication < 2:
            self.tracker.record(fp)
            return None
        hot = self.tracker.record(fp)
        with self._lock:
            if hot and fp not in self._hot:
                self._hot[fp] = self.ring.replicas(
                    fp, self.config.replication)
                self.tracker.note_promotion()
                self._counters["promotions"] += 1
            elif not hot and fp in self._hot:
                del self._hot[fp]          # cooled off: back to the primary
                self._counters["demotions"] += 1
            return self._hot.get(fp)

    # ------------------------------------------------------------ forwarding
    def _forward(self, ticket: _RouterTicket, shard: int) -> None:
        channel = self._channels[shard]
        fp = ticket.request.fingerprint
        ticket.attempts += 1
        with self._lock:
            needs_upload = (shard, fp) not in self._uploaded
            if needs_upload:
                self._uploaded.add((shard, fp))
                matrix = self._matrices[fp]
        if needs_upload:
            self._inc("uploads")
            channel.send({"op": OP_UPLOAD, "fingerprint": fp,
                          "matrix": matrix})
        sent_at = time.monotonic()
        channel.send(
            dict(ticket.request.to_wire(), op=OP_EVAL),
            on_reply=lambda reply, t=ticket, s=shard, t0=sent_at:
                self._on_reply(t, s, t0, reply))

    def _on_reply(self, ticket: _RouterTicket, shard: int, sent_at: float,
                  reply: dict | None) -> None:
        tracer = trace.active()
        now = time.monotonic()
        if tracer is not None:
            status = "transport-failure" if reply is None \
                else reply.get("status", "?")
            tracer.add_span("forward", "cluster", sent_at, now,
                            args={"rid": ticket.id, "shard": shard,
                                  "status": status})
        if reply is None:
            ticket.failed_shards.add(shard)
            self._retry(ticket, f"shard {shard} failed")
            return
        status = reply.get("status")
        if (status == "error"
                and reply.get("code") == CODE_UNKNOWN_FINGERPRINT):
            # the worker lost (or never had) the matrix: re-upload once
            # per shard per request, then resend without burning a retry
            fp = ticket.request.fingerprint
            if shard not in ticket.reuploaded_shards:
                ticket.reuploaded_shards.add(shard)
                with self._lock:
                    self._uploaded.discard((shard, fp))
                self._inc("reuploads")
                ticket.attempts -= 1
                self._forward(ticket, shard)
                return
            ticket.failed_shards.add(shard)
            self._retry(ticket, f"shard {shard} kept rejecting "
                                f"fingerprint {fp}")
            return
        if status in RETRYABLE_STATUSES:
            ticket.failed_shards.add(shard)
            self._retry(ticket, f"shard {shard} answered {status}")
            return
        self._resolve(ticket, ClusterResponse(
            id=ticket.id, status=status,
            fingerprint=ticket.request.fingerprint,
            result=reply.get("result"), reason=reply.get("reason", ""),
            shard=shard, attempts=ticket.attempts,
            replica_routed=ticket.replica_routed,
            latency_ms=(now - ticket.submitted_at) * 1e3,
            wait_ms=reply.get("wait_ms", 0.0),
            service_ms=reply.get("service_ms", 0.0),
            batch_size=reply.get("batch_size", 0),
            cached=reply.get("cached", False),
            tier=reply.get("tier", "")))

    def _retry(self, ticket: _RouterTicket, why: str) -> None:
        if ticket.attempts >= self.config.max_retries:
            self._reject_no_shard(ticket)
            return
        self._inc("retries")
        backoff_s = (self.config.retry_backoff_ms / 1e3
                     * (2 ** (ticket.attempts - 1)))
        scheduled_at = time.monotonic()

        def resend() -> None:
            tracer = trace.active()
            if tracer is not None:
                tracer.add_span("retry", "cluster", scheduled_at,
                                time.monotonic(),
                                args={"rid": ticket.id,
                                      "attempt": ticket.attempts,
                                      "why": why})
            with self._lock:
                self._timers.discard(timer)
                if ticket.id not in self._live:   # resolved while backed off
                    return
            shard = self._route(ticket)
            if shard is None:
                self._reject_no_shard(ticket)
            else:
                self._forward(ticket, shard)

        timer = threading.Timer(backoff_s, resend)
        timer.daemon = True
        with self._lock:
            if ticket.id not in self._live:
                return
            self._timers.add(timer)
        timer.start()

    def _rejection(self, ticket: _RouterTicket,
                   reason: str) -> ClusterResponse:
        return ClusterResponse(
            id=ticket.id, status=STATUS_REJECTED,
            fingerprint=ticket.request.fingerprint, reason=reason,
            attempts=ticket.attempts,
            replica_routed=ticket.replica_routed,
            latency_ms=(time.monotonic() - ticket.submitted_at) * 1e3)

    def _reject_no_shard(self, ticket: _RouterTicket) -> None:
        """Deterministic terminal rejection after routing exhaustion."""
        self._resolve(ticket, self._rejection(
            ticket, f"no healthy shard after {ticket.attempts} "
                    f"attempt(s) (max_retries={self.config.max_retries})"))

    def _resolve(self, ticket: _RouterTicket, response: ClusterResponse,
                 count: bool = True) -> None:
        if ticket.future.resolve(response):
            with self._live_cond:
                self._live.pop(ticket.id, None)
                if count:
                    if response.status == STATUS_OK:
                        self._counters["completed"] += 1
                    elif response.status in self._counters:
                        self._counters[response.status] += 1
                    else:
                        self._counters["errors"] += 1
                elif response.status == STATUS_REJECTED:
                    self._counters["rejected"] += 1
                self._live_cond.notify_all()

    def _inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    # -------------------------------------------------------------- heartbeat
    def _heartbeat_loop(self) -> None:
        while not self._hb_stop.wait(self.config.heartbeat_interval_s):
            for shard, channel in self._channels.items():
                if not channel.healthy:
                    continue
                channel.fail_timed_out(self.config.request_timeout_s)
                channel.send(
                    {"op": OP_PING},
                    on_reply=lambda reply, c=channel:
                        c.last_pong.update(reply or {}))

    # ------------------------------------------------------------ observability
    def shard_metrics(self, timeout: float = 5.0) -> dict[int, dict]:
        """Per-shard serve/engine snapshots gathered over the control op."""
        replies: dict[int, dict] = {}
        events = []
        for shard, channel in self._channels.items():
            if not channel.healthy:
                continue
            done = threading.Event()

            def on_reply(reply, shard=shard, done=done):
                if reply is not None:
                    replies[shard] = reply
                done.set()

            channel.send({"op": OP_METRICS}, on_reply=on_reply)
            events.append(done)
        for done in events:
            done.wait(timeout)
        return {s: replies[s] for s in sorted(replies)}

    def metrics_snapshot(self, timeout: float = 5.0) -> dict:
        """Router counters + per-shard snapshots + sorted-key aggregation."""
        shards = self.shard_metrics(timeout)
        with self._lock:
            counters = {k: self._counters[k] for k in sorted(self._counters)}
            live = len(self._live)
            hot = {fp: reps for fp, reps in sorted(self._hot.items())}
        per_shard = {}
        for shard, channel in sorted(self._channels.items()):
            entry = {
                "cached_matrices": shards.get(shard, {}).get(
                    "cached_matrices", 0),
                "healthy": channel.healthy,
                "in_flight": channel.last_pong.get("in_flight", 0),
                "outstanding": channel.outstanding,
                "queue_depth": channel.last_pong.get("queue_depth", 0),
            }
            if shard in shards:
                entry["metrics"] = shards[shard]["metrics"]
            per_shard[str(shard)] = entry
        return {
            "aggregate": aggregate_shards(
                [s["metrics"] for s in shards.values()]),
            "counters": counters,
            "gauges": {"live_requests": live,
                       "shards": len(self._channels),
                       "shards_healthy": len(self._healthy_shards())},
            "hotkeys": self.tracker.snapshot(),
            "replicated": hot,
            "shards": per_shard,
        }

    def metrics_json(self, indent: int | None = 2,
                     timeout: float = 5.0) -> str:
        import json
        return json.dumps(self.metrics_snapshot(timeout), indent=indent,
                          sort_keys=True)

    def metrics_prometheus(self, timeout: float = 5.0) -> str:
        return cluster_prometheus(self.metrics_snapshot(timeout))

    # ------------------------------------------------------------- front door
    def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open the socket front door; returns the bound port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        t = threading.Thread(target=self._accept_loop,
                             name="repro-cluster-frontend", daemon=True)
        t.start()
        self._frontend_threads.append(t)
        return listener.getsockname()[1]

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        # monotonic shutdown latch polled every 200ms; a stale read only
        # delays loop exit by one accept timeout
        while not self._stopped:  # analyze: allow(atomicity)
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            set_nodelay(conn)
            self._frontend_conns.append(conn)
            t = threading.Thread(
                target=self._serve_client, args=(conn,),
                name="repro-cluster-frontend-conn", daemon=True)
            t.start()
            self._frontend_threads.append(t)

    def _serve_client(self, conn: socket.socket) -> None:
        """One client link: register/eval/metrics over the shared framing."""
        write_lock = threading.Lock()

        def reply(msg: dict) -> None:
            with write_lock:
                try:
                    send_msg(conn, msg)
                except (OSError, ValueError):
                    pass

        try:
            while True:
                try:
                    msg = recv_msg(conn)
                except (ConnectionError, OSError):
                    return
                if msg is None:
                    return
                op, rid = msg.get("op"), msg.get("rid")
                if op == OP_REGISTER:
                    fp = self.register(msg["matrix"])
                    reply({"op": "ok", "rid": rid, "fingerprint": fp})
                elif op == OP_EVAL:
                    request = ClusterRequest(
                        fingerprint=msg["fingerprint"], y=msg["y"],
                        v=msg.get("v"), z=msg.get("z"),
                        alpha=msg.get("alpha", 1.0),
                        beta=msg.get("beta", 0.0),
                        inner=msg.get("inner", True),
                        strategy=msg.get("strategy", "auto"),
                        deadline_ms=msg.get("deadline_ms"),
                        tenant=msg.get("tenant", ""),
                        tier=msg.get("tier", ""),
                        slo_ms=msg.get("slo_ms"))
                    self.submit(request).add_done_callback(
                        lambda resp, rid=rid: reply(
                            {"op": OP_RESULT, "rid": rid,
                             "response": resp}))
                elif op == OP_PING:
                    reply({"op": "pong", "rid": rid,
                           "shards": len(self._channels),
                           "shards_healthy": len(self._healthy_shards())})
                elif op == OP_CLUSTER_METRICS:
                    reply({"op": "ok", "rid": rid,
                           "snapshot": self.metrics_snapshot()})
                else:
                    reply({"op": OP_RESULT, "rid": rid, "status": "error",
                           "reason": f"unknown op {op!r}"})
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # joins run from stop() under the lifecycle lock by design (see stop)
    def _close_frontend(self) -> None:  # analyze: allow(lock-held-blocking)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for conn in self._frontend_conns:
            try:
                conn.close()
            except OSError:
                pass
        for t in self._frontend_threads:
            if t is not threading.current_thread():
                t.join(timeout=2.0)
