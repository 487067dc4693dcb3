"""Shard worker: a ``PatternServer`` wrapped in a socket message loop.

Each shard is one OS process (its own GIL, its own
:class:`~repro.core.engine.PatternEngine` artifact LRU) running a
:class:`WorkerHost`: an accept loop whose per-connection handler decodes
length-prefixed messages and dispatches them —

* ``upload``   — pin the unpickled matrix on the engine (the worker owns
  that copy), check its fingerprint against the router's, and cache it
  under it (bounded LRU of matrices; the engine's own plan/artifact LRUs
  hang off it).  A mismatch is answered with an error and nothing is
  cached.  Admissions on a pinned matrix hit the pin memo, so an eval
  never hashes its matrix;
* ``eval``     — build a :class:`~repro.serve.request.ServeRequest` against
  the cached matrix and submit it to the embedded micro-batching server;
  the response is written back asynchronously when the serve future
  resolves, so the link stays pipelined (many in-flight rids per
  connection) and the worker's fingerprint batcher keeps its effect;
* ``ping``     — immediate health reply carrying queue-depth/in-flight
  gauges (the router's heartbeat and load signal);
* ``metrics``  — the full sorted-key ServeMetrics + engine snapshot;
* ``drain``    — graceful shutdown: stop the server (in-flight completes,
  queued requests get deterministic rejections), ack, then exit.

A request for an unknown fingerprint is answered with a machine-readable
``unknown-fingerprint`` error so the router can re-upload and resend —
workers never block waiting for data they do not have.

``worker_main`` is the ``multiprocessing`` entry point: it binds an
ephemeral localhost port, reports it through the parent's pipe, and serves
until drained.  Worker processes are daemonic, so a crashed router can
never leak them past its own lifetime.
"""

from __future__ import annotations

import queue
import socket
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..core.engine import PatternEngine
from ..serve.request import ServeRequest
from ..serve.server import PatternServer, ServerConfig
from .protocol import (CODE_UNKNOWN_FINGERPRINT, OP_DRAIN, OP_EVAL,
                       OP_METRICS, OP_OK, OP_PING, OP_PONG, OP_RESULT,
                       OP_UPLOAD, recv_msg, send_msg, set_nodelay)


@dataclass
class WorkerConfig:
    """Per-shard tunables (a ``ServerConfig`` plus engine/cache bounds)."""

    shard_id: int = 0
    queue_capacity: int = 4096       # deep: the router is the admission edge
    max_batch: int = 16
    batch_linger_ms: float = 1.0
    workers: int = 1
    engine_workers: int = 1
    policy: str = "fingerprint"
    max_plans: int = 256
    max_artifact_bytes: int = 256 * 1024 * 1024
    max_matrices: int = 0            # cached matrices per shard (0 = unbounded)
    # SLO scheduling knobs, forwarded verbatim to the embedded server
    # (all dataclasses, so a WorkerConfig stays multiprocessing-picklable)
    tiers: dict | None = None        # name -> repro.serve.TierSpec
    default_slo_ms: float | None = None
    autoscale: object | None = None  # repro.serve.AutoscaleConfig

    def server_config(self) -> ServerConfig:
        return ServerConfig(
            queue_capacity=self.queue_capacity, max_batch=self.max_batch,
            batch_linger_ms=self.batch_linger_ms, workers=self.workers,
            engine_workers=self.engine_workers, policy=self.policy,
            tiers=self.tiers, default_slo_ms=self.default_slo_ms,
            autoscale=self.autoscale)


class WorkerHost:
    """Socket front of one shard's ``PatternServer`` (also usable
    in-process: tests drive the handler over a ``socketpair``)."""

    def __init__(self, config: WorkerConfig | None = None,
                 engine: PatternEngine | None = None):
        self.config = config or WorkerConfig()
        self.engine = engine or PatternEngine(
            max_plans=self.config.max_plans,
            max_artifact_bytes=self.config.max_artifact_bytes)
        self.server = PatternServer(self.engine,
                                    self.config.server_config())
        self._matrices: OrderedDict[str, object] = OrderedDict()
        self._matrices_lock = threading.Lock()
        self._drained = threading.Event()
        self._listener: socket.socket | None = None
        self._handler_threads: list[threading.Thread] = []

    # ------------------------------------------------------------ matrix cache
    def cache_matrix(self, fingerprint: str, matrix) -> None:
        evicted = []
        with self._matrices_lock:
            replaced = self._matrices.get(fingerprint)
            self._matrices[fingerprint] = matrix
            self._matrices.move_to_end(fingerprint)
            cap = self.config.max_matrices
            while cap and len(self._matrices) > cap:
                evicted.append(self._matrices.popitem(last=False)[1])
        if replaced is not None and replaced is not matrix:
            self.engine.unpin(replaced)   # a re-upload of the same content
        for X in evicted:        # drop the engine's derived state with it
            self.engine.invalidate(X)

    def lookup_matrix(self, fingerprint: str):
        with self._matrices_lock:
            matrix = self._matrices.get(fingerprint)
            if matrix is not None:
                self._matrices.move_to_end(fingerprint)
            return matrix

    @property
    def cached_matrices(self) -> int:
        with self._matrices_lock:
            return len(self._matrices)

    # -------------------------------------------------------------- dispatch
    def handle_connection(self, conn: socket.socket) -> None:
        """Serve one link until EOF or drain (blocking; runs per-thread)."""
        out: queue.Queue = queue.Queue()
        writer = threading.Thread(
            target=self._write_loop, args=(conn, out),
            name=f"repro-cluster-w{self.config.shard_id}-writer",
            daemon=True)
        writer.start()
        try:
            while True:
                try:
                    msg = recv_msg(conn)
                except (ConnectionError, OSError):
                    break
                if msg is None:                      # clean close
                    break
                if not self._dispatch(msg, out):     # drain acked
                    break
        finally:
            out.put(None)
            writer.join()
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, msg: dict, out: queue.Queue) -> bool:
        """Handle one message; False once a drain has been acknowledged."""
        op = msg.get("op")
        rid = msg.get("rid")
        if op == OP_EVAL:
            self._handle_eval(msg, rid, out)
        elif op == OP_UPLOAD:
            self._handle_upload(msg, rid, out)
        elif op == OP_PING:
            out.put({"op": OP_PONG, "rid": rid,
                     "shard": self.config.shard_id,
                     "queue_depth": self.server.queue_depth,
                     "in_flight": self.server.in_flight})
        elif op == OP_METRICS:
            out.put({"op": OP_OK, "rid": rid,
                     "shard": self.config.shard_id,
                     "cached_matrices": self.cached_matrices,
                     "metrics": self.server.metrics_snapshot()})
        elif op == OP_DRAIN:
            # in-flight batches complete, the queue resolves as rejected;
            # eval responses enqueue *before* this ack, so the router sees
            # every outcome before the drain completes
            self.server.stop()
            self._drained.set()
            out.put({"op": OP_OK, "rid": rid, "drained": True})
            return False
        else:
            out.put({"op": OP_RESULT, "rid": rid, "status": "error",
                     "reason": f"unknown op {op!r}"})
        return True

    def _handle_upload(self, msg: dict, rid, out: queue.Queue) -> None:
        fp, matrix = msg["fingerprint"], msg["matrix"]
        # this process owns the unpickled copy, so it may freeze it: the
        # pin's one hash checks the frame, and every eval on the matrix
        # then hits the pin memo instead of hashing
        if self.engine.pin(matrix) != fp:
            self.engine.unpin(matrix)
            out.put({"op": OP_RESULT, "rid": rid, "status": "error",
                     "reason": f"uploaded matrix does not match "
                               f"fingerprint {fp}"})
            return
        self.cache_matrix(fp, matrix)
        out.put({"op": OP_OK, "rid": rid})

    def _handle_eval(self, msg: dict, rid, out: queue.Queue) -> None:
        fp = msg["fingerprint"]
        matrix = self.lookup_matrix(fp)
        if matrix is None:
            out.put({"op": OP_RESULT, "rid": rid, "status": "error",
                     "code": CODE_UNKNOWN_FINGERPRINT,
                     "reason": f"no matrix cached for fingerprint {fp}"})
            return
        try:
            request = ServeRequest(
                matrix, msg["y"], v=msg.get("v"), z=msg.get("z"),
                alpha=msg.get("alpha", 1.0), beta=msg.get("beta", 0.0),
                inner=msg.get("inner", True),
                strategy=msg.get("strategy", "auto"),
                deadline_ms=msg.get("deadline_ms"),
                tenant=msg.get("tenant", ""), tier=msg.get("tier", ""),
                slo_ms=msg.get("slo_ms"))
            future = self.server.submit(request)
        except ValueError as exc:            # shape errors, caller's fault
            out.put({"op": OP_RESULT, "rid": rid, "status": "error",
                     "reason": f"{type(exc).__name__}: {exc}"})
            return
        future.add_done_callback(
            lambda resp, rid=rid: out.put(
                {"op": OP_RESULT, "rid": rid, "status": resp.status,
                 "result": resp.result, "reason": resp.reason,
                 "fingerprint": resp.fingerprint, "wait_ms": resp.wait_ms,
                 "service_ms": resp.service_ms,
                 "batch_size": resp.batch_size, "cached": resp.cached,
                 "tier": resp.tier}))

    @staticmethod
    def _write_loop(conn: socket.socket, out: queue.Queue) -> None:
        """Single writer per connection: frames never interleave."""
        while True:
            msg = out.get()
            if msg is None:
                return
            try:
                send_msg(conn, msg)
            except (OSError, ValueError):
                # link gone: keep draining the queue so producer callbacks
                # never block, but stop touching the socket
                while out.get() is not None:
                    pass
                return

    # ------------------------------------------------------------- lifecycle
    def serve_forever(self, listener: socket.socket) -> None:
        """Accept loop; returns once drained (listener is closed here)."""
        self._listener = listener
        listener.settimeout(0.2)
        try:
            while not self._drained.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                set_nodelay(conn)
                t = threading.Thread(
                    target=self.handle_connection, args=(conn,),
                    name=f"repro-cluster-w{self.config.shard_id}-conn",
                    daemon=True)
                t.start()
                self._handler_threads.append(t)
        finally:
            try:
                listener.close()
            except OSError:
                pass
            for t in self._handler_threads:
                t.join(timeout=5.0)
            self.server.stop()               # idempotent; covers EOF exits


def worker_main(pipe, config: WorkerConfig) -> None:
    """Process entry point: bind, report the port, serve until drained."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    host = WorkerHost(config)
    try:
        pipe.send(listener.getsockname()[1])
        pipe.close()
        host.serve_forever(listener)
    finally:
        host.server.stop()
