"""Router-side handle to one shard: process, socket, pipelined in-flight.

A :class:`ShardChannel` owns the link to one worker process — a single
persistent connection with a sender thread (frames from a queue, so
callers never block on the socket) and a reader thread (replies matched to
pending callbacks by rid).  The link is *pipelined*: many requests are
outstanding at once, which is what lets the worker's fingerprint
micro-batcher see whole groups instead of one request per round trip.

Failure is a first-class outcome, not an exception path: when the
connection tears (worker killed, torn frame) or a reply exceeds the
per-request timeout, every pending callback fires with ``None`` — the
router's signal to retry on a replica or reject deterministically.  The
channel itself never retries; policy lives in the router.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

from .protocol import recv_msg, send_msg, set_nodelay


class ShardChannel:
    """One worker link: pipelined request/reply with failure callbacks."""

    def __init__(self, shard_id: int, port: int, process=None,
                 connect_timeout_s: float = 10.0):
        self.shard_id = shard_id
        self.port = port
        self.process = process
        self._sock = set_nodelay(socket.create_connection(
            ("127.0.0.1", port), timeout=connect_timeout_s))
        self._sock.settimeout(None)
        self._out: queue.Queue = queue.Queue()
        self._pending: dict[int, tuple] = {}   # rid -> (callback, sent_at)
        self._lock = threading.Lock()
        self._next_rid = 0
        self._healthy = True
        self._closed = False
        #: router-visible load signal for power-of-two-choices
        self.outstanding = 0
        self.last_pong: dict = {}
        self._sender = threading.Thread(
            target=self._send_loop,
            name=f"repro-cluster-ch{shard_id}-send", daemon=True)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-cluster-ch{shard_id}-read", daemon=True)
        self._sender.start()
        self._reader.start()

    # ----------------------------------------------------------------- state
    @property
    def healthy(self) -> bool:
        with self._lock:
            if not self._healthy:
                return False
        if self.process is not None and not self.process.is_alive():
            return False
        return True

    # ------------------------------------------------------------ submission
    def send(self, msg: dict, on_reply=None) -> int:
        """Queue one frame; ``on_reply(reply | None)`` fires on the reply,
        or with ``None`` when the link fails first.  Returns the rid."""
        with self._lock:
            if not self._healthy or self._closed:
                rid = self._next_rid = self._next_rid + 1
                failed = True
            else:
                rid = self._next_rid = self._next_rid + 1
                failed = False
                if on_reply is not None:
                    self._pending[rid] = (on_reply, time.monotonic())
                    self.outstanding += 1
        if failed:
            if on_reply is not None:
                on_reply(None)
            return rid
        self._out.put(dict(msg, rid=rid))
        return rid

    # -------------------------------------------------------------- internals
    def _send_loop(self) -> None:
        while True:
            msg = self._out.get()
            if msg is None:
                return
            try:
                send_msg(self._sock, msg)
            except (OSError, ValueError):
                self._fail("send failed")
                while self._out.get() is not None:
                    pass
                return

    def _read_loop(self) -> None:
        while True:
            try:
                reply = recv_msg(self._sock)
            except (ConnectionError, OSError):
                reply = None
            if reply is None:
                self._fail("connection closed")
                return
            with self._lock:
                entry = self._pending.pop(reply.get("rid"), None)
                if entry is not None:
                    self.outstanding -= 1
            if entry is not None:
                entry[0](reply)

    def _fail(self, reason: str) -> None:
        """Mark unhealthy and flush every pending callback with ``None``."""
        with self._lock:
            if not self._healthy:
                return
            self._healthy = False
            pending = list(self._pending.values())
            self._pending.clear()
            self.outstanding = 0
        for callback, _ in pending:
            callback(None)

    def fail_timed_out(self, timeout_s: float) -> int:
        """Fail pending entries older than ``timeout_s`` (heartbeat sweep).

        A worker that is alive but wedged never tears the socket; this is
        the bound that turns a wedged shard into retryable failures."""
        now = time.monotonic()
        expired = []
        with self._lock:
            for rid, (callback, sent_at) in list(self._pending.items()):
                if now - sent_at > timeout_s:
                    expired.append(callback)
                    del self._pending[rid]
                    self.outstanding -= 1
        for callback in expired:
            callback(None)
        return len(expired)

    # ------------------------------------------------------------- lifecycle
    def close(self, join_timeout_s: float = 5.0) -> None:
        """Tear the link down and fail anything still pending."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._out.put(None)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._fail("channel closed")
        self._sender.join(timeout=join_timeout_s)
        self._reader.join(timeout=join_timeout_s)
