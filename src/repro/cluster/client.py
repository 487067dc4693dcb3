"""Cluster clients: in-process, blocking socket, and asyncio.

Three clients, one surface (``register`` / ``submit`` / ``evaluate`` /
``metrics``):

* :class:`ClusterClient` wraps an in-process :class:`ShardRouter` — the
  loadgen/bench path, zero extra hops;
* :class:`SocketClusterClient` talks to a router front door opened with
  ``router.listen()`` over one pipelined connection (a reader thread
  matches replies to futures by rid, so many requests can be in flight);
* :class:`AsyncClusterClient` is the asyncio twin for async applications:
  same wire protocol, ``await``-able futures on the running loop.

All three resolve :class:`~repro.cluster.request.ClusterFuture` objects
with terminal :class:`~repro.cluster.request.ClusterResponse` values —
transport loss resolves an ``error`` response rather than raising, so a
client-side failure is observable the same way a cluster-side one is.
"""

from __future__ import annotations

import socket
import threading

from .protocol import (OP_CLUSTER_METRICS, OP_EVAL, OP_PING, OP_REGISTER,
                       recv_msg, send_msg, set_nodelay)
from .request import (STATUS_ERROR, ClusterFuture, ClusterRequest,
                      ClusterResponse)


class ClusterClient:
    """Thin in-process facade over a running :class:`ShardRouter`."""

    def __init__(self, router):
        self.router = router

    def register(self, X) -> str:
        return self.router.register(X)

    def submit(self, request: ClusterRequest) -> ClusterFuture:
        return self.router.submit(request)

    def evaluate(self, request: ClusterRequest,
                 timeout: float | None = None) -> ClusterResponse:
        return self.router.submit(request).result(timeout)

    def metrics(self) -> dict:
        return self.router.metrics_snapshot()

    def close(self) -> None:      # the router's owner stops it
        pass


class SocketClusterClient:
    """Blocking client for the router's socket front door (pipelined)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 connect_timeout_s: float = 10.0):
        self._sock = set_nodelay(socket.create_connection(
            (host, port), timeout=connect_timeout_s))
        self._sock.settimeout(None)
        self._lock = threading.Lock()       # guards rid counter + pending
        self._write_lock = threading.Lock() # serializes frame writes
        self._pending: dict[int, ClusterFuture] = {}
        self._next_rid = 0
        self._closed = False
        self._reader = threading.Thread(target=self._read_loop,
                                        name="repro-cluster-client-read",
                                        daemon=True)
        self._reader.start()

    # --------------------------------------------------------------- plumbing
    def _call(self, msg: dict) -> ClusterFuture:
        future = ClusterFuture()
        with self._lock:
            if self._closed:
                future.resolve(ClusterResponse(
                    id=0, status=STATUS_ERROR, reason="client closed"))
                return future
            rid = self._next_rid = self._next_rid + 1
            self._pending[rid] = future
        try:
            with self._write_lock:
                send_msg(self._sock, dict(msg, rid=rid))
        except (OSError, ValueError) as exc:
            self._fail(f"send failed: {exc}")
        return future

    def _read_loop(self) -> None:
        while True:
            try:
                msg = recv_msg(self._sock)
            except (ConnectionError, OSError):
                msg = None
            if msg is None:
                self._fail("connection closed")
                return
            with self._lock:
                future = self._pending.pop(msg.get("rid"), None)
            if future is None:
                continue
            response = msg.get("response")
            if isinstance(response, ClusterResponse):
                future.resolve(response)
            else:
                # non-eval replies (register/metrics/ping acks) ride the
                # same future type with the raw payload as the result
                future.resolve(ClusterResponse(
                    id=msg.get("rid", 0),
                    status=msg.get("status", "ok"),
                    result=msg, reason=msg.get("reason", "")))

    def _fail(self, reason: str) -> None:
        with self._lock:
            if self._closed:
                pending = {}
            else:
                self._closed = True
                pending, self._pending = self._pending, {}
        for rid, future in pending.items():
            future.resolve(ClusterResponse(
                id=rid, status=STATUS_ERROR,
                reason=f"transport failure: {reason}"))

    # ---------------------------------------------------------------- surface
    def register(self, X, timeout: float | None = 30.0) -> str:
        reply = self._call({"op": OP_REGISTER, "matrix": X}).result(timeout)
        if not reply.ok:
            raise ConnectionError(f"register failed: {reply.reason}")
        return reply.result["fingerprint"]

    def submit(self, request: ClusterRequest) -> ClusterFuture:
        return self._call(dict(request.to_wire(), op=OP_EVAL))

    def evaluate(self, request: ClusterRequest,
                 timeout: float | None = None) -> ClusterResponse:
        return self.submit(request).result(timeout)

    def metrics(self, timeout: float | None = 30.0) -> dict:
        reply = self._call({"op": OP_CLUSTER_METRICS}).result(timeout)
        if not reply.ok:
            raise ConnectionError(f"metrics failed: {reply.reason}")
        return reply.result["snapshot"]

    def ping(self, timeout: float | None = 30.0) -> dict:
        reply = self._call({"op": OP_PING}).result(timeout)
        return reply.result or {}

    def close(self) -> None:
        self._fail("client closed")      # marks closed + flushes pending
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        if self._reader is not threading.current_thread():
            self._reader.join(timeout=5.0)

    def __enter__(self) -> "SocketClusterClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AsyncClusterClient:
    """asyncio client for the router front door (same wire protocol).

    Usage::

        client = await AsyncClusterClient.connect(port=port)
        fp = await client.register(X)
        response = await client.evaluate(ClusterRequest(fp, y))
        await client.close()
    """

    def __init__(self, reader, writer):
        import asyncio

        self._reader = reader
        self._writer = writer
        self._pending: dict[int, "asyncio.Future"] = {}
        self._next_rid = 0
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = 0) -> "AsyncClusterClient":
        import asyncio

        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # --------------------------------------------------------------- plumbing
    async def _call(self, msg: dict):
        import asyncio
        import pickle
        import struct

        if self._closed:
            raise ConnectionError("client closed")
        self._next_rid += 1
        rid = self._next_rid
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        payload = pickle.dumps(dict(msg, rid=rid),
                               protocol=pickle.HIGHEST_PROTOCOL)
        self._writer.write(struct.pack(">I", len(payload)) + payload)
        await self._writer.drain()
        return await future

    async def _read_loop(self) -> None:
        import asyncio
        import pickle
        import struct

        try:
            while True:
                header = await self._reader.readexactly(4)
                (length,) = struct.unpack(">I", header)
                payload = await self._reader.readexactly(length)
                msg = pickle.loads(payload)
                future = self._pending.pop(msg.get("rid"), None)
                if future is not None and not future.done():
                    future.set_result(msg)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            pending, self._pending = self._pending, {}
            for future in pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("connection closed"))

    # ---------------------------------------------------------------- surface
    async def register(self, X) -> str:
        reply = await self._call({"op": OP_REGISTER, "matrix": X})
        return reply["fingerprint"]

    async def evaluate(self, request: ClusterRequest) -> ClusterResponse:
        reply = await self._call(dict(request.to_wire(), op=OP_EVAL))
        response = reply.get("response")
        if not isinstance(response, ClusterResponse):
            raise ConnectionError(f"malformed reply: {reply!r}")
        return response

    async def metrics(self) -> dict:
        reply = await self._call({"op": OP_CLUSTER_METRICS})
        return reply["snapshot"]

    async def ping(self) -> dict:
        return await self._call({"op": OP_PING})

    async def close(self) -> None:
        import asyncio

        if self._closed:
            return
        self._closed = True
        self._read_task.cancel()
        try:
            await self._read_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
