"""Length-prefixed message framing for the cluster's socket links.

One frame = a 4-byte big-endian payload length followed by a pickled
Python object (messages are plain dicts with an ``"op"`` key; payloads
carry numpy vectors and ``CsrMatrix`` uploads).  The same framing runs on
every link — router→worker forwarding, the router's client-facing front
door, and the asyncio client — so there is exactly one wire format to test.

Pickle is appropriate here (and *only* here): every endpoint is a process
this package itself spawned, or a client on the same trust domain; the
protocol is an internal transport, not a public network API.  A maximum
frame size guards against framing corruption turning into an unbounded
allocation.

``recv_msg`` distinguishes a *clean* close (EOF exactly on a frame
boundary, returns ``None``) from a *torn* one (EOF mid-frame, raises
``ConnectionError``) — the router relies on that to tell graceful worker
shutdown from a crash.

Every TCP link sets ``TCP_NODELAY`` (:func:`set_nodelay`) where it is
connected or accepted.  Links are pipelined and their frames are small
(about 1 KB per request, 2 KB per reply), so with Nagle's algorithm on, a
frame written while an earlier one is unacknowledged waits for the peer's
delayed ACK — up to Linux's 40 ms timer.  No link wants that, so the
option is not configurable.  The asyncio client gets it from asyncio's
own transport.  The frame bytes do not depend on it.
"""

from __future__ import annotations

import pickle
import socket
import struct

#: Frames bigger than this indicate corruption, not data (uploads of the
#: benchmark matrices are a few MB; 1 GiB is far beyond any legal frame).
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">I")

# message ops, router -> worker
OP_EVAL = "eval"            # evaluate one request against a cached matrix
OP_UPLOAD = "upload"        # cache a matrix under its fingerprint
OP_PING = "ping"            # health probe; replies with load gauges
OP_METRICS = "metrics"      # full ServeMetrics + engine snapshot
OP_DRAIN = "drain"          # graceful shutdown: drain server, then exit

# message ops, worker -> router (every reply echoes the request's "rid")
OP_RESULT = "result"        # terminal response for an OP_EVAL
OP_OK = "ok"                # acknowledgement (upload, drain)
OP_PONG = "pong"            # health reply: queue_depth / in_flight gauges

# client-facing ops on the router's front door
OP_REGISTER = "register"    # publish a matrix to the router's registry
OP_CLUSTER_METRICS = "cluster-metrics"

#: machine-readable reason code a worker attaches when asked to evaluate a
#: fingerprint it has no matrix for (the router re-uploads and resends)
CODE_UNKNOWN_FINGERPRINT = "unknown-fingerprint"


def set_nodelay(sock: socket.socket) -> socket.socket:
    """Turn Nagle's algorithm off on a connected TCP socket; returns it.

    Called at connect/accept, not in the per-link handlers: tests drive
    those over AF_UNIX socketpairs, which have no TCP options."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def send_msg(sock: socket.socket, obj) -> None:
    """Serialize ``obj`` and write one frame (callers serialize access)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds "
                         f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF *before the first byte*.

    EOF after a partial read is a torn frame and raises ``ConnectionError``
    — the caller must not mistake it for a clean shutdown.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise ConnectionError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket):
    """Read one frame; ``None`` on clean EOF (close at a frame boundary)."""
    header = recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame announced ({length} bytes); "
                              "treating the link as corrupt")
    payload = recv_exact(sock, length)
    if payload is None:
        raise ConnectionError("connection closed between header and payload")
    return pickle.loads(payload)
