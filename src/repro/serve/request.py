"""Request/response types for the pattern-evaluation server.

A :class:`ServeRequest` is the user-facing description of one Eq.-1
evaluation (matrix + vectors + scalars + strategy) plus serving policy
knobs (a relative deadline).  Submitting one yields a :class:`ServeFuture`
that always resolves to a :class:`ServeResponse` — rejections (queue shed,
deadline timeout, shutdown) are *responses with a status*, never raised
exceptions, so callers can distinguish load-shedding from failure without
try/except plumbing.

Internally the server wraps each admitted request in a ``_Ticket`` carrying
the matrix fingerprint (the micro-batcher's grouping key), the absolute
deadline, and the enqueue timestamp used for wait-time accounting.  The
fingerprint is computed once, at admission, by the server's engine
(:meth:`~repro.core.engine.PatternEngine.fingerprint`), and travels with the
ticket's :class:`~repro.core.engine.PatternRequest` into evaluation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.engine import PatternRequest
# not called here: perfbench's traced runs wrap this module attribute by
# name, and a missing name makes those runs exit 1
from ..core.engine import fingerprint_matrix  # noqa: F401
from ..core.pattern import GenericPattern
from ..kernels.base import KernelResult
from ..sparse.csr import CsrMatrix

#: Terminal statuses a response can carry.
STATUS_OK = "ok"                 # evaluated; ``result`` is set
STATUS_SHED = "shed"             # admission queue full (load-shedding)
STATUS_TIMEOUT = "timeout"       # deadline expired before evaluation
STATUS_REJECTED = "rejected"     # server shutting down / not accepting
STATUS_ERROR = "error"           # evaluation raised; ``reason`` has details
STATUSES = (STATUS_OK, STATUS_SHED, STATUS_TIMEOUT, STATUS_REJECTED,
            STATUS_ERROR)


@dataclass
class ServeRequest:
    """One pattern evaluation to run through the server.

    The server evaluates a request under the identity ``X`` had when it
    was submitted: mutating ``X`` between submit and resolution is the
    caller's race (mutate between requests, never during one).
    """

    X: CsrMatrix | np.ndarray
    y: np.ndarray
    v: np.ndarray | None = None
    z: np.ndarray | None = None
    alpha: float = 1.0
    beta: float = 0.0
    inner: bool = True
    strategy: str = "auto"
    deadline_ms: float | None = None   # relative to submit; None = no deadline
    tenant: str = ""                   # opaque tenant label (observability)
    tier: str = ""                     # service class; "" = server default
    slo_ms: float | None = None        # latency SLO (observed, not enforced)

    def to_pattern_request(self, fingerprint: str | None = None
                           ) -> PatternRequest:
        """The engine request; ``fingerprint`` is ``X``'s admitted
        identity, so evaluation need not hash ``X`` again."""
        return PatternRequest(self.X, self.y, v=self.v, z=self.z,
                              alpha=self.alpha, beta=self.beta,
                              inner=self.inner, strategy=self.strategy,
                              fingerprint=fingerprint)

    def validate(self) -> GenericPattern:
        """Eagerly shape-check (raises ``ValueError`` in the caller's
        thread, not inside a worker where it would poison a whole batch)."""
        return GenericPattern(self.X, self.y, v=self.v, z=self.z,
                              alpha=self.alpha, beta=self.beta,
                              inner=self.inner)


@dataclass
class ServeResponse:
    """Terminal outcome of one submitted request."""

    id: int
    status: str
    result: KernelResult | None = None
    reason: str = ""
    fingerprint: str = ""
    wait_ms: float = 0.0          # enqueue -> batch dispatch
    service_ms: float = 0.0       # host wall time inside the engine
    latency_ms: float = 0.0       # enqueue -> resolution (end-to-end)
    batch_size: int = 0           # live requests in the dispatched batch
    cached: bool = False          # engine served this request fully warm
    tier: str = ""                # service class the server resolved

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class ServeFuture:
    """Write-once handle resolved by the server with a ServeResponse."""

    __slots__ = ("_event", "_response", "_callbacks", "_cb_lock",
                 "resolved_at")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: ServeResponse | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()
        #: ``time.monotonic()`` of the winning :meth:`resolve` call —
        #: lets callers measure completion time against their own clock
        #: (e.g. a backlog-replay benchmark timing from floodgate-open)
        self.resolved_at: float | None = None

    def resolve(self, response: ServeResponse) -> bool:
        """First resolution wins; later ones are ignored (returns False)."""
        with self._cb_lock:
            if self._event.is_set():
                return False
            self._response = response
            self.resolved_at = time.monotonic()
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(response)
        return True

    def add_done_callback(self, fn) -> None:
        """Run ``fn(response)`` once resolved (immediately if already done).

        Callbacks fire on the resolving thread (a server worker) — or the
        caller's thread when the future is already resolved — so they must
        be cheap and non-blocking (the cluster worker host uses one to hand
        finished responses to its socket-writer queue).
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
            response = self._response
        assert response is not None
        fn(response)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServeResponse:
        if not self._event.wait(timeout):
            raise TimeoutError("request was not resolved within the timeout")
        # Event.wait() is the publication barrier: resolve() stores the
        # response before set(), so the bare read is ordered after it
        # analyze: allow(atomicity)
        assert self._response is not None
        return self._response


@dataclass
class _Ticket:
    """Internal per-request record flowing queue -> batcher -> worker."""

    id: int
    request: PatternRequest
    key: tuple[str, str]            # (matrix fingerprint, strategy)
    enqueued_at: float              # time.monotonic()
    deadline_at: float | None       # absolute monotonic deadline, or None
    future: ServeFuture = field(default_factory=ServeFuture)
    tier: str = ""                  # resolved service class name
    slo_ms: float | None = None     # resolved latency SLO (observability)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline_at is None:
            return False
        return (now if now is not None else time.monotonic()) \
            > self.deadline_at
