"""The pattern-evaluation server: admission -> micro-batching -> workers.

``PatternServer`` turns a :class:`~repro.core.engine.PatternEngine` into a
long-lived service:

* **admission** — a bounded :class:`~repro.serve.queue.AdmissionQueue`;
  non-blocking submits are *shed* when it is full (load-shedding),
  blocking submits exert backpressure.  Each request may carry a relative
  deadline; requests that expire while queued are rejected with a
  ``timeout`` status instead of being evaluated.
* **scheduling** — a single scheduler thread drains the queue (with a
  short linger so batches fill), forms micro-batches with
  :func:`~repro.serve.batcher.form_batches` (``fingerprint`` policy groups
  requests by matrix content fingerprint so each batch reuses one cached
  profile/plan/transpose; ``fifo`` is the naive baseline), and dispatches
  at most ``workers`` batches concurrently — undispatched work stays in
  the admission queue where it remains sheddable and rejectable.
* **execution** — a worker pool drains batches through
  ``PatternEngine.evaluate_many``; numerical results are never cached, so
  server outputs are bit-identical to direct ``engine.evaluate`` calls.
* **shutdown** — :meth:`stop` stops admission, lets in-flight batches
  complete, resolves everything still queued with a deterministic
  ``rejected`` response, and joins every thread it started.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import trace
from ..core.engine import PatternEngine
from .autoscale import AutoscaleConfig, Autoscaler
from .batcher import POLICIES, form_batches
from .metrics import ServeMetrics
from .queue import AdmissionQueue
from .request import (STATUS_ERROR, STATUS_OK, STATUS_REJECTED, STATUS_SHED,
                      STATUS_TIMEOUT, ServeFuture, ServeRequest,
                      ServeResponse, _Ticket)
from .sched import (CostModel, TierSpec, default_tiers, pick_next_batch,
                    resolve_tier, shed_sort_key)


@dataclass
class ServerConfig:
    """Tunables for one :class:`PatternServer`."""

    queue_capacity: int = 256        # admission bound (backpressure/shed)
    max_batch: int = 16              # requests per dispatched micro-batch
    batch_linger_ms: float = 1.0     # wait for a batch to fill before cut
    workers: int = 2                 # concurrent batches in flight
    engine_workers: int = 1          # threads inside evaluate_many per batch
    policy: str = "fingerprint"      # "fingerprint" | "fifo" | "edf"
    default_deadline_ms: float | None = None
    drain_lookahead: int | None = None   # tickets pulled per round (None=all)
    tiers: dict[str, TierSpec] | None = None  # None = stock two-tier split
    default_slo_ms: float | None = None  # SLO for tiers that name none
    autoscale: AutoscaleConfig | None = None  # None = fixed worker count

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown batching policy {self.policy!r}; "
                             f"expected one of {POLICIES}")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class PatternServer:
    """Micro-batching evaluation server over one PatternEngine session."""

    def __init__(self, engine: PatternEngine | None = None,
                 config: ServerConfig | None = None,
                 start: bool = True):
        self.engine = engine or PatternEngine()
        self.config = config or ServerConfig()
        self.metrics = ServeMetrics()
        self.cost_model = CostModel()
        self._tiers = self.config.tiers or default_tiers()
        self._fair_vt: dict[str, float] = {}
        asc = self.config.autoscale
        self._autoscaler = Autoscaler(asc, initial=self.config.workers) \
            if asc is not None else None
        self._workers_target = self._autoscaler.target \
            if self._autoscaler is not None else self.config.workers
        self._last_autoscale = 0.0
        self._prev_flow = self.metrics.flow_totals()
        pool_size = max(self.config.workers,
                        asc.max_workers if asc is not None else 0)
        self._queue = AdmissionQueue(self.config.queue_capacity)
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size,
            thread_name_prefix="repro-serve-worker")
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="repro-serve-scheduler",
            daemon=True)
        self._stop_event = threading.Event()
        # an Event, not a bare bool: submit() checks it without taking the
        # lifecycle lock, so the flag needs its own synchronization
        self._accepting = threading.Event()
        self._accepting.set()
        self._stopped = False
        self._shutdown_complete = False
        # reentrant: an interrupted stop() may be retried from the same
        # thread (the CLI's SIGINT path) without deadlocking
        self._lifecycle_lock = threading.RLock()
        self._flight_lock = threading.Lock()
        self._flight_cond = threading.Condition(self._flight_lock)
        self._in_flight = 0
        self._next_id = 0
        self._id_lock = threading.Lock()
        if start:
            self.start()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "PatternServer":
        """Start the scheduler thread (idempotent)."""
        with self._lifecycle_lock:
            if self._stopped:
                raise RuntimeError("server was stopped; create a new one")
            if not self._scheduler.is_alive():
                try:
                    self._scheduler.start()
                except RuntimeError:       # already started and finished
                    pass
        return self

    # joining the scheduler/pool under the lifecycle lock is the point:
    # concurrent stop()/start() calls must observe a completed shutdown
    def stop(self) -> None:  # analyze: allow(lock-held-blocking)
        """Graceful shutdown: drain in-flight work, reject queued requests.

        Safe to call more than once, including again after a
        ``KeyboardInterrupt`` cut a previous call short mid-join: the
        shutdown is only latched as complete once every thread has been
        joined, so a retry finishes the drain instead of silently leaking
        the scheduler (the ``repro serve`` SIGINT regression).
        """
        with self._lifecycle_lock:
            if self._shutdown_complete:
                return
            self._stopped = True
            self._accepting.clear()
            started = self._scheduler.ident is not None
            self._queue.close()
            self._stop_event.set()
            with self._flight_cond:
                self._flight_cond.notify_all()
            if started:
                self._scheduler.join()
            else:
                # scheduler never ran: reject the backlog ourselves
                for ticket in self._queue.reject_pending():
                    self._reject(ticket, "server shutdown")
            self._pool.shutdown(wait=True)
            self._shutdown_complete = True

    close = stop

    def __enter__(self) -> "PatternServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -------------------------------------------------------------- frontend
    def submit(self, request: ServeRequest, block: bool = False,
               timeout: float | None = None) -> ServeFuture:
        """Offer a request; always returns a future that will resolve.

        ``block=True`` waits for queue space (backpressure) up to
        ``timeout`` seconds; otherwise a full queue sheds immediately.
        Shape errors in the request raise ``ValueError`` here, in the
        caller's thread, before anything is enqueued.
        """
        with trace.span("admission", "serve") as sp:
            request.validate()
            rid = self._new_id()
            # the request's one hash (none for a matrix pinned on the
            # engine): it keys the micro-batcher and rides into evaluation
            fp = self.engine.fingerprint(request.X)
            key = (fp, request.strategy)
            spec = resolve_tier(request.tier, self._tiers)
            slo_ms = request.slo_ms
            if slo_ms is None:
                slo_ms = spec.slo_ms
            if slo_ms is None:
                slo_ms = self.config.default_slo_ms
            deadline_ms = request.deadline_ms
            if deadline_ms is None:
                deadline_ms = self.config.default_deadline_ms
            now = time.monotonic()
            ticket = _Ticket(
                id=rid, request=request.to_pattern_request(fp), key=key,
                enqueued_at=now,
                deadline_at=(now + deadline_ms / 1e3)
                if deadline_ms is not None else None,
                tier=spec.name, slo_ms=slo_ms)
            self.metrics.inc("submitted")
            sp.set("rid", rid)
            if not self._accepting.is_set():
                self._reject(ticket, "server shutdown")
                sp.set("outcome", "rejected")
                return ticket.future
            if self.config.policy == "edf" and not block:
                admitted, victim = self._queue.offer_preempting(
                    ticket, lambda t: shed_sort_key(t, self._tiers))
                if victim is not None:
                    self.metrics.inc("preempted")
                    self._shed(victim,
                               "preempted by higher-priority arrival")
                offered = admitted
            else:
                offered = self._queue.offer(ticket, block=block,
                                            timeout=timeout)
            if not offered:
                if self._accepting.is_set() and not self._queue.closed:
                    sp.set("outcome", "shed")
                    self._shed(ticket,
                               f"admission queue full "
                               f"(capacity {self.config.queue_capacity})")
                else:
                    self._reject(ticket, "server shutdown")
                    sp.set("outcome", "rejected")
            else:
                self.metrics.inc("admitted")
                sp.set("outcome", "admitted")
            return ticket.future

    def evaluate(self, request: ServeRequest, block: bool = True,
                 timeout: float | None = None,
                 wait_timeout: float | None = None) -> ServeResponse:
        """Submit and wait for the terminal response."""
        return self.submit(request, block=block,
                           timeout=timeout).result(wait_timeout)

    # ---------------------------------------------------------------- gauges
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        with self._flight_lock:
            return self._in_flight

    @property
    def workers_target(self) -> int:
        """Current worker-slot target (autoscaled, else the config value)."""
        with self._flight_lock:
            return self._workers_target

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and nothing is in flight."""
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        with self._flight_cond:
            while self._in_flight > 0 or len(self._queue) > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._flight_cond.wait(remaining if remaining is not None
                                       else 0.05)
        return True

    def _trace_phases(self) -> dict | None:
        """Span-derived phase aggregates when a tracer is installed."""
        tracer = trace.active()
        return tracer.phase_totals() if tracer is not None else None

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot(self.queue_depth, self.in_flight,
                                     self.engine.snapshot(),
                                     phases=self._trace_phases(),
                                     workers=self.workers_target)

    def metrics_json(self, indent: int | None = 2) -> str:
        return self.metrics.to_json(self.queue_depth, self.in_flight,
                                    self.engine.snapshot(), indent=indent,
                                    phases=self._trace_phases(),
                                    workers=self.workers_target)

    def metrics_prometheus(self) -> str:
        return self.metrics.to_prometheus(self.queue_depth, self.in_flight,
                                          self.engine.snapshot(),
                                          phases=self._trace_phases(),
                                          workers=self.workers_target)

    # -------------------------------------------------------------- internals
    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _reject(self, ticket: _Ticket, reason: str) -> None:
        if ticket.future.resolve(ServeResponse(
                id=ticket.id, status=STATUS_REJECTED, reason=reason,
                fingerprint=ticket.key[0], tier=ticket.tier)):
            self.metrics.inc("rejected")
            self.metrics.observe_tier(ticket.tier, STATUS_REJECTED,
                                      slo_ms=ticket.slo_ms)

    def _shed(self, ticket: _Ticket, reason: str) -> None:
        if ticket.future.resolve(ServeResponse(
                id=ticket.id, status=STATUS_SHED, reason=reason,
                fingerprint=ticket.key[0], tier=ticket.tier)):
            self.metrics.inc("shed")
            self.metrics.observe_tier(ticket.tier, STATUS_SHED,
                                      slo_ms=ticket.slo_ms)

    def _schedule_loop(self) -> None:
        if self.config.policy == "edf":
            self._schedule_loop_edf()
            return
        cfg = self.config
        linger_s = max(cfg.batch_linger_ms, 0.0) / 1e3
        pending: deque[list[_Ticket]] = deque()
        while not self._stop_event.is_set():
            if not pending:
                tickets = self._queue.drain(
                    max_items=cfg.drain_lookahead, wait_s=0.05,
                    linger_s=linger_s)
                self._maybe_autoscale()
                if not tickets:
                    continue
                with trace.span("batch-formation", "serve",
                                policy=cfg.policy) as sp:
                    batches = form_batches(tickets, cfg.policy,
                                           cfg.max_batch)
                    sp.count(tickets=len(tickets), batches=len(batches))
                pending.extend(batches)
            if not self._acquire_slot():
                break                       # stopping; pending handled below
            self._pool.submit(self._run_batch, pending.popleft())
        # shutdown: everything not dispatched gets a deterministic rejection
        leftovers = [t for batch in pending for t in batch]
        leftovers.extend(self._queue.reject_pending())
        for ticket in leftovers:
            self._reject(ticket, "server shutdown")

    def _schedule_loop_edf(self) -> None:
        """EDF scheduling: one cost-sized batch picked per free slot.

        Unlike the fifo/fingerprint loop — which plans a whole drained
        round up front — the EDF loop keeps an unplanned ``backlog`` and
        runs :func:`~repro.serve.sched.pick_next_batch` once per
        dispatch, so requests arriving between dispatches join the very
        next decision (a late interactive request overtakes queued batch
        work instead of waiting out a pre-planned round).
        """
        cfg = self.config
        linger_s = max(cfg.batch_linger_ms, 0.0) / 1e3
        backlog: list[_Ticket] = []
        while not self._stop_event.is_set():
            tickets = self._queue.drain(
                max_items=cfg.drain_lookahead,
                wait_s=0.05 if not backlog else 0.0,
                linger_s=linger_s if not backlog else 0.0)
            if tickets and self.cost_model.snapshot()["observations"] == 0:
                # cold model on a traced server: seed the global fallback
                # from the span phase aggregates before the first dispatch
                self.cost_model.observe_phases(self._trace_phases())
            backlog.extend(tickets)
            self._maybe_autoscale()
            if not backlog:
                continue
            if not self._acquire_slot():
                break                       # stopping; backlog handled below
            with trace.span("batch-formation", "serve",
                            policy=cfg.policy) as sp:
                batch = pick_next_batch(
                    backlog, tiers=self._tiers, fair_vt=self._fair_vt,
                    cost_model=self.cost_model, max_batch=cfg.max_batch)
                assert batch is not None    # backlog was non-empty
                sp.count(tickets=len(batch) + len(backlog), batches=1)
            self._pool.submit(self._run_batch, batch)
        leftovers = backlog + self._queue.reject_pending()
        for ticket in leftovers:
            self._reject(ticket, "server shutdown")

    def _maybe_autoscale(self) -> None:
        """Sample the queue-wait/service ratio and apply the autoscaler.

        Runs on the scheduler thread at ``interval_s`` cadence; a target
        change widens/narrows the in-flight slot gate (the thread pool
        is sized at ``max_workers`` once) and is exported as a trace
        span plus the ``scale_up``/``scale_down`` counters.
        """
        asc = self._autoscaler
        if asc is None:
            return
        now = time.monotonic()
        if now - self._last_autoscale < asc.config.interval_s:
            return
        self._last_autoscale = now
        flow = self.metrics.flow_totals()
        prev, self._prev_flow = self._prev_flow, flow
        d_wait_n = flow["wait_count"] - prev["wait_count"]
        d_serv_n = flow["service_count"] - prev["service_count"]
        target = asc.observe(
            wait_ms=((flow["wait_ms_sum"] - prev["wait_ms_sum"]) / d_wait_n
                     if d_wait_n else 0.0),
            service_ms=((flow["service_ms_sum"] - prev["service_ms_sum"])
                        / d_serv_n if d_serv_n else 0.0),
            completed=flow["completed"] - prev["completed"],
            queue_depth=self.queue_depth, now=now)
        if target is None:
            return
        with self._flight_cond:
            old, self._workers_target = self._workers_target, target
            self._flight_cond.notify_all()
        direction = "up" if target > old else "down"
        self.metrics.inc(f"scale_{direction}")
        with trace.span("scale", "serve", direction=direction) as sp:
            sp.set("from", old)
            sp.set("to", target)

    def _acquire_slot(self) -> bool:
        """Wait for an in-flight slot; False when the server is stopping."""
        with self._flight_cond:
            while (self._in_flight >= self._workers_target
                   and not self._stop_event.is_set()):
                self._flight_cond.wait(0.05)
            if self._stop_event.is_set():
                return False
            self._in_flight += 1
            return True

    def _release_slot(self) -> None:
        with self._flight_cond:
            self._in_flight -= 1
            self._flight_cond.notify_all()

    def _run_batch(self, batch: list[_Ticket]) -> None:
        try:
            with trace.span("batch", "serve", size=len(batch),
                            policy=self.config.policy) as bsp:
                self._run_batch_traced(batch, bsp)
        except Exception as exc:           # never let a batch die silently
            for t in batch:
                if t.future.resolve(ServeResponse(
                        id=t.id, status=STATUS_ERROR,
                        reason=f"{type(exc).__name__}: {exc}",
                        fingerprint=t.key[0], tier=t.tier)):
                    self.metrics.inc("errors")
                    self.metrics.observe_tier(t.tier, STATUS_ERROR,
                                              slo_ms=t.slo_ms)
        finally:
            self._release_slot()

    def _run_batch_traced(self, batch: list[_Ticket], bsp) -> None:
        tracer = trace.active()
        batch_span_id = trace.current_id()
        now = time.monotonic()
        live: list[_Ticket] = []
        for t in batch:
            wait_ms = (now - t.enqueued_at) * 1e3
            if t.expired(now):
                self.metrics.inc("timeout")
                self.metrics.observe_wait(wait_ms)
                if tracer is not None:
                    tracer.add_span("queue-wait", "serve",
                                    t.enqueued_at, now,
                                    parent=batch_span_id,
                                    args={"rid": t.id,
                                          "status": "timeout"})
                if t.future.resolve(ServeResponse(
                        id=t.id, status=STATUS_TIMEOUT,
                        reason="deadline expired while queued",
                        fingerprint=t.key[0], wait_ms=wait_ms,
                        tier=t.tier)):
                    self.metrics.observe_tier(t.tier, STATUS_TIMEOUT,
                                              slo_ms=t.slo_ms)
            else:
                live.append(t)
        if not live:
            return
        results = self.engine.evaluate_many(
            [t.request for t in live],
            max_workers=self.config.engine_workers)
        done = time.monotonic()
        for t, br in zip(live, results):
            wait_ms = (now - t.enqueued_at) * 1e3
            latency_ms = (done - t.enqueued_at) * 1e3
            self.metrics.inc("completed")
            self.metrics.observe_wait(wait_ms)
            self.metrics.observe_latency(latency_ms)
            if tracer is not None:
                # per-request decomposition: queue wait runs from enqueue
                # to the moment *this* request's evaluation began inside
                # the (possibly serialized) batch; completion wait covers
                # its evaluation end until the whole batch resolves
                tracer.add_span("queue-wait", "serve",
                                t.enqueued_at, br.started_at,
                                parent=batch_span_id,
                                args={"rid": t.id, "status": "ok"})
                tracer.add_span("completion", "serve",
                                br.started_at + br.wall_ms / 1e3, done,
                                parent=batch_span_id,
                                args={"rid": t.id})
            self.cost_model.observe(t.key, br.wall_ms)
            if t.future.resolve(ServeResponse(
                    id=t.id, status=STATUS_OK, result=br.result,
                    fingerprint=t.key[0], wait_ms=wait_ms,
                    service_ms=br.wall_ms, latency_ms=latency_ms,
                    batch_size=len(live), cached=br.cached,
                    tier=t.tier)):
                self.metrics.observe_tier(t.tier, STATUS_OK,
                                          latency_ms=latency_ms,
                                          slo_ms=t.slo_ms)
        bsp.count(completed=len(live))
        self.metrics.observe_batch(len(live),
                                   [br.wall_ms for br in results])
