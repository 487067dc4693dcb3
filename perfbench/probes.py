"""Outside-in timing: spans around the calls the benchmark makes into layers.

A traced phase replaces public methods of the benchmark's own program
objects, and a few module attributes the program resolves at call time,
with wrappers that open a span on a :class:`repro.trace.Tracer` the
benchmark holds itself.  The process-wide tracer is never installed
(``repro.trace.install`` / ``capture``): that would switch on the program's
own span sites and seed the EDF cost model from span phases, changing the
thing being measured.  Every wrapper is removed when the phase ends.

Spans nest through the tracer's thread-local stack; a wrapper running on
another thread names its parent explicitly.  Each solve or request has one
root span (``bench.solve`` / ``bench.request``) whose ``rid`` argument its
descendants share.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager

from repro.trace import Span, Tracer, write_chrome


class Probe:
    """A private tracer plus the wrappers currently installed."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._undo: list[tuple] = []

    def root(self, name: str, **args):
        return self.tracer.span(name, "bench", **args)

    def wrap(self, owner, attr: str, name: str, category: str, *,
             after=None, parent=None, **args) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``after(span, args, kwargs, result)`` runs inside the span to attach
        counters; ``parent(args, kwargs)`` names the parent span id when the
        call runs on a thread other than the one holding its root.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        tracer = self.tracer

        def wrapper(*a, **kw):
            pid = parent(a, kw) if parent is not None else None
            with tracer.span(name, category, parent=pid, **args) as sp:
                out = original(*a, **kw)
                if after is not None:
                    after(sp, a, kw, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, had_own))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, install):
        """Run ``install(self)`` on entry; remove its wrappers on exit."""
        try:
            install(self)
            yield self
        finally:
            self.unwrap_all()

    def write(self, path) -> None:
        write_chrome(path, self.tracer.snapshot(), process_name="perfbench")


class SpanIndex:
    """Spans grouped by name and by parent, durations in milliseconds."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.by_id = {s.id: s for s in spans}
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent_id is not None:
                self.children[s.parent_id].append(s)

    def ms(self, name: str) -> list[float]:
        return [s.duration_ms for s in self.by_name.get(name, [])]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def counter(self, name: str, key: str) -> float:
        return float(sum(s.counters.get(key, 0)
                         for s in self.by_name.get(name, [])))

    def child_ms(self, span: Span, names: tuple[str, ...] | None = None
                 ) -> float:
        return sum(c.duration_ms for c in self.children.get(span.id, [])
                   if names is None or c.name in names)

    def parent_name(self, span: Span) -> str | None:
        parent = self.by_id.get(span.parent_id)
        return parent.name if parent is not None else None
