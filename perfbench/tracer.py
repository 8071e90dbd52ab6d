"""Spans and counters recorded from outside the package.

The tracer replaces attributes that the package's modules look up on each
other at call time (module globals such as ``pipeline.solve_renewal``, or
methods such as ``CompiledFunctional.value_vec``) with wrappers, and puts
the original objects back on ``restore``.  Nothing inside the package
changes.

Three wrapper kinds exist, chosen by how often the target runs:

``span``   one span per call: name, start, end, on-CPU time of its thread,
           parent span, call id, plus attributes an ``on_return`` hook
           derives from arguments and result;
``time``   summed wall time and call count only (hot per-step functions);
``count``  call count only (the hottest per-step functions).

Wrappers are thread-safe.  Each thread keeps its own span stack; a span
opened on a worker thread whose stack is empty takes as parent the span
open on the thread that installed the tracer, which is where the pool was
started.  A target that does not exist is recorded in ``absent`` and
skipped.
"""

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    call: int | None
    thread: int
    start: float
    end: float = 0.0
    #: on-CPU time of the span's thread inside the span (waiting excluded)
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "call": self.call,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "cpu": self.cpu,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}
        self.absent: list[str] = []
        self.call: int | None = None

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home and tid != self._home else None
            self._next_id += 1
            span = Span(
                id=self._next_id,
                name=name,
                parent=parent.id if parent else None,
                call=parent.call if parent else self.call,
                thread=tid,
                start=time.perf_counter(),
                cpu=time.thread_time(),
            )
            stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        with self._lock:
            stack = self._stacks[span.thread]
            stack.remove(span)
            self.spans.append(span)

    def _add(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self.totals.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += 1

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, kind: str = "span", on_return=None) -> bool:
        """Replace ``owner.attr`` with a recording wrapper.

        Returns False, and records ``name`` as absent, when the attribute
        does not exist.
        """
        original = (
            owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        )
        if original is None:
            self.absent.append(name)
            return False
        tracer = self

        if kind == "span":
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span)
                if on_return is not None:
                    try:
                        on_return(span, args, result)
                    except Exception as exc:  # a hook must never break the traced program
                        span.attrs["hook_error"] = repr(exc)
                return result
        elif kind == "time":
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._add(name, time.perf_counter() - t0)
        elif kind == "count":
            def wrapper(*args, **kwargs):
                tracer._add(name, 0.0)
                return original(*args, **kwargs)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        return True

    def restore(self) -> bool:
        """Put every wrapped attribute back; True when all are the originals again."""
        ok = True
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            ok &= current is original
        self._installed.clear()
        return ok


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.duration - covered
