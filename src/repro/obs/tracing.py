"""Span tracer: the flight recorder behind ``repro trace``.

A :class:`Tracer` records :class:`TraceSpan` intervals — named phases
of work with explicit parent links — under a fixed schema and
monotone-envelope validation at close time.  The store keeps every span; a multi-night
campaign drains each night's child tracer (:meth:`Tracer.drain_dicts`)
into its own.

Dual clocks.  Every span carries a *wall* interval (``start_wall_s`` /
``end_wall_s``, read from an injectable monotonic clock) and an
optional *sim* interval (``start_sim_ms`` / ``end_sim_ms``).  Wall
time answers the profiler's question ("where did ``solve_s`` go?");
sim time ties lifecycle spans back to the run's timeline.
Scheduler-side spans (capacity search, pod solves) carry wall only;
server-side lifecycle spans (run, round, copy, execute, retry) carry
both.

Cross-process spans.  Worker processes cannot share the parent's
``Tracer``.  A pod worker records into its own local tracer and ships
each task's spans back as plain dicts (:meth:`Tracer.drain_dicts`)
with the task's result; the parent re-homes them with
:meth:`Tracer.adopt` under whichever of its own spans is open for that
work.  Span ids are remapped into the parent's id space, worker roots
are re-parented onto the adopting span, and intervals are clamped into
it so the child⊆parent invariant survives clock granularity across
processes.  A campaign adopts each night's tracer the same way.

Two usage styles:

* stack style, for straight-line phases::

      with tracer.span("bounds", category="capacity"):
          ...

* explicit handles, for event-loop code where spans overlap::

      handle = tracer.start("execute", parent=round_handle,
                            sim_time_ms=now, process="fleet/phone-3")
      ...
      tracer.end(handle, sim_time_ms=later)

Determinism: the tracer allocates ids from a process-local counter and
never consults a RNG; with an injected fake clock the whole span store
is reproducible byte-for-byte.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

__all__ = [
    "SpanError",
    "SpanOrderError",
    "SpanSchemaError",
    "TraceSpan",
    "Tracer",
    "maybe_span",
    "validate_span_dict",
]

#: Legal terminal states for a span.
SPAN_STATUSES = ("ok", "error", "interrupted")

#: Wall-interval slack (seconds) allowed when clamping adopted child
#: spans into their parent: anything within this is clock granularity,
#: anything beyond it is a caller bug and raises.
_ADOPT_SLACK_S = 0.25


class SpanError(ValueError):
    """A span was misused (double close, unknown parent, bad schema)."""


class SpanOrderError(SpanError):
    """A span violated the monotone envelope (end before start,
    child outside its parent, sim time running backwards)."""


class SpanSchemaError(SpanError):
    """A span dict failed schema validation."""


@dataclass(frozen=True)
class TraceSpan:
    """One closed interval of work.  Immutable once recorded."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    process: str
    start_wall_s: float
    end_wall_s: float
    start_sim_ms: float | None = None
    end_sim_ms: float | None = None
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    @property
    def wall_ms(self) -> float:
        return (self.end_wall_s - self.start_wall_s) * 1e3

    @property
    def sim_ms(self) -> float | None:
        if self.start_sim_ms is None or self.end_sim_ms is None:
            return None
        return self.end_sim_ms - self.start_sim_ms

    def to_dict(self) -> dict:
        d = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "process": self.process,
            "start_wall_s": self.start_wall_s,
            "end_wall_s": self.end_wall_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }
        if self.start_sim_ms is not None:
            d["start_sim_ms"] = self.start_sim_ms
        if self.end_sim_ms is not None:
            d["end_sim_ms"] = self.end_sim_ms
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSpan":
        validate_span_dict(data)
        return cls(
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            name=data["name"],
            category=data.get("category", ""),
            process=data.get("process", "main"),
            start_wall_s=float(data["start_wall_s"]),
            end_wall_s=float(data["end_wall_s"]),
            start_sim_ms=data.get("start_sim_ms"),
            end_sim_ms=data.get("end_sim_ms"),
            status=data.get("status", "ok"),
            attrs=dict(data.get("attrs", {})),
        )


def validate_span_dict(data: dict) -> None:
    """Schema-gate one span dict; raises :class:`SpanSchemaError`."""
    if not isinstance(data, dict):
        raise SpanSchemaError(f"span must be a dict, got {type(data).__name__}")
    span_id = data.get("span_id")
    if not isinstance(span_id, int) or isinstance(span_id, bool) or span_id < 1:
        raise SpanSchemaError(f"span_id must be a positive int, got {span_id!r}")
    parent_id = data.get("parent_id")
    if parent_id is not None and (
        not isinstance(parent_id, int) or isinstance(parent_id, bool)
    ):
        raise SpanSchemaError(f"parent_id must be int or None, got {parent_id!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SpanSchemaError(f"name must be a non-empty str, got {name!r}")
    for key in ("start_wall_s", "end_wall_s"):
        value = data.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SpanSchemaError(f"{key} must be a number, got {value!r}")
    if data["end_wall_s"] < data["start_wall_s"]:
        raise SpanSchemaError(
            f"span {span_id}: end_wall_s {data['end_wall_s']} precedes "
            f"start_wall_s {data['start_wall_s']}"
        )
    for key in ("start_sim_ms", "end_sim_ms"):
        value = data.get(key)
        if value is not None and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
        ):
            raise SpanSchemaError(f"{key} must be a number or absent, got {value!r}")
    sim_start = data.get("start_sim_ms")
    sim_end = data.get("end_sim_ms")
    if sim_start is not None and sim_end is not None and sim_end < sim_start:
        raise SpanSchemaError(
            f"span {span_id}: end_sim_ms {sim_end} precedes start_sim_ms {sim_start}"
        )
    status = data.get("status", "ok")
    if status not in SPAN_STATUSES:
        raise SpanSchemaError(f"status must be one of {SPAN_STATUSES}, got {status!r}")
    attrs = data.get("attrs", {})
    if not isinstance(attrs, dict):
        raise SpanSchemaError(f"attrs must be a dict, got {type(attrs).__name__}")


class _OpenSpan:
    """Mutable in-flight span; becomes a :class:`TraceSpan` on close."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "process",
        "start_wall_s",
        "start_sim_ms",
        "attrs",
        "closed",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str,
        process: str,
        start_wall_s: float,
        start_sim_ms: float | None,
        attrs: dict,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.process = process
        self.start_wall_s = start_wall_s
        self.start_sim_ms = start_sim_ms
        self.attrs = attrs
        self.closed = False

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value


class Tracer:
    """Span recorder for one run (or one worker-side segment of one).

    The closed-span store keeps every span: the oracle's span-tree
    invariants treat a missing parent as a violation.
    """

    def __init__(
        self,
        run_id: str = "",
        *,
        process: str = "main",
        wall_clock=time.monotonic,
    ) -> None:
        self.run_id = run_id
        self.default_process = process
        self._wall_clock = wall_clock
        self._spans: list[TraceSpan] = []
        self._open: dict[int, _OpenSpan] = {}
        self._stack: list[_OpenSpan] = []
        self._next_id = 1

    # -- introspection ------------------------------------------------------

    @property
    def spans(self) -> tuple[TraceSpan, ...]:
        """Closed spans in close order."""
        return tuple(self._spans)

    @property
    def open_count(self) -> int:
        return len(self._open)

    def to_dicts(self) -> list[dict]:
        """Closed spans as plain dicts, sorted by span id."""
        return [s.to_dict() for s in sorted(self._spans, key=lambda s: s.span_id)]

    def drain_dicts(self) -> list[dict]:
        """:meth:`to_dicts`, then clear the closed-span store.

        Worker processes call this to ship a segment back to the
        parent; durable checkpoints call it to flush the closed
        segment before the boundary.
        """
        out = self.to_dicts()
        self._spans.clear()
        return out

    # -- recording ----------------------------------------------------------

    def start(
        self,
        name: str,
        *,
        category: str = "",
        process: str | None = None,
        parent: "_OpenSpan | None" = None,
        sim_time_ms: float | None = None,
        **attrs,
    ) -> _OpenSpan:
        """Open a span.  ``parent`` defaults to the current stack top."""
        if not name:
            raise SpanError("span name must be non-empty")
        if parent is None and self._stack:
            parent = self._stack[-1]
        parent_id = None
        if parent is not None:
            if parent.closed:
                raise SpanError(
                    f"cannot parent span {name!r} under closed span "
                    f"{parent.name!r} ({parent.span_id})"
                )
            parent_id = parent.span_id
        handle = _OpenSpan(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            category=category,
            process=process or self.default_process,
            start_wall_s=self._wall_clock(),
            start_sim_ms=sim_time_ms,
            attrs=attrs,
        )
        self._next_id += 1
        if parent is not None and handle.start_wall_s < parent.start_wall_s:
            raise SpanOrderError(
                f"span {name!r} starts at {handle.start_wall_s} before its "
                f"parent {parent.name!r} at {parent.start_wall_s}"
            )
        self._open[handle.span_id] = handle
        return handle

    def end(
        self,
        handle: _OpenSpan,
        *,
        sim_time_ms: float | None = None,
        status: str = "ok",
        **attrs,
    ) -> TraceSpan:
        """Close a span, validate its envelope, and record it."""
        if handle.closed:
            raise SpanError(f"span {handle.name!r} ({handle.span_id}) already closed")
        if status not in SPAN_STATUSES:
            raise SpanError(f"status must be one of {SPAN_STATUSES}, got {status!r}")
        end_wall = self._wall_clock()
        if end_wall < handle.start_wall_s:
            raise SpanOrderError(
                f"span {handle.name!r}: wall clock ran backwards "
                f"({end_wall} < {handle.start_wall_s})"
            )
        end_sim = sim_time_ms if sim_time_ms is not None else handle.start_sim_ms
        if (
            handle.start_sim_ms is not None
            and end_sim is not None
            and end_sim < handle.start_sim_ms
        ):
            raise SpanOrderError(
                f"span {handle.name!r}: sim clock ran backwards "
                f"({end_sim} < {handle.start_sim_ms})"
            )
        if attrs:
            handle.attrs.update(attrs)
        handle.closed = True
        del self._open[handle.span_id]
        span = TraceSpan(
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            name=handle.name,
            category=handle.category,
            process=handle.process,
            start_wall_s=handle.start_wall_s,
            end_wall_s=end_wall,
            start_sim_ms=handle.start_sim_ms,
            end_sim_ms=end_sim,
            status=status,
            attrs=handle.attrs,
        )
        self._spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        category: str = "",
        process: str | None = None,
        sim_time_ms: float | None = None,
        **attrs,
    ):
        """Stack-style span: children started inside nest under it."""
        handle = self.start(
            name,
            category=category,
            process=process,
            sim_time_ms=sim_time_ms,
            **attrs,
        )
        self._stack.append(handle)
        try:
            yield handle
        except BaseException:
            self._stack.pop()
            self.end(handle, status="error")
            raise
        else:
            self._stack.pop()
            self.end(handle)

    @contextmanager
    def as_current(self, handle: _OpenSpan):
        """Make an explicit handle the stack parent for the duration."""
        if handle.closed:
            raise SpanError(f"span {handle.name!r} is closed")
        self._stack.append(handle)
        try:
            yield handle
        finally:
            self._stack.pop()

    def abort_open(
        self, *, status: str = "interrupted", sim_time_ms: float | None = None
    ) -> int:
        """Close every in-flight span (innermost first).

        Called at checkpoint/shutdown boundaries so the store holds
        only closed, exportable segments.  Returns the count closed.
        """
        handles = sorted(self._open.values(), key=lambda h: -h.span_id)
        for handle in handles:
            self.end(handle, status=status, sim_time_ms=sim_time_ms)
        self._stack.clear()
        return len(handles)

    # -- cross-process ------------------------------------------------------

    def adopt(
        self,
        span_dicts,
        *,
        parent: "_OpenSpan | TraceSpan | None" = None,
        clamp_start_s: float | None = None,
        clamp_end_s: float | None = None,
    ) -> list[TraceSpan]:
        """Re-home worker-side spans into this tracer's id space.

        Ids are remapped to fresh local ids (preserving relative
        order); parent links internal to the batch follow the remap;
        batch roots are re-parented onto ``parent``.  Wall intervals
        are clamped into ``[clamp_start_s, clamp_end_s]`` (defaulting
        to the parent's interval) so cross-process clock granularity
        cannot break the child⊆parent invariant — but a span further
        than ``0.25 s`` outside the window raises, because that is a
        propagation bug, not jitter.
        """
        parent_id = None
        if parent is not None:
            parent_id = parent.span_id
            if clamp_start_s is None:
                clamp_start_s = parent.start_wall_s
            if clamp_end_s is None and isinstance(parent, TraceSpan):
                clamp_end_s = parent.end_wall_s
        id_map: dict[int, int] = {}
        adopted: list[TraceSpan] = []
        for data in sorted(span_dicts, key=lambda d: d.get("span_id", 0)):
            validate_span_dict(data)
            start = float(data["start_wall_s"])
            end = float(data["end_wall_s"])
            if clamp_start_s is not None:
                if start < clamp_start_s - _ADOPT_SLACK_S:
                    raise SpanOrderError(
                        f"adopted span {data['name']!r} starts {clamp_start_s - start:.3f}s "
                        f"before its parent window"
                    )
                start = max(start, clamp_start_s)
                end = max(end, start)
            if clamp_end_s is not None:
                if end > clamp_end_s + _ADOPT_SLACK_S:
                    raise SpanOrderError(
                        f"adopted span {data['name']!r} ends {end - clamp_end_s:.3f}s "
                        f"after its parent window"
                    )
                end = min(end, clamp_end_s)
                start = min(start, end)
            new_id = self._next_id
            self._next_id += 1
            id_map[data["span_id"]] = new_id
            old_parent = data["parent_id"]
            span = TraceSpan(
                span_id=new_id,
                parent_id=id_map.get(old_parent, parent_id),
                name=data["name"],
                category=data.get("category", ""),
                process=data.get("process", "worker"),
                start_wall_s=start,
                end_wall_s=end,
                start_sim_ms=data.get("start_sim_ms"),
                end_sim_ms=data.get("end_sim_ms"),
                status=data.get("status", "ok"),
                attrs=dict(data.get("attrs", {})),
            )
            self._spans.append(span)
            adopted.append(span)
        return adopted


#: Reusable disabled context manager returned by :func:`maybe_span`.
_NULL_SPAN = nullcontext()


def maybe_span(tracer: Tracer | None, name: str, **kwargs):
    """``tracer.span(...)`` or a shared no-op when ``tracer`` is None.

    The hot-path idiom for instrumented components: resolve
    ``telemetry.tracer`` once into a local, then wrap phases with
    ``with maybe_span(tracer, "bounds"): ...`` — the disabled cost is
    one None check and a shared ``nullcontext`` enter/exit (which
    yields ``None``, so guard any handle use).
    """
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **kwargs)
