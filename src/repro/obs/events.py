"""Structured event log: one envelope schema for every run event.

Before this module each subsystem kept its own ad-hoc record stream —
:class:`~repro.sim.trace.ChaosRecord`,
:class:`~repro.sim.trace.ResilienceEvent`,
:class:`~repro.sim.trace.FailureRecord`,
:class:`~repro.sim.server.RoundRecord` — with no common schema and no
export path.  The :class:`EventBus` unifies them: every event is an
:class:`Event` envelope

``(run_id, seq, sim_time_ms, wall_time_s, component, kind, severity,
payload)``

emitted at a monotonically non-decreasing simulation time and appended
to an in-memory log that serialises to JSONL (one envelope per line,
append-only — the same artifact shape AsyncFlow-style collectors and
OpenDT's sim-worker archive for reproducibility).

:func:`validate_event_dict` is the schema gate: the CI telemetry smoke
job replays every JSONL line through it, and ``repro report
--validate`` does the same for operators.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

__all__ = [
    "COMPONENTS",
    "SEVERITIES",
    "Event",
    "EventBus",
    "EventOrderError",
    "EventSchemaError",
    "RotatingJsonlSink",
    "read_events_jsonl",
    "validate_event_dict",
]

#: Known emitting components.  The schema treats this as an open set
#: (extensions register new components freely); the tuple documents the
#: layers instrumented today.
COMPONENTS = (
    "server",
    "engine",
    "scheduler",
    "capacity",
    "chaos",
    "throttle",
    "run",
)

SEVERITIES = ("debug", "info", "warning", "error")

_REQUIRED_FIELDS = (
    "run_id",
    "seq",
    "sim_time_ms",
    "wall_time_s",
    "component",
    "kind",
    "severity",
    "payload",
)


class EventSchemaError(ValueError):
    """A record does not conform to the telemetry envelope schema."""


class EventOrderError(ValueError):
    """An event arrived with a sim time earlier than its predecessor."""


@dataclass(frozen=True, slots=True)
class Event:
    """One telemetry event in the unified envelope schema."""

    run_id: str
    seq: int
    sim_time_ms: float
    wall_time_s: float
    component: str
    kind: str
    severity: str
    payload: dict

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "seq": self.seq,
            "sim_time_ms": round(self.sim_time_ms, 6),
            "wall_time_s": round(self.wall_time_s, 6),
            "component": self.component,
            "kind": self.kind,
            "severity": self.severity,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def validate_event_dict(data: object) -> None:
    """Raise :class:`EventSchemaError` unless ``data`` is a valid envelope."""
    if not isinstance(data, dict):
        raise EventSchemaError(f"event must be an object, got {type(data).__name__}")
    missing = [f for f in _REQUIRED_FIELDS if f not in data]
    if missing:
        raise EventSchemaError(f"event missing fields: {', '.join(missing)}")
    unknown = [f for f in data if f not in _REQUIRED_FIELDS]
    if unknown:
        raise EventSchemaError(f"event has unknown fields: {', '.join(unknown)}")
    if not isinstance(data["run_id"], str) or not data["run_id"]:
        raise EventSchemaError("run_id must be a non-empty string")
    if not isinstance(data["seq"], int) or data["seq"] < 0:
        raise EventSchemaError("seq must be a non-negative integer")
    for field_name in ("sim_time_ms", "wall_time_s"):
        value = data[field_name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise EventSchemaError(f"{field_name} must be a number")
    if data["sim_time_ms"] < 0:
        raise EventSchemaError("sim_time_ms must be >= 0")
    for field_name in ("component", "kind"):
        value = data[field_name]
        if not isinstance(value, str) or not value:
            raise EventSchemaError(f"{field_name} must be a non-empty string")
    if data["severity"] not in SEVERITIES:
        raise EventSchemaError(
            f"severity must be one of {SEVERITIES}, got {data['severity']!r}"
        )
    if not isinstance(data["payload"], dict):
        raise EventSchemaError("payload must be an object")


class EventBus:
    """Append-only, monotonically-timestamped event log for one run.

    Parameters
    ----------
    run_id:
        Stamped into every envelope.
    sink:
        Optional text stream; when given, every event is additionally
        written as one JSONL line the moment it is emitted (the
        streaming export path — crash-safe up to the last event).
    wall_clock:
        Wall-time source (``time.time`` by default; injectable for
        deterministic tests).
    max_events:
        In-memory ring bound: only the newest ``max_events`` envelopes
        are retained (older ones are evicted and counted in
        :attr:`dropped_events`).  ``seq`` numbering and any streaming
        ``sink`` are unaffected — a rotating sink still receives every
        event, so the durable log stays complete while memory stays
        bounded.  None (the default) retains everything.
    """

    def __init__(
        self,
        run_id: str,
        *,
        sink: IO[str] | None = None,
        wall_clock=time.time,
        max_events: int | None = None,
    ) -> None:
        if not run_id:
            raise ValueError("run_id must be non-empty")
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events!r}")
        self.run_id = run_id
        self.max_events = max_events
        self._events: deque[Event] = deque(maxlen=max_events)
        self._seq = 0
        self._last_sim_ms = 0.0
        self._sink = sink
        self._wall_clock = wall_clock

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped_events(self) -> int:
        """Envelopes evicted from the in-memory ring."""
        return self._seq - len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def emit(
        self,
        component: str,
        kind: str,
        *,
        sim_time_ms: float,
        severity: str = "info",
        **payload,
    ) -> Event:
        """Append one event; sim times must be non-decreasing."""
        if severity not in SEVERITIES:
            raise EventSchemaError(
                f"severity must be one of {SEVERITIES}, got {severity!r}"
            )
        if sim_time_ms < self._last_sim_ms:
            raise EventOrderError(
                f"event {component}/{kind} at sim time {sim_time_ms} ms "
                f"arrived after an event at {self._last_sim_ms} ms; the "
                "telemetry stream must be monotonically timestamped"
            )
        self._last_sim_ms = sim_time_ms
        event = Event(
            run_id=self.run_id,
            seq=self._seq,
            sim_time_ms=sim_time_ms,
            wall_time_s=float(self._wall_clock()),
            component=component,
            kind=kind,
            severity=severity,
            payload=payload,
        )
        self._seq += 1
        self._events.append(event)
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")
        return event

    def of_kind(self, kind: str) -> tuple[Event, ...]:
        return tuple(e for e in self._events if e.kind == kind)

    def of_component(self, component: str) -> tuple[Event, ...]:
        return tuple(e for e in self._events if e.component == component)

    def write_jsonl(self, path: str | Path) -> int:
        """Write the full log as JSONL; returns the number of lines."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(event.to_json() + "\n")
        return len(self._events)


class RotatingJsonlSink:
    """A line-rotating JSONL sink for :class:`EventBus` streaming.

    Segments are ``<base>-NNNNNN.jsonl`` files capped by line count
    and/or byte size; an atomic ``<base>.index.json`` records the
    segment sequence so :func:`read_events_jsonl` can stitch the full
    log back together.  With ``max_segments`` the sink also bounds
    *disk*: when a new segment would exceed the cap the oldest segment
    is deleted and its line count moves to ``dropped_lines`` — a
    week-long campaign gets a telemetry budget instead of an unbounded
    log.
    """

    INDEX_FORMAT = 1

    def __init__(
        self,
        directory: str | Path,
        *,
        base_name: str = "events",
        max_lines_per_segment: int = 50_000,
        max_bytes_per_segment: int | None = None,
        max_segments: int | None = None,
    ) -> None:
        if max_lines_per_segment < 1:
            raise ValueError(
                f"max_lines_per_segment must be >= 1, got {max_lines_per_segment!r}"
            )
        if max_bytes_per_segment is not None and max_bytes_per_segment < 1:
            raise ValueError(
                f"max_bytes_per_segment must be >= 1, got {max_bytes_per_segment!r}"
            )
        if max_segments is not None and max_segments < 1:
            raise ValueError(
                f"max_segments must be >= 1, got {max_segments!r}"
            )
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._base = base_name
        self._max_lines = max_lines_per_segment
        self._max_bytes = max_bytes_per_segment
        self._max_segments = max_segments
        #: ``{"name", "lines", "bytes"}`` per live segment, oldest first.
        self._segments: list[dict] = []
        self._handle: IO[str] | None = None
        self._next_segment = 0
        self.dropped_lines = 0

    @property
    def index_path(self) -> Path:
        return self._dir / f"{self._base}.index.json"

    @property
    def segment_paths(self) -> list[Path]:
        return [self._dir / seg["name"] for seg in self._segments]

    @property
    def total_lines(self) -> int:
        """Lines currently on disk (excludes dropped segments)."""
        return sum(seg["lines"] for seg in self._segments)

    def _open_segment(self) -> None:
        name = f"{self._base}-{self._next_segment:06d}.jsonl"
        self._next_segment += 1
        self._segments.append({"name": name, "lines": 0, "bytes": 0})
        self._handle = (self._dir / name).open("w", encoding="utf-8")
        if (
            self._max_segments is not None
            and len(self._segments) > self._max_segments
        ):
            doomed = self._segments.pop(0)
            self.dropped_lines += doomed["lines"]
            (self._dir / doomed["name"]).unlink(missing_ok=True)
        self._write_index()

    def _close_segment(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _write_index(self) -> None:
        payload = {
            "format": self.INDEX_FORMAT,
            "base_name": self._base,
            "segments": [dict(seg) for seg in self._segments],
            "dropped_lines": self.dropped_lines,
        }
        tmp = self._dir / f".{self._base}.index.json.tmp"
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.index_path)

    def write(self, text: str) -> int:
        """The ``IO[str]``-ish surface :class:`EventBus` writes lines to."""
        if self._handle is None:
            self._open_segment()
        assert self._handle is not None
        self._handle.write(text)
        current = self._segments[-1]
        current["lines"] += text.count("\n")
        current["bytes"] += len(text.encode("utf-8"))
        if current["lines"] >= self._max_lines or (
            self._max_bytes is not None and current["bytes"] >= self._max_bytes
        ):
            self._close_segment()
            self._write_index()
        return len(text)

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
        self._write_index()

    def close(self) -> None:
        self._close_segment()
        self._write_index()

    def __enter__(self) -> "RotatingJsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_one_jsonl(
    path: Path, *, validate: bool, out: list[dict]
) -> None:
    with path.open(encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise EventSchemaError(
                    f"{path}:{line_number}: not valid JSON: {exc}"
                ) from None
            if validate:
                try:
                    validate_event_dict(data)
                except EventSchemaError as exc:
                    raise EventSchemaError(
                        f"{path}:{line_number}: {exc}"
                    ) from None
            out.append(data)


def _resolve_index(path: Path) -> Path | None:
    """Locate a rotation index for ``path``, if it names one."""
    if path.is_dir():
        candidates = sorted(path.glob("*.index.json"))
        if not candidates:
            raise EventSchemaError(
                f"{path}: directory holds no *.index.json rotation index"
            )
        if len(candidates) > 1:
            names = ", ".join(c.name for c in candidates)
            raise EventSchemaError(
                f"{path}: ambiguous — multiple rotation indexes ({names}); "
                "pass the index file explicitly"
            )
        return candidates[0]
    if path.name.endswith(".index.json"):
        return path
    return None


def read_events_jsonl(
    path: str | Path, *, validate: bool = True
) -> list[dict]:
    """Load (and by default schema-validate) a JSONL event log.

    ``path`` may be a plain JSONL file, a :class:`RotatingJsonlSink`
    index file (``*.index.json``), or a directory containing exactly
    one such index — the latter two stitch every listed segment back
    into one in-order event list.
    """
    path = Path(path)
    index_path = _resolve_index(path)
    out: list[dict] = []
    if index_path is None:
        _read_one_jsonl(path, validate=validate, out=out)
        return out
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise EventSchemaError(
            f"{index_path}: not a valid rotation index: {exc}"
        ) from None
    if not isinstance(index, dict) or "segments" not in index:
        raise EventSchemaError(
            f"{index_path}: not a rotation index (no 'segments' key)"
        )
    if index.get("format") != RotatingJsonlSink.INDEX_FORMAT:
        raise EventSchemaError(
            f"{index_path}: unsupported index format "
            f"{index.get('format')!r} (expected "
            f"{RotatingJsonlSink.INDEX_FORMAT})"
        )
    for segment in index["segments"]:
        segment_path = index_path.parent / segment["name"]
        if not segment_path.exists():
            raise EventSchemaError(
                f"{index_path}: segment {segment['name']!r} is missing"
            )
        before = len(out)
        _read_one_jsonl(segment_path, validate=validate, out=out)
        if validate and len(out) - before != segment["lines"]:
            raise EventSchemaError(
                f"{segment_path}: index records {segment['lines']} lines "
                f"but file holds {len(out) - before}"
            )
    return out


def events_to_dicts(events: Iterable[Event]) -> list[dict]:
    """Envelope dicts for an iterable of events (report serialisation)."""
    return [event.to_dict() for event in events]
