"""Structured event log: one envelope schema for every run event.

Every event is an :class:`Event` envelope

``(run_id, seq, sim_time_ms, wall_time_s, component, kind, severity,
payload)``

emitted at a monotonically non-decreasing simulation time and appended
to an in-memory log that serialises to JSONL (one envelope per line).

The bus carries only what no result object keeps: the run and round
boundaries.  Dispatches, completions, failures, chaos faults and
resilience actions are recorded once, in the run's
:class:`~repro.sim.trace.TimelineTrace`, and the scheduler's rounds in
its :class:`~repro.sim.server.RoundRecord` list.

:func:`validate_event_dict` is the schema gate: the CI telemetry smoke
job replays every JSONL line through it, and ``repro report
--validate`` does the same for operators.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "SEVERITIES",
    "Event",
    "EventBus",
    "EventOrderError",
    "EventSchemaError",
    "read_events_jsonl",
    "validate_event_dict",
]

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
    wall_clock:
        Wall-time source (``time.time`` by default; injectable for
        deterministic tests).
    """

    def __init__(self, run_id: str, *, wall_clock=time.time) -> None:
        if not run_id:
            raise ValueError("run_id must be non-empty")
        self.run_id = run_id
        self._events: list[Event] = []
        self._last_sim_ms = 0.0
        self._wall_clock = wall_clock

    def __len__(self) -> int:
        return len(self._events)

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
            seq=len(self._events),
            sim_time_ms=sim_time_ms,
            wall_time_s=float(self._wall_clock()),
            component=component,
            kind=kind,
            severity=severity,
            payload=payload,
        )
        self._events.append(event)
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


def read_events_jsonl(
    path: str | Path, *, validate: bool = True
) -> list[dict]:
    """Load (and by default schema-validate) a JSONL event log.

    A line that is not JSON, or (with ``validate``) not a valid
    envelope, raises :class:`EventSchemaError` naming ``path:line``.
    """
    path = Path(path)
    out: list[dict] = []
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
    return out
