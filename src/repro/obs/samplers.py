"""Sim-clock-driven time-series samplers with columnar storage.

A :class:`Series` is a compact columnar time series — parallel
``times_ms`` / ``values`` arrays, one pair per sample — the cheap
representation for per-phone utilisation curves, battery residuals,
queue depths, and probe counts over a run.

A :class:`SamplerSet` owns a group of named probe callables and a
sampling period on the *simulation* clock.  The simulator calls
:meth:`SamplerSet.maybe_sample` from its event hooks (dispatch,
completion, failure, round boundaries); the set samples at most once
per period, so sampling frequency is bounded no matter how bursty the
event stream is, and a finished run leaves no dangling timers on the
event loop (a free-running periodic event would keep the discrete
event loop alive forever).  :meth:`SamplerSet.sample_now` forces a
final row — the simulator calls it once at run end so every series
covers the full makespan.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["Series", "SamplerSet"]


@dataclass
class Series:
    """One columnar time series: name + labels + (time, value) columns."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    times_ms: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def append(self, time_ms: float, value: float) -> None:
        if self.times_ms and time_ms < self.times_ms[-1]:
            raise ValueError(
                f"series {self.key()!r}: sample at {time_ms} ms arrives "
                f"after {self.times_ms[-1]} ms"
            )
        self.times_ms.append(float(time_ms))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times_ms)

    def key(self) -> str:
        if not self.labels:
            return self.name
        rendered = ",".join(
            f"{k}={v}" for k, v in sorted(self.labels.items())
        )
        return f"{self.name}{{{rendered}}}"

    def last_value(self) -> float | None:
        return self.values[-1] if self.values else None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": dict(sorted(self.labels.items())),
            "times_ms": [round(t, 6) for t in self.times_ms],
            "values": [round(v, 9) for v in self.values],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Series":
        # Dicts from older bundles also carry a ``"dropped"`` count,
        # which is ignored.
        return cls(
            name=data["name"],
            labels=dict(data.get("labels", {})),
            times_ms=[float(t) for t in data["times_ms"]],
            values=[float(v) for v in data["values"]],
        )

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_ms", "value"])
            for time_ms, value in zip(self.times_ms, self.values):
                writer.writerow([f"{time_ms:.6f}", f"{value:.9g}"])

    @classmethod
    def read_csv(
        cls, path: str | Path, *, name: str, labels: dict | None = None
    ) -> "Series":
        series = cls(name=name, labels=dict(labels or {}))
        with Path(path).open(encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["time_ms", "value"]:
                raise ValueError(f"{path}: not a series CSV (header {header})")
            for lineno, row in enumerate(reader, start=2):
                if not row:  # tolerate stray blank lines
                    continue
                try:
                    time_ms, value = float(row[0]), float(row[1])
                except (IndexError, ValueError) as exc:
                    raise ValueError(
                        f"{path}:{lineno}: malformed series row {row!r}"
                    ) from exc
                series.append(time_ms, value)
        return series


class SamplerSet:
    """Named probes sampled on the simulation clock, at most once per period.

    A probe is ``() -> float`` (one series) or
    ``() -> dict[labels-tuple-or-dict, float]`` via
    :meth:`add_multi_probe` (one series per label set — the per-phone
    case).
    """

    def __init__(self, *, period_ms: float = 5_000.0) -> None:
        if period_ms <= 0:
            raise ValueError(f"period_ms must be > 0, got {period_ms!r}")
        self.period_ms = period_ms
        self._probes: list[tuple[str, Callable[[], float]]] = []
        self._multi_probes: list[
            tuple[str, Callable[[], dict]]
        ] = []
        self._series: dict[str, Series] = {}
        self._last_sample_ms: float | None = None

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        """Register a scalar probe producing the series ``name``."""
        self._probes.append((name, probe))

    def add_multi_probe(
        self, name: str, probe: Callable[[], dict]
    ) -> None:
        """Register a probe returning ``{labels_dict_or_str: value}``.

        String keys are treated as an ``id`` label — the common
        per-phone shape ``{phone_id: value}``.
        """
        self._multi_probes.append((name, probe))

    @property
    def series(self) -> tuple[Series, ...]:
        """All recorded series, sorted by key for determinism."""
        return tuple(
            self._series[key] for key in sorted(self._series)
        )

    def get_series(self, name: str, **labels: str) -> Series | None:
        probe = Series(name=name, labels=dict(labels))
        return self._series.get(probe.key())

    def record(
        self, name: str, time_ms: float, value: float, **labels: str
    ) -> None:
        """Append one sample directly, bypassing the probe machinery.

        For producers that already sit inside their own stepped loop
        (the charging simulator's battery residual, for instance) and
        can push values cheaper than a probe could pull them.  Each
        series still enforces its own non-decreasing time order.
        """
        self._record(name, dict(labels), time_ms, value)

    def maybe_sample(self, now_ms: float) -> bool:
        """Sample if at least one period elapsed; returns True if sampled."""
        if (
            self._last_sample_ms is not None
            and now_ms < self._last_sample_ms + self.period_ms
        ):
            return False
        self.sample_now(now_ms)
        return True

    def sample_now(self, now_ms: float) -> None:
        """Unconditionally take one sample of every probe at ``now_ms``."""
        if self._last_sample_ms is not None and now_ms < self._last_sample_ms:
            raise ValueError(
                f"sampling at {now_ms} ms after {self._last_sample_ms} ms; "
                "the sim clock only moves forward"
            )
        self._last_sample_ms = now_ms
        for name, probe in self._probes:
            self._record(name, {}, now_ms, probe())
        for name, probe in self._multi_probes:
            for label_key, value in probe().items():
                if isinstance(label_key, str):
                    labels = {"id": label_key}
                else:
                    labels = dict(label_key)
                self._record(name, labels, now_ms, value)

    def _record(
        self, name: str, labels: dict, now_ms: float, value: float
    ) -> None:
        series = Series(name=name, labels=labels)
        existing = self._series.setdefault(series.key(), series)
        existing.append(now_ms, value)
