"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Every metric is keyed by a name plus a sorted ``(label, value)`` tuple,
the Prometheus data model restricted to what a deterministic simulation
needs:

* **counters** — monotonically increasing floats (``inc``);
* **gauges** — last-write-wins floats (``set_gauge``);
* **histograms** — fixed cumulative buckets (the default latency
  buckets, or those a restored snapshot carries), plus ``sum`` and
  ``count``.

The registry is plain data: picklable, byte-stable in :meth:`to_dict`
(sorted keys), and renderable as Prometheus text exposition
(:meth:`render_prometheus`).

The hot-path contract lives one level up: when telemetry is disabled
the :class:`~repro.obs.telemetry` facade never calls into this module
at all, so the scheduler's inner loops pay a single attribute check.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
]

#: Default histogram buckets (milliseconds): spans sub-millisecond
#: scheduler work through multi-hour simulated makespans.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1_000.0,
    5_000.0,
    10_000.0,
    60_000.0,
    300_000.0,
    1_800_000.0,
    7_200_000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def metric_key(name: str, labels: dict[str, str] | None) -> tuple:
    """Canonical registry key: name + sorted label items."""
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


@dataclass
class Histogram:
    """One fixed-bucket histogram series (cumulative bucket counts)."""

    buckets: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        if not self.counts:
            # One slot per finite bucket plus the +Inf overflow slot.
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """Approximate percentile from the bucket midpoints/bounds.

        ``q`` in [0, 100].  Returns the upper bound of the bucket the
        q-th observation falls in (+Inf bucket reports the last finite
        bound), which is the classic Prometheus-style estimate.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must lie in [0, 100], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.buckets[-1]
        return self.buckets[-1]

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": round(self.sum, 6),
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        return cls(
            buckets=tuple(data["buckets"]),
            counts=list(data["counts"]),
            sum=float(data["sum"]),
            count=int(data["count"]),
        )


class MetricsRegistry:
    """Holds every metric of one run."""

    def __init__(self) -> None:
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._histogram_buckets: dict[str, tuple[float, ...]] = {}

    # -- recording ---------------------------------------------------------

    def inc(
        self, name: str, value: float = 1.0, **labels: str
    ) -> None:
        """Add ``value`` (default 1) to a counter."""
        if value < 0:
            raise ValueError(f"counters only go up, got {value!r}")
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge to its latest value."""
        self._gauges[metric_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one observation into a histogram."""
        key = metric_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            buckets = self._histogram_buckets.get(name, DEFAULT_BUCKETS_MS)
            histogram = Histogram(buckets=buckets)
            self._histograms[key] = histogram
        histogram.observe(value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        return self._counters.get(metric_key(name, labels), 0.0)

    def gauge_value(self, name: str, **labels: str) -> float | None:
        return self._gauges.get(metric_key(name, labels))

    def histogram(self, name: str, **labels: str) -> Histogram | None:
        return self._histograms.get(metric_key(name, labels))

    def series_labels(self, name: str) -> list[dict[str, str]]:
        """Label sets under which ``name`` was ever recorded."""
        out = []
        for store in (self._counters, self._gauges, self._histograms):
            for key in store:
                if key[0] == name:
                    out.append(dict(key[1]))
        return out

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    # -- serialisation -----------------------------------------------------

    @staticmethod
    def _key_str(key: tuple) -> str:
        name, labels = key
        if not labels:
            return name
        rendered = ",".join(f"{k}={v}" for k, v in labels)
        return f"{name}{{{rendered}}}"

    @staticmethod
    def _parse_key(text: str) -> tuple:
        if "{" not in text:
            return (text, ())
        name, _, rest = text.partition("{")
        body = rest.rstrip("}")
        labels = []
        if body:
            for pair in body.split(","):
                k, _, v = pair.partition("=")
                labels.append((k, v))
        return (name, tuple(sorted(labels)))

    def to_dict(self) -> dict:
        """Deterministic JSON-safe snapshot (sorted series keys)."""
        return {
            "counters": {
                self._key_str(key): round(self._counters[key], 9)
                for key in sorted(self._counters)
            },
            "gauges": {
                self._key_str(key): round(self._gauges[key], 9)
                for key in sorted(self._gauges)
            },
            "histograms": {
                self._key_str(key): self._histograms[key].to_dict()
                for key in sorted(self._histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        for key_text, value in data.get("counters", {}).items():
            registry._counters[cls._parse_key(key_text)] = float(value)
        for key_text, value in data.get("gauges", {}).items():
            registry._gauges[cls._parse_key(key_text)] = float(value)
        for key_text, hist_data in data.get("histograms", {}).items():
            key = cls._parse_key(key_text)
            registry._histograms[key] = Histogram.from_dict(hist_data)
            registry._histogram_buckets.setdefault(
                key[0], tuple(hist_data["buckets"])
            )
        return registry

    # -- Prometheus text exposition ----------------------------------------

    def render_prometheus(self) -> str:
        """Render the registry in the Prometheus text format (v0.0.4)."""

        def label_text(labels: tuple, extra: tuple = ()) -> str:
            items = labels + extra
            if not items:
                return ""
            body = ",".join(f'{k}="{v}"' for k, v in items)
            return "{" + body + "}"

        lines: list[str] = []
        typed: set[str] = set()
        for key in sorted(self._counters):
            name, labels = key
            self._check_name(name)
            if name not in typed:
                lines.append(f"# TYPE {name} counter")
                typed.add(name)
            lines.append(
                f"{name}{label_text(labels)} {self._counters[key]:g}"
            )
        for key in sorted(self._gauges):
            name, labels = key
            self._check_name(name)
            if name not in typed:
                lines.append(f"# TYPE {name} gauge")
                typed.add(name)
            lines.append(f"{name}{label_text(labels)} {self._gauges[key]:g}")
        for key in sorted(self._histograms):
            name, labels = key
            self._check_name(name)
            histogram = self._histograms[key]
            if name not in typed:
                lines.append(f"# TYPE {name} histogram")
                typed.add(name)
            cumulative = 0
            for bound, bucket_count in zip(
                histogram.buckets, histogram.counts
            ):
                cumulative += bucket_count
                lines.append(
                    f"{name}_bucket"
                    f"{label_text(labels, (('le', f'{bound:g}'),))} "
                    f"{cumulative}"
                )
            cumulative += histogram.counts[-1]
            lines.append(
                f"{name}_bucket{label_text(labels, (('le', '+Inf'),))} "
                f"{cumulative}"
            )
            lines.append(
                f"{name}_sum{label_text(labels)} {histogram.sum:g}"
            )
            lines.append(
                f"{name}_count{label_text(labels)} {histogram.count}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
