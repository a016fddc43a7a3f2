"""Bandwidth measurement: the iperf step that precedes scheduling.

Before running the scheduler, CWC initiates an iperf session from each
phone to the server and logs the measured rate in KB/s; the inverse is
the cost model's ``b_i`` (Section 6, "Setup").  Because charging phones
are static, WiFi links only need *infrequent periodic* measurements
(Fig. 4); cellular links would need more frequent ones.

:func:`measure_link` runs one such session against a
:class:`~repro.netmodel.links.WirelessLink`; :func:`measure_fleet`
produces the scheduler-facing ``{phone_id: b_i}`` map.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping
from dataclasses import dataclass

from .links import WirelessLink, kbps_to_b_ms_per_kb

__all__ = ["BandwidthMeasurement", "measure_link", "measure_fleet"]

#: The paper's Fig. 4 measurement duration.
DEFAULT_DURATION_S = 600.0


@dataclass(frozen=True)
class BandwidthMeasurement:
    """Result of one iperf-like session."""

    mean_kbps: float
    std_kbps: float
    min_kbps: float
    max_kbps: float
    samples: tuple[float, ...]

    @property
    def b_ms_per_kb(self) -> float:
        """The scheduler-facing ``b_i`` (inverse of the mean rate)."""
        return kbps_to_b_ms_per_kb(self.mean_kbps)

    @property
    def coefficient_of_variation(self) -> float:
        """std/mean — the Fig. 4 stability criterion."""
        return self.std_kbps / self.mean_kbps if self.mean_kbps else math.inf


def measure_link(
    link: WirelessLink,
    *,
    duration_s: float = DEFAULT_DURATION_S,
    interval_s: float = 1.0,
) -> BandwidthMeasurement:
    """Run one iperf session and summarise the trace."""
    samples = tuple(link.bandwidth_trace(duration_s, interval_s))
    mean = statistics.fmean(samples)
    std = statistics.pstdev(samples) if len(samples) > 1 else 0.0
    return BandwidthMeasurement(
        mean_kbps=mean,
        std_kbps=std,
        min_kbps=min(samples),
        max_kbps=max(samples),
        samples=samples,
    )


def measure_fleet(
    links: Mapping[str, WirelessLink],
    *,
    duration_s: float = 30.0,
    interval_s: float = 1.0,
) -> dict[str, float]:
    """Measure every phone's link; return ``{phone_id: b_i}`` in ms/KB.

    Uses a short session per phone (the "periodic (short) bandwidth
    measurement test... prior to scheduling" of Section 3.1).  Only the
    trace's mean reaches the scheduler, so no spread is computed: each
    ``b_i`` equals ``measure_link(link, ...).b_ms_per_kb`` exactly.
    """
    return {
        phone_id: kbps_to_b_ms_per_kb(
            statistics.fmean(link.bandwidth_trace(duration_s, interval_s))
        )
        for phone_id, link in links.items()
    }
