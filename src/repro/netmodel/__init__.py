"""Wireless link substrate: technologies, variability, measurement."""

from .links import (
    DEFAULT_PROFILES,
    LinkProfile,
    WirelessLink,
    kbps_to_b_ms_per_kb,
)
from .measurement import BandwidthMeasurement, measure_fleet, measure_link
from .variability import Ar1Process

__all__ = [
    "Ar1Process",
    "BandwidthMeasurement",
    "DEFAULT_PROFILES",
    "LinkProfile",
    "WirelessLink",
    "kbps_to_b_ms_per_kb",
    "measure_fleet",
    "measure_link",
]
