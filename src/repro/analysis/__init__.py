"""Shared statistics, cost modelling, and table rendering."""

from .costs import (
    CORE2DUO_SERVER,
    NEHALEM_SERVER,
    TEGRA3_PHONE,
    DevicePower,
    EnergyCostModel,
    paper_cost_table,
)
from .gantt import render_timeline
from .stats import EmpiricalCdf, percentile, summarize
from .tables import render_cdf_series, render_table
from .validation import (
    PredictionValidation,
    mape,
    r_squared,
    regression_through_origin,
    validation_summary,
)

__all__ = [
    "CORE2DUO_SERVER",
    "NEHALEM_SERVER",
    "TEGRA3_PHONE",
    "DevicePower",
    "EmpiricalCdf",
    "EnergyCostModel",
    "paper_cost_table",
    "PredictionValidation",
    "mape",
    "percentile",
    "r_squared",
    "regression_through_origin",
    "validation_summary",
    "render_cdf_series",
    "render_timeline",
    "render_table",
    "summarize",
]
