"""Unified telemetry: metrics registry, samplers, run reports, tracing.

The observability layer the evaluation needs as first-class
infrastructure (per-phone utilisation, charging linearity,
prediction-error convergence) instead of hand reconstruction:

* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket
  histograms keyed by name + labels, Prometheus-renderable;
* :mod:`repro.obs.samplers` — sim-clock time-series samplers with
  columnar storage;
* :mod:`repro.obs.telemetry` — the facade handed to instrumented
  components (``NULL_TELEMETRY`` is the zero-overhead disabled default);
* :mod:`repro.obs.report` — the per-run artifact bundle
  (``report.json`` with one row per scheduling round, the timeline,
  series CSVs, Prometheus text);
* :mod:`repro.obs.tracing` — the span tracer (flight recorder), which
  adopts spans recorded in worker processes;
* :mod:`repro.obs.trace_export` — Chrome trace-event JSON
  (Perfetto-loadable ``trace.json``);
* :mod:`repro.obs.profile` — self-time aggregation and critical-path
  extraction over recorded spans.
"""

from .profile import (
    critical_path,
    render_critical_path_lines,
    render_profile_lines,
    self_time_table,
)
from .registry import DEFAULT_BUCKETS_MS, Histogram, MetricsRegistry
from .report import (
    RunReport,
    build_run_report,
    load_run_report,
    render_report_lines,
)
from .samplers import SamplerSet, Series
from .telemetry import NULL_TELEMETRY, Telemetry, new_run_id
from .trace_export import (
    chrome_trace,
    load_chrome_trace,
    spans_from_chrome,
    write_chrome_trace,
)
from .tracing import (
    SpanError,
    SpanOrderError,
    SpanSchemaError,
    Tracer,
    TraceSpan,
    maybe_span,
    validate_span_dict,
)

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "RunReport",
    "SamplerSet",
    "Series",
    "SpanError",
    "SpanOrderError",
    "SpanSchemaError",
    "Telemetry",
    "TraceSpan",
    "Tracer",
    "build_run_report",
    "chrome_trace",
    "critical_path",
    "load_chrome_trace",
    "load_run_report",
    "maybe_span",
    "new_run_id",
    "render_critical_path_lines",
    "render_profile_lines",
    "render_report_lines",
    "self_time_table",
    "spans_from_chrome",
    "validate_span_dict",
    "write_chrome_trace",
]
