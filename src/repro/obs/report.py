"""Run-report artifacts: one directory bundle per instrumented run.

A :class:`RunReport` is the durable product of a telemetry-enabled run:

* ``report.json`` — run id, metadata, the full metrics registry
  snapshot, the distilled summary (fleet utilisation, fault counts,
  round-latency percentiles, top-N slowest phones), one row per
  scheduling round (start and drain instants, jobs, prediction, search
  diagnostics; built from ``RunResult.rounds``), and an index of the
  series files;
* ``timeline.json`` — the run's :class:`~repro.sim.trace.TimelineTrace`
  in its canonical :meth:`~repro.sim.trace.TimelineTrace.to_dict` form
  (every copy/execute span, completion, failure, chaos and resilience
  record; the same form the durability layer digests);
* ``series/*.csv`` — one columnar CSV per time series;
* ``prometheus.txt`` — the registry in Prometheus text exposition
  (:meth:`~repro.obs.registry.MetricsRegistry.render_prometheus`);
* ``trace.json`` — when the run traced spans, the Chrome trace-event
  form (:func:`repro.obs.trace_export.chrome_trace`, loadable in
  Perfetto / ``chrome://tracing``);
* ``profile.txt`` — the span self-time table and wall-clock critical
  path (:mod:`repro.obs.profile`), also trace-gated.

The timeline trace is the run's single op record: the summary's
utilisation block is :func:`repro.sim.metrics.compute_run_metrics` on
it, and the bundle carries it whole — so a report bundle alone (no
pickled trace, no rerun) answers "which phone dragged the makespan".
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .profile import (
    critical_path,
    render_critical_path_lines,
    render_profile_lines,
    self_time_table,
)
from .registry import MetricsRegistry
from .samplers import Series
from .telemetry import Telemetry
from .trace_export import (
    load_chrome_trace,
    spans_from_chrome,
    write_chrome_trace,
)

if TYPE_CHECKING:
    # Imported lazily at run time: ``repro.core`` imports ``repro.obs``,
    # and ``repro.sim`` imports ``repro.core`` and ``repro.netmodel``,
    # so a module-level import here made ``import repro.netmodel`` fail
    # with a circular ImportError in a fresh interpreter.
    from ..sim.server import RunResult

__all__ = [
    "REPORT_SCHEMA",
    "RunReport",
    "build_run_report",
    "load_run_report",
    "render_report_lines",
    "write_trace_artifacts",
]

REPORT_SCHEMA = 3

_SERIES_DIR = "series"
_UNSAFE = re.compile(r"[^A-Za-z0-9_.=-]+")


def _series_filename(key: str) -> str:
    return _UNSAFE.sub("_", key) + ".csv"


def write_trace_artifacts(
    directory: Path, spans: list[dict], *, run_id: str, clock: str = "wall"
) -> None:
    """Write ``trace.json`` and ``profile.txt`` for closed span dicts.

    ``profile.txt`` holds the self-time table and the critical path,
    both measured on ``clock`` (``"wall"`` or ``"sim"``).
    """
    write_chrome_trace(directory / "trace.json", spans, run_id=run_id)
    lines = render_profile_lines(
        self_time_table(spans, clock=clock), clock=clock
    )
    lines.append("")
    lines.extend(
        render_critical_path_lines(
            critical_path(spans, clock=clock), clock=clock
        )
    )
    (directory / "profile.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )


@dataclass
class RunReport:
    """Everything a telemetry-enabled run exports, in memory."""

    run_id: str
    meta: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    #: One row per scheduling round, in round order (:func:`_round_row`).
    rounds: list[dict] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    #: Closed span dicts from the run's tracer; empty when the run was
    #: not traced (tracing is opt-in on :meth:`Telemetry.create`).
    spans: list[dict] = field(default_factory=list)
    #: The run's timeline trace, :meth:`TimelineTrace.to_dict` form.
    timeline: dict = field(default_factory=dict)

    # -- writing -----------------------------------------------------------

    def write(self, directory: str | Path) -> Path:
        """Write the full bundle; returns the bundle directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        series_dir = directory / _SERIES_DIR
        series_dir.mkdir(exist_ok=True)

        series_index = {}
        for series in self.series:
            filename = _series_filename(series.key())
            series.write_csv(series_dir / filename)
            series_index[series.key()] = {
                "file": f"{_SERIES_DIR}/{filename}",
                "name": series.name,
                "labels": dict(sorted(series.labels.items())),
                "samples": len(series),
            }

        registry = MetricsRegistry.from_dict(self.metrics)
        (directory / "prometheus.txt").write_text(
            registry.render_prometheus(), encoding="utf-8"
        )

        (directory / "timeline.json").write_text(
            json.dumps(self.timeline, sort_keys=True) + "\n",
            encoding="utf-8",
        )

        if self.spans:
            write_trace_artifacts(directory, self.spans, run_id=self.run_id)

        payload = {
            "schema": REPORT_SCHEMA,
            "run_id": self.run_id,
            "meta": self.meta,
            "metrics": self.metrics,
            "summary": self.summary,
            "rounds": self.rounds,
            "series_index": dict(sorted(series_index.items())),
            "span_count": len(self.spans),
        }
        (directory / "report.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return directory

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the bundled registry snapshot."""
        return MetricsRegistry.from_dict(self.metrics).render_prometheus()


def _round_row(record) -> dict:
    """One :class:`~repro.sim.server.RoundRecord` as a ``report.json`` row."""
    search = record.search
    return {
        "round_index": record.round_index,
        "scheduled_at_ms": record.scheduled_at_ms,
        "drained_at_ms": record.drained_at_ms,
        "jobs": len(record.job_ids),
        "phones_used": len(record.schedule.phone_ids),
        "rescheduled": record.rescheduled,
        "predicted_makespan_ms": record.predicted_makespan_ms,
        "scheduling_wall_ms": record.scheduling_wall_ms,
        "packer_passes": getattr(search, "packer_passes", 0),
        "bisection_steps": getattr(search, "bisection_steps", 0),
        "warm_started": record.warm_started,
        "kernel": record.kernel,
        "pods": record.pods,
        "policy": record.policy,
    }


def _nearest_rank(values: list[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of sorted ``values``.

    The value at rank ``ceil(pct / 100 · n)`` (1-based, at least 1):
    the smallest observed value with at least ``pct`` % of the values at
    or below it, so every percentile is one of the values.
    """
    return values[max(1, math.ceil(pct * len(values) / 100.0)) - 1]


def build_run_report(
    result: RunResult,
    telemetry: Telemetry,
    *,
    meta: dict | None = None,
    resilience: dict | None = None,
    top_n: int = 5,
) -> RunReport:
    """Distil a finished, telemetry-enabled run into a :class:`RunReport`.

    ``telemetry`` must be an enabled facade that instrumented the run
    that produced ``result``.  The summary's utilisation block is
    :func:`~repro.sim.metrics.compute_run_metrics` on the result's
    timeline trace, which the report also carries whole; its fault,
    failure, completion and retry counts are read off the same trace,
    and its round rows, round count and round-latency percentiles
    (nearest rank over the drained rounds' ``drained_at_ms −
    scheduled_at_ms``) off ``result.rounds``.
    """
    from ..sim.metrics import compute_run_metrics

    if not telemetry.enabled:
        raise ValueError(
            "cannot build a run report from disabled telemetry; "
            "pass Telemetry.create(...) into the run first"
        )
    trace = result.trace
    metrics = compute_run_metrics(trace)
    fault_counts = Counter(record.kind for record in trace.chaos)

    slowest = sorted(
        metrics.phones, key=lambda p: (-p.finish_ms, p.phone_id)
    )[:top_n]
    rounds = [_round_row(record) for record in result.rounds]
    latencies = sorted(
        row["drained_at_ms"] - row["scheduled_at_ms"]
        for row in rounds
        if row["drained_at_ms"] is not None
    )
    summary = {
        "makespan_ms": round(metrics.makespan_ms, 6),
        "active_phones": metrics.active_phone_count,
        "parallel_efficiency": round(metrics.parallel_efficiency, 9),
        "finish_spread_fraction": round(metrics.finish_spread_fraction, 9),
        "mean_copy_fraction": round(metrics.mean_copy_fraction, 9),
        "fault_counts": dict(sorted(fault_counts.items())),
        "failures_detected": len(trace.failures),
        "completions": len(trace.completions),
        "retries": sum(
            1 for event in trace.resilience_events if event.kind == "retry"
        ),
        "rounds": len(latencies),
        "round_latency_ms": {
            "count": len(latencies),
            "p50": _nearest_rank(latencies, 50.0) if latencies else 0.0,
            "p90": _nearest_rank(latencies, 90.0) if latencies else 0.0,
            "p99": _nearest_rank(latencies, 99.0) if latencies else 0.0,
        },
        "slowest_phones": [
            {
                "phone_id": p.phone_id,
                "finish_ms": round(p.finish_ms, 6),
                "busy_ms": round(p.busy_ms, 6),
                "copy_fraction": round(p.copy_fraction, 9),
                "partitions": p.partitions,
            }
            for p in slowest
        ],
    }
    if resilience is not None:
        summary["resilience"] = resilience
    tracer = telemetry.tracer
    return RunReport(
        run_id=telemetry.run_id,
        meta=dict(meta or {}),
        metrics=telemetry.registry.to_dict(),
        summary=summary,
        rounds=rounds,
        series=list(telemetry.samplers.series),
        spans=tracer.to_dicts() if tracer is not None else [],
        timeline=trace.to_dict(),
    )


def load_run_report(directory: str | Path) -> RunReport:
    """Load a bundle written by :meth:`RunReport.write`."""
    directory = Path(directory)
    report_path = directory / "report.json"
    if not report_path.is_file():
        raise FileNotFoundError(
            f"{directory} is not a run-report bundle (no report.json)"
        )
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    if payload.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"unsupported report schema {payload.get('schema')!r} "
            f"(expected {REPORT_SCHEMA})"
        )
    series: list[Series] = []
    for key, entry in payload.get("series_index", {}).items():
        series.append(
            Series.read_csv(
                directory / entry["file"],
                name=entry["name"],
                labels=entry.get("labels", {}),
            )
        )
    spans: list[dict] = []
    trace_path = directory / "trace.json"
    if trace_path.is_file():
        spans = spans_from_chrome(load_chrome_trace(trace_path))
    timeline: dict = {}
    timeline_path = directory / "timeline.json"
    if timeline_path.is_file():
        timeline = json.loads(timeline_path.read_text(encoding="utf-8"))
    return RunReport(
        run_id=payload["run_id"],
        meta=payload.get("meta", {}),
        metrics=payload.get("metrics", {}),
        summary=payload.get("summary", {}),
        rounds=payload.get("rounds", []),
        series=series,
        spans=spans,
        timeline=timeline,
    )


def render_report_lines(
    report: RunReport, *, top_n: int | None = None
) -> list[str]:
    """Human-readable run summary (what ``repro report`` prints)."""
    summary = report.summary
    lines = [f"run report: {report.run_id}"]
    for key in sorted(report.meta):
        lines.append(f"  meta {key}: {report.meta[key]}")
    lines.append(
        f"  makespan            : {summary.get('makespan_ms', 0.0) / 1000:.1f} s "
        f"over {summary.get('active_phones', 0)} active phone(s)"
    )
    lines.append(
        f"  parallel efficiency : {summary.get('parallel_efficiency', 0.0):.3f} "
        f"(finish spread {summary.get('finish_spread_fraction', 0.0):.1%})"
    )
    lines.append(
        f"  rounds / completions: {summary.get('rounds', 0)} / "
        f"{summary.get('completions', 0)} "
        f"(retries {summary.get('retries', 0)}, "
        f"failures {summary.get('failures_detected', 0)})"
    )
    latency = summary.get("round_latency_ms", {})
    if latency.get("count"):
        lines.append(
            "  round latency       : "
            f"p50 {latency['p50'] / 1000:.1f} s, "
            f"p90 {latency['p90'] / 1000:.1f} s, "
            f"p99 {latency['p99'] / 1000:.1f} s "
            f"({latency['count']} round(s))"
        )
    faults = summary.get("fault_counts", {})
    if faults:
        rendered = ", ".join(
            f"{kind}={count}" for kind, count in sorted(faults.items())
        )
        lines.append(f"  faults injected     : {rendered}")
    slowest: Sequence[dict] = summary.get("slowest_phones", [])
    if top_n is not None:
        slowest = slowest[:top_n]
    if slowest:
        lines.append("  slowest phones:")
        for entry in slowest:
            lines.append(
                f"    {entry['phone_id']:16s} finish "
                f"{entry['finish_ms'] / 1000:8.1f} s, busy "
                f"{entry['busy_ms'] / 1000:8.1f} s, "
                f"copy {entry['copy_fraction']:.1%}, "
                f"{entry['partitions']} partition(s)"
            )
    resilience = summary.get("resilience")
    if resilience:
        lines.append(
            "  resilience          : "
            f"{resilience.get('total_faults_injected', 0)} faults, "
            f"{resilience.get('retries', 0)} retries, "
            f"{resilience.get('quarantined', 0)} quarantined, "
            f"wasted {resilience.get('wasted_fraction', 0.0):.1%}"
        )
    if report.rounds:
        lines.append("  rounds:")
        for row in report.rounds:
            lines.append(_render_round_row(row))
    lines.append(f"  series              : {len(report.series)}")
    if report.spans:
        lines.append(f"  trace spans         : {len(report.spans)}")
    return lines


def _render_round_row(row: dict) -> str:
    start = row["scheduled_at_ms"]
    drained = row["drained_at_ms"]
    if drained is None:
        end = "never drained"
    else:
        end = (
            f"drain {drained / 1000:8.1f} s "
            f"(latency {(drained - start) / 1000:.1f} s)"
        )
    return (
        f"    #{row['round_index']:<3d} start {start / 1000:8.1f} s, {end}, "
        f"{row['jobs']} job(s), predicted "
        f"{row['predicted_makespan_ms'] / 1000:.1f} s, "
        f"kernel {row['kernel'] or '-'} "
        f"{'warm' if row['warm_started'] else 'cold'}, "
        f"scheduled in {row['scheduling_wall_ms']:.1f} ms"
    )
