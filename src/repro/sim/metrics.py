"""Run metrics: utilisation and efficiency statistics from traces.

The paper reads its Figure 12 timelines qualitatively ("the load is
well balanced for most of the phones"); this module computes the
quantitative versions a systems evaluation wants:

* per-phone **busy fraction** (work time / makespan) and **copy
  overhead** (fraction of busy time spent receiving data — the
  vertical black stripes);
* fleet-wide **parallel efficiency** (aggregate busy time over
  ``n_phones × makespan`` — 1.0 means perfect balance);
* **load-balance spread** (the earliest-to-latest finish gap the paper
  quotes as ≈20 % of the makespan).

Chaos-injected runs (:mod:`repro.sim.chaos`) additionally get a
:class:`ResilienceReport`: per-class injected-fault counts against what
the server detected, retried, speculated, and quarantined, plus the
wasted-work and makespan-inflation cost of surviving the faults.  The
report serialises deterministically (:meth:`ResilienceReport.to_json`
is byte-stable for a fixed trace), so two runs with the same chaos seed
produce identical JSON — the regression anchor for seeded determinism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .trace import SpanKind, TimelineTrace

__all__ = [
    "PhoneUtilisation",
    "RunMetrics",
    "ResilienceReport",
    "compute_run_metrics",
    "compute_resilience_report",
]


@dataclass(frozen=True)
class PhoneUtilisation:
    """One phone's share of the run."""

    phone_id: str
    busy_ms: float
    copy_ms: float
    execute_ms: float
    finish_ms: float
    partitions: int

    @property
    def copy_fraction(self) -> float:
        """Share of this phone's busy time spent on transfers."""
        return self.copy_ms / self.busy_ms if self.busy_ms else 0.0


@dataclass(frozen=True)
class RunMetrics:
    """Fleet-wide statistics of one run."""

    makespan_ms: float
    phones: tuple[PhoneUtilisation, ...]

    @property
    def active_phone_count(self) -> int:
        return sum(1 for phone in self.phones if phone.busy_ms > 0)

    @property
    def parallel_efficiency(self) -> float:
        """Aggregate busy time over (active phones x makespan).

        1.0 = every active phone worked wall-to-wall; low values mean
        idling at the tail (imbalance) or between pipeline stages.
        """
        if self.makespan_ms <= 0 or self.active_phone_count == 0:
            return 0.0
        busy = sum(phone.busy_ms for phone in self.phones)
        return busy / (self.active_phone_count * self.makespan_ms)

    @property
    def finish_spread_fraction(self) -> float:
        """(last finish - first finish) / makespan over active phones."""
        finishes = [p.finish_ms for p in self.phones if p.busy_ms > 0]
        if len(finishes) < 2 or self.makespan_ms <= 0:
            return 0.0
        return (max(finishes) - min(finishes)) / self.makespan_ms

    @property
    def mean_copy_fraction(self) -> float:
        active = [p for p in self.phones if p.busy_ms > 0]
        if not active:
            return 0.0
        return sum(p.copy_fraction for p in active) / len(active)

    def phone(self, phone_id: str) -> PhoneUtilisation:
        for utilisation in self.phones:
            if utilisation.phone_id == phone_id:
                return utilisation
        raise KeyError(f"no utilisation for phone {phone_id!r}")


@dataclass(frozen=True)
class ResilienceReport:
    """What chaos did to a run, and what the server did about it.

    ``faults_injected`` counts ground-truth injections per chaos kind
    ("unplug", "cpu_slowdown", "bandwidth_degraded", "task_crash",
    "corrupt_result").  The remaining counters come from the server's
    own resilience events and failure records, so injected-vs-detected
    gaps are visible (e.g. a crash that hit an idle phone, a corruption
    that was never executed).
    """

    faults_injected: dict[str, int]
    failures_detected: int
    stragglers_detected: int
    timeouts: int
    retries: int
    gave_up: int
    speculations_launched: int
    speculations_won: int
    verifications_launched: int
    verify_mismatches: int
    quarantined: int
    rejoins: int
    completed_partitions: int
    unfinished_jobs: int
    wasted_work_ms: float
    total_work_ms: float
    makespan_ms: float
    baseline_makespan_ms: float | None = None

    @property
    def total_faults_injected(self) -> int:
        """Ground-truth fault count across every chaos class."""
        return sum(self.faults_injected.values())

    @property
    def wasted_fraction(self) -> float:
        """Share of all phone-time that produced no credited result."""
        if self.total_work_ms <= 0:
            return 0.0
        return self.wasted_work_ms / self.total_work_ms

    @property
    def makespan_inflation(self) -> float:
        """Makespan relative to the fault-free baseline (1.0 = no cost).

        Returns 0.0 when no baseline was supplied.
        """
        if not self.baseline_makespan_ms:
            return 0.0
        return self.makespan_ms / self.baseline_makespan_ms

    def to_dict(self) -> dict:
        """JSON-safe representation with deterministic ordering."""
        return {
            "faults_injected": {
                kind: self.faults_injected[kind]
                for kind in sorted(self.faults_injected)
            },
            "total_faults_injected": self.total_faults_injected,
            "failures_detected": self.failures_detected,
            "stragglers_detected": self.stragglers_detected,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "speculations_launched": self.speculations_launched,
            "speculations_won": self.speculations_won,
            "verifications_launched": self.verifications_launched,
            "verify_mismatches": self.verify_mismatches,
            "quarantined": self.quarantined,
            "rejoins": self.rejoins,
            "completed_partitions": self.completed_partitions,
            "unfinished_jobs": self.unfinished_jobs,
            "wasted_work_ms": round(self.wasted_work_ms, 6),
            "wasted_fraction": round(self.wasted_fraction, 9),
            "total_work_ms": round(self.total_work_ms, 6),
            "makespan_ms": round(self.makespan_ms, 6),
            "baseline_makespan_ms": (
                None
                if self.baseline_makespan_ms is None
                else round(self.baseline_makespan_ms, 6)
            ),
            "makespan_inflation": round(self.makespan_inflation, 9),
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """Deterministic JSON: same trace in, byte-identical string out."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def summary_lines(self) -> list[str]:
        """Human-readable report (what the CLI prints)."""
        lines = ["resilience report:"]
        injected = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.faults_injected.items())
        )
        lines.append(
            f"  faults injected     : {self.total_faults_injected}"
            + (f" ({injected})" if injected else "")
        )
        lines.append(f"  failures detected   : {self.failures_detected}")
        lines.append(f"  stragglers detected : {self.stragglers_detected}")
        lines.append(
            f"  timeouts / retries  : {self.timeouts} / {self.retries}"
            f" (gave up {self.gave_up})"
        )
        lines.append(
            f"  speculation         : {self.speculations_launched} launched, "
            f"{self.speculations_won} won"
        )
        lines.append(
            f"  verification        : {self.verifications_launched} launched, "
            f"{self.verify_mismatches} mismatches, "
            f"{self.quarantined} quarantined"
        )
        lines.append(f"  rejoins             : {self.rejoins}")
        lines.append(
            f"  wasted work         : {self.wasted_work_ms:.0f} ms "
            f"({self.wasted_fraction:.1%} of {self.total_work_ms:.0f} ms)"
        )
        if self.baseline_makespan_ms:
            lines.append(
                f"  makespan inflation  : {self.makespan_inflation:.3f}x "
                f"({self.makespan_ms:.0f} ms vs "
                f"{self.baseline_makespan_ms:.0f} ms fault-free)"
            )
        return lines


def compute_resilience_report(
    result,
    *,
    baseline_makespan_ms: float | None = None,
) -> ResilienceReport:
    """Distil a run's chaos/resilience story from its trace.

    ``result`` is a :class:`~repro.sim.server.RunResult`;
    ``baseline_makespan_ms`` (optional) is the measured makespan of the
    same workload run fault-free, enabling the inflation metric.
    """
    trace: TimelineTrace = result.trace
    injected: dict[str, int] = {}
    for record in trace.chaos:
        injected[record.kind] = injected.get(record.kind, 0) + 1

    def count(kind: str) -> int:
        return len(trace.resilience_events_of(kind))

    total_work = sum(span.duration_ms for span in trace.spans)
    return ResilienceReport(
        faults_injected=injected,
        failures_detected=len(trace.failures),
        stragglers_detected=count("straggler_detected"),
        timeouts=count("timeout"),
        retries=count("retry"),
        gave_up=count("gave_up"),
        speculations_launched=count("speculation_launched"),
        speculations_won=count("speculation_won"),
        verifications_launched=count("verify_launched"),
        verify_mismatches=count("verify_mismatch"),
        quarantined=count("quarantined"),
        rejoins=count("rejoin"),
        completed_partitions=len(trace.completions),
        unfinished_jobs=len(result.unfinished_jobs),
        wasted_work_ms=trace.wasted_work_ms(),
        total_work_ms=total_work,
        makespan_ms=trace.makespan_ms(),
        baseline_makespan_ms=baseline_makespan_ms,
    )


def compute_run_metrics(trace: TimelineTrace) -> RunMetrics:
    """Summarise a timeline trace into fleet utilisation metrics."""
    makespan = trace.makespan_ms()
    utilisations = []
    for phone_id in trace.phone_ids():
        spans = trace.spans_for(phone_id)
        copy_ms = sum(
            s.duration_ms for s in spans if s.kind is SpanKind.COPY
        )
        execute_ms = sum(
            s.duration_ms for s in spans if s.kind is SpanKind.EXECUTE
        )
        utilisations.append(
            PhoneUtilisation(
                phone_id=phone_id,
                busy_ms=copy_ms + execute_ms,
                copy_ms=copy_ms,
                execute_ms=execute_ms,
                finish_ms=trace.finish_time_ms(phone_id),
                partitions=sum(
                    1 for s in spans if s.kind is SpanKind.EXECUTE
                ),
            )
        )
    return RunMetrics(makespan_ms=makespan, phones=tuple(utilisations))
