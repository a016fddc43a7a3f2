"""The oracle: apply the invariant registry to schedules and runs.

:class:`Oracle` is the single entry point the simulator, the fuzzer,
and the test suite share.  It can fail fast (raise
:class:`~repro.verify.invariants.InvariantViolation` on the first
broken contract — what :func:`repro.sim.validation.check_run_invariants`
now delegates to) or collect every violation as
:class:`~repro.verify.invariants.Violation` records — what the fuzzer
wants, so one bad scenario reports all the contracts it broke.

Round-level schedule checks need the per-round
:class:`~repro.core.instance.SchedulingInstance`; the server retains it
on each :class:`~repro.sim.server.RoundRecord` when constructed with
``record_instances=True`` (the fuzzer's oracle tap).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from .invariants import (
    InvariantViolation,
    RunContext,
    ScheduleContext,
    Violation,
    run_registry,
    schedule_registry,
)

__all__ = ["Oracle"]


class Oracle:
    """Checks schedules and finished runs against the registry.

    Parameters
    ----------
    include:
        If given, only invariants with these names run.
    exclude:
        Invariant names to skip (applied after ``include``).
    """

    def __init__(
        self,
        *,
        include: Sequence[str] | None = None,
        exclude: Sequence[str] | None = None,
    ) -> None:
        included = None if include is None else frozenset(include)
        excluded = frozenset(exclude or ())
        known = set(run_registry()) | set(schedule_registry())
        for name in (included or frozenset()) | excluded:
            if name not in known:
                raise ValueError(f"unknown invariant {name!r}")

        def keep(name: str) -> bool:
            if included is not None and name not in included:
                return False
            return name not in excluded

        self._run_invariants = tuple(
            inv for name, inv in run_registry().items() if keep(name)
        )
        self._schedule_invariants = tuple(
            inv for name, inv in schedule_registry().items() if keep(name)
        )

    # -- run scope ---------------------------------------------------------

    def check_run(
        self,
        result: Any,
        jobs: Sequence[Any],
        *,
        spans: Sequence[Any] | None = None,
        collect: bool = False,
    ) -> list[Violation]:
        """Check every run-scope invariant on a finished simulation.

        With ``collect=False`` (default) the first violation raises;
        with ``collect=True`` all violations are returned instead.
        ``spans`` is the tracer's closed-span store (objects or dicts);
        when given, the span invariants run too.
        """
        ctx = RunContext(result=result, jobs=jobs, spans=spans)
        return self._apply(self._run_invariants, ctx, collect)

    def check_rounds(
        self, result: Any, *, collect: bool = False
    ) -> list[Violation]:
        """Check schedule-scope invariants on every retained round.

        Rounds recorded without an instance (the default, to keep
        ``RunResult`` light) are skipped; run the server with
        ``record_instances=True`` to arm this check.  A round whose
        search certified an LP floor (a sharded round's pod-LP optimum)
        is also held to it by ``lp-sandwich``.
        """
        violations: list[Violation] = []
        for record in result.rounds:
            instance = getattr(record, "instance", None)
            if instance is None:
                continue
            ctx = ScheduleContext(
                instance=instance,
                schedule=record.schedule,
                capacity_ms=record.capacity_ms or None,
                lower_bound_ms=getattr(record.search, "lp_floor_ms", None),
                predicted_makespan_ms=record.predicted_makespan_ms,
            )
            violations.extend(
                self._apply(self._schedule_invariants, ctx, collect)
            )
        return violations

    # -- schedule scope ----------------------------------------------------

    def check_schedule(
        self,
        instance: Any,
        schedule: Any,
        *,
        capacity_ms: float | None = None,
        lower_bound_ms: float | None = None,
        upper_bound_ms: float | None = None,
        predicted_makespan_ms: float | None = None,
        collect: bool = False,
    ) -> list[Violation]:
        """Check one schedule against its instance and known bounds."""
        ctx = ScheduleContext(
            instance=instance,
            schedule=schedule,
            capacity_ms=capacity_ms,
            lower_bound_ms=lower_bound_ms,
            upper_bound_ms=upper_bound_ms,
            predicted_makespan_ms=predicted_makespan_ms,
        )
        return self._apply(self._schedule_invariants, ctx, collect)

    # -- shared machinery --------------------------------------------------

    @staticmethod
    def _apply(invariants, ctx, collect: bool) -> list[Violation]:
        violations: list[Violation] = []
        for invariant in invariants:
            try:
                invariant.check(ctx)
            except InvariantViolation as exc:
                if not collect:
                    raise
                violations.append(
                    Violation(
                        invariant=invariant.name,
                        scope=invariant.scope,
                        message=str(exc),
                    )
                )
        return violations
