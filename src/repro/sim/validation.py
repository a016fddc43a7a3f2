"""Trace invariant checking: did a simulated run behave like CWC?

Anyone extending this reproduction — a new scheduler, a new failure
model, a different dispatch policy — needs a way to know their change
did not silently break the system's contracts.  Historically this
module owned four hand-rolled checks; they are now **promoted** into
the :mod:`repro.verify.invariants` registry (alongside newer run-scope
invariants such as duplicate-credit and makespan-consistency), and
:func:`check_run_invariants` delegates to the
:class:`~repro.verify.oracle.Oracle` so the simulator, the fuzzer, and
the test suite all enforce one catalogue:

* **sequential phones** — a phone never overlaps two spans;
* **conservation** — completed + checkpointed + unfinished input equals
  exactly the submitted input;
* **no zombie work** — a failed phone does no work between failure
  detection and its next rejoin;
* **copy-before-execute** — every execution span on a phone is preceded
  by a copy of the same job's executable/input.

:class:`TraceInvariantError` is now an alias of
:class:`~repro.verify.invariants.InvariantViolation`, so existing
``except TraceInvariantError`` call sites keep working unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.model import Job
from ..verify.invariants import InvariantViolation
from ..verify.oracle import Oracle
from .server import RunResult

__all__ = ["TraceInvariantError", "check_run_invariants"]

#: Backwards-compatible alias: a simulated run violated a CWC
#: behavioural contract.
TraceInvariantError = InvariantViolation


def check_run_invariants(result: RunResult, jobs: Sequence[Job]) -> None:
    """Validate every CWC behavioural contract on a finished run.

    Delegates to the :class:`~repro.verify.oracle.Oracle` run-scope
    registry.  Raises :class:`TraceInvariantError` naming the first
    violation; returns None when the run is clean.
    """
    Oracle().check_run(result, jobs)

