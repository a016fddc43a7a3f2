"""Bench-regression guard for the scheduler trajectory file.

Compares a freshly generated ``BENCH_scheduler.json`` against the
committed baseline and fails (exit 1) when a guarded record slowed
down by more than its allowed fraction.  CI copies the committed file
aside before the bench run, then invokes::

    python benchmarks/check_regression.py baseline.json BENCH_scheduler.json

By default only ``fleet_scale_full_pass.total_s`` is guarded: it is the
tracked headline number, and the sub-timings (build/bounds/search) are
noisy enough individually that guarding each would cause false alarms
on shared CI runners.  The 25 % default tolerance absorbs
runner-to-runner variance while still catching real hot-path
regressions, which have historically been multiples, not percentages.

Additional records can be guarded with repeatable ``--guard``
options of the form ``record.field`` or ``record.field:tolerance``::

    python benchmarks/check_regression.py baseline.json current.json \
        --guard fleet_scale_full_pass.total_s:0.25 \
        --guard telemetry_disabled_mid_pass.total_s:0.05

A guard whose record is missing from the *baseline* is skipped with a
note (the migration path for freshly added benches); a record missing
from the *current* file fails, because the bench that produces it
stopped reporting.

Both files must declare the schema-2 layout (``{"schema": 2,
"records": {...}}``); anything else fails fast rather than comparing
incomparable numbers.

Schema-2 context fields: alongside the timings, records may carry
search-configuration context — ``kernel`` (the packing backend the
search resolved to).  Sharded records add ``pods`` (resolved pod count), ``pod_assign`` (job
splitter policy), ``pod_solve_ms_max`` (the slowest single pod — the
critical path a pod-per-CPU pool pays), ``pod_solve_ms_sum`` (the
serial-equivalent pod cost), ``shard_bound_ratio``
(makespan over the pod-aggregated LP floor; the certified quality of
the sharded schedule, always >= 1), ``solve_critical_path_s`` (the
span tracer's critical path through the sharded solve — split, pod
solves, rebalance, assemble, LP certificate — which must explain
>= 95 % of ``solve_s``), and ``solve_overhead_s`` (the unspanned
residual of ``solve_s``; tracer bookkeeping plus scheduler
entry/exit).  The ``trace_overhead`` record (see
``test_bench_trace.py``) carries ``plain_s``/``traced_s`` interleaved
medians and ``overhead_fraction`` — guard ``traced_s``, never the
fraction (it is a ratio of two noisy numbers).  The file-level ``cpu_count`` is
affinity/cgroup-aware (see ``repro.core.capacity.available_cpus``)
with the nominal machine count in ``cpu_count_nominal``.  Context
fields are for interpreting timings across machines — never guard
them: a ratio like utilisation going *down* is not a slowdown, and
guards are one-sided.  ``shard_bound_ratio`` is the exception that
proves the rule: it *is* guarded (one-sided, higher = worse quality)
on the 4000×20000 record so a splitter regression cannot hide behind
a wall-time win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXPECTED_SCHEMA = 2

DEFAULT_GUARDS = ("fleet_scale_full_pass.total_s",)


def load_records(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: cannot read bench json: {exc}")
    if not isinstance(data, dict) or "records" not in data:
        raise SystemExit(f"{path}: not a bench trajectory file (no records)")
    schema = data.get("schema")
    if schema != EXPECTED_SCHEMA:
        raise SystemExit(
            f"{path}: bench schema {schema!r} unsupported "
            f"(expected {EXPECTED_SCHEMA})"
        )
    records = data["records"]
    if not isinstance(records, dict):
        raise SystemExit(f"{path}: records must be an object")
    return records


def parse_guard(text: str, default_tolerance: float) -> tuple[str, str, float]:
    """``record.field[:tolerance]`` -> (record, field, tolerance)."""
    spec, _, tolerance_text = text.partition(":")
    record, _, field = spec.partition(".")
    if not record or not field:
        raise SystemExit(
            f"bad --guard {text!r}: expected record.field[:tolerance]"
        )
    if tolerance_text:
        try:
            tolerance = float(tolerance_text)
        except ValueError:
            raise SystemExit(
                f"bad --guard {text!r}: tolerance must be a number"
            )
        if tolerance < 0:
            raise SystemExit(f"bad --guard {text!r}: tolerance must be >= 0")
    else:
        tolerance = default_tolerance
    return record, field, tolerance


def check_guard(
    baseline_records: dict,
    current_records: dict,
    record: str,
    field: str,
    tolerance: float,
) -> bool:
    """Apply one guard; prints the verdict, returns True when it holds."""
    label = f"{record}.{field}"
    if record not in baseline_records or field not in baseline_records.get(
        record, {}
    ):
        print(f"{label}: not in baseline, skipping (new bench?)")
        return True
    try:
        current = float(current_records[record][field])
    except (KeyError, TypeError, ValueError):
        print(
            f"{label}: present in baseline but missing from current run",
            file=sys.stderr,
        )
        return False
    baseline = float(baseline_records[record][field])
    limit = baseline * (1.0 + tolerance)
    verdict = "OK" if current <= limit else "REGRESSION"
    print(
        f"{label}: baseline {baseline:.3f}, current {current:.3f}, "
        f"limit {limit:.3f} (+{tolerance * 100.0:.0f}%) -> {verdict}"
    )
    if current > limit:
        slowdown = (current / baseline - 1.0) * 100.0 if baseline else 0.0
        print(
            f"{label} slowed by {slowdown:.0f}% "
            f"(allowed {tolerance * 100.0:.0f}%)",
            file=sys.stderr,
        )
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed BENCH json")
    parser.add_argument("current", type=Path, help="freshly generated json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="default allowed fractional slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--guard",
        action="append",
        metavar="RECORD.FIELD[:TOLERANCE]",
        help="guard an additional record field (repeatable); "
        "without an explicit tolerance, --max-regression applies",
    )
    args = parser.parse_args(argv)

    baseline_records = load_records(args.baseline)
    current_records = load_records(args.current)

    guard_texts = list(DEFAULT_GUARDS) + list(args.guard or ())
    ok = True
    for text in guard_texts:
        record, field, tolerance = parse_guard(text, args.max_regression)
        ok &= check_guard(
            baseline_records, current_records, record, field, tolerance
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
