"""Each closed pipeline op is recorded once; its fleet lane is derived.

The server appends one :class:`~repro.sim.trace.Span` per finished
copy/execute op to the timeline trace and, with a tracer armed, builds
the ``fleet/<phone>`` lanes from that trace at run end.  So the two
records must agree one to one: same phone, job, kind and sim interval,
and ``status == "interrupted"`` exactly when the trace span is
``interrupted``.  Each lane span hangs off the latest round that
contains its sim interval, or off the run when no round does.
"""

from collections import Counter

import pytest

from repro.obs import Telemetry
from repro.verify.fuzz import (
    build_scenario_server,
    generate_scenario,
    scenario_workload,
)
from repro.verify.oracle import Oracle


def traced_run(seed):
    scenario = generate_scenario(seed)
    telemetry = Telemetry.create(run_id=f"op-record-{seed}", tracing=True)
    server = build_scenario_server(scenario, telemetry=telemetry)
    initial, arrivals = scenario_workload(scenario)
    return server.run(initial, arrivals=arrivals), telemetry.tracer.spans


def is_op(span):
    return span.category == "fleet" and span.name in ("copy", "execute")


# Fuzz seeds whose scenarios inject chaos faults and phone failures, so
# interrupted ops (crashes, unplugs, silent failures) are on both sides.
@pytest.mark.parametrize("seed", [2, 9, 16, 20])
def test_fleet_spans_mirror_the_timeline_trace(seed):
    result, tracer_spans = traced_run(seed)
    assert result.trace.chaos and result.trace.failures
    assert any(s.interrupted for s in result.trace.spans)

    timeline = Counter(
        (
            s.phone_id, s.job_id, s.kind.value, s.start_ms, s.end_ms,
            s.interrupted,
        )
        for s in result.trace.spans
    )
    fleet = [s for s in tracer_spans if is_op(s)]
    lanes = Counter(
        (
            s.process.split("/", 1)[1],
            s.attrs["job_id"],
            s.name,
            s.start_sim_ms,
            s.end_sim_ms,
            s.status == "interrupted",
        )
        for s in fleet
    )
    assert lanes == timeline

    by_id = {s.span_id: s for s in tracer_spans}
    (run,) = [s for s in tracer_spans if s.name == "run"]
    rounds = sorted(
        (s for s in tracer_spans if s.name == "round"),
        key=lambda s: s.start_sim_ms,
    )
    for span in fleet:
        containing = [
            r for r in rounds
            if r.start_sim_ms <= span.start_sim_ms
            and r.end_sim_ms >= span.end_sim_ms
        ]
        expected = containing[-1] if containing else run
        assert by_id[span.parent_id] is expected, span


def test_killed_run_keeps_the_lanes_recorded_before_the_kill():
    class Killed(Exception):
        pass

    def kill_at_second_round(_server, round_index):
        if round_index == 1:
            raise Killed

    scenario = generate_scenario(9)
    telemetry = Telemetry.create(run_id="op-record-kill", tracing=True)
    server = build_scenario_server(
        scenario, telemetry=telemetry, on_round=kill_at_second_round
    )
    initial, arrivals = scenario_workload(scenario)
    with pytest.raises(Killed):
        server.run(initial, arrivals=arrivals)
    spans = telemetry.tracer.spans
    assert telemetry.tracer.open_count == 0
    assert any(is_op(s) for s in spans)
    oracle = Oracle(include=("span-tree", "span-nesting"))
    assert not oracle.check_run(None, (), spans=spans, collect=True)
