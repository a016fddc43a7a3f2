"""Each closed pipeline op is recorded once, then mirrored on its lane.

The server builds one :class:`~repro.sim.trace.Span` per finished
copy/execute op and records the ``fleet/<phone>`` tracer span from that
same span, so the two records must agree op for op: same phone, job,
kind and sim interval, and ``status == "interrupted"`` exactly when the
trace span is ``interrupted``.  The only tracer spans allowed without a
trace twin are the run-end flush of ops still held by undetected
offline phones, which the trace deliberately never records.
"""

from collections import Counter

import pytest

from repro.obs import Telemetry
from repro.verify.fuzz import (
    build_scenario_server,
    generate_scenario,
    scenario_workload,
)


def traced_run(seed):
    scenario = generate_scenario(seed)
    telemetry = Telemetry.create(run_id=f"op-record-{seed}", tracing=True)
    server = build_scenario_server(scenario, telemetry=telemetry)
    initial, arrivals = scenario_workload(scenario)
    return server.run(initial, arrivals=arrivals), telemetry.tracer.spans


def op_key(phone_id, job_id, kind, start_ms, end_ms, interrupted):
    return (phone_id, job_id, kind, start_ms, end_ms, interrupted)


# Fuzz seeds whose scenarios inject chaos faults and phone failures, so
# interrupted ops (crashes, unplugs, silent failures) are on both sides.
@pytest.mark.parametrize("seed", [2, 9, 20])
def test_fleet_spans_mirror_the_timeline_trace(seed):
    result, tracer_spans = traced_run(seed)
    assert result.trace.chaos and result.trace.failures
    assert any(s.interrupted for s in result.trace.spans)

    trace_ops = Counter(
        op_key(
            s.phone_id, s.job_id, s.kind.value, s.start_ms, s.end_ms,
            s.interrupted,
        )
        for s in result.trace.spans
    )
    lanes: dict[str, list] = {}
    for span in tracer_spans:
        if span.category == "fleet" and span.name in ("copy", "execute"):
            lanes.setdefault(span.process, []).append(span)

    unmatched = Counter(trace_ops)
    for process, spans in lanes.items():
        last_start = max(s.start_sim_ms for s in spans)
        for span in spans:
            key = op_key(
                process.split("/", 1)[1],
                span.attrs["job_id"],
                span.name,
                span.start_sim_ms,
                span.end_sim_ms,
                span.status == "interrupted",
            )
            if unmatched[key] > 0:
                unmatched[key] -= 1
                continue
            # A run-end flush: the phone's last op, closed as interrupted.
            assert span.status == "interrupted", span
            assert span.start_sim_ms == last_start, span
    assert +unmatched == Counter(), "trace spans without a fleet span"
