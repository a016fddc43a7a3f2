"""Unit tests for the span tracer core (repro.obs.tracing)."""

import pickle

import pytest

from repro.obs.tracing import (
    SpanError,
    SpanOrderError,
    SpanSchemaError,
    Tracer,
    TraceSpan,
    validate_span_dict,
)


class FakeClock:
    """Deterministic wall clock: advances by `step` on every read."""

    def __init__(self, start=100.0, step=0.5):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value

    def jump(self, delta):
        self.now += delta


def make_tracer(**kw):
    kw.setdefault("wall_clock", FakeClock())
    return Tracer("t-run", **kw)


def test_stack_spans_nest_and_parent_link():
    tracer = make_tracer()
    with tracer.span("outer", category="a") as outer:
        with tracer.span("inner", category="b") as inner:
            assert inner.parent_id == outer.span_id
    spans = tracer.spans
    assert [s.name for s in spans] == ["inner", "outer"]  # close order
    inner_s, outer_s = spans
    assert outer_s.parent_id is None
    assert inner_s.parent_id == outer_s.span_id
    assert inner_s.start_wall_s >= outer_s.start_wall_s
    assert inner_s.end_wall_s <= outer_s.end_wall_s


def test_explicit_handles_allow_overlap():
    tracer = make_tracer()
    root = tracer.start("round", sim_time_ms=0.0)
    a = tracer.start("copy", parent=root, sim_time_ms=10.0, phone="p1")
    b = tracer.start("copy", parent=root, sim_time_ms=12.0, phone="p2")
    tracer.end(b, sim_time_ms=20.0)
    tracer.end(a, sim_time_ms=25.0)
    tracer.end(root, sim_time_ms=30.0)
    spans = {s.attrs.get("phone"): s for s in tracer.spans if s.name == "copy"}
    assert spans["p1"].sim_ms == 15.0
    assert spans["p2"].sim_ms == 8.0
    assert all(s.parent_id == root.span_id for s in spans.values())


def test_exception_marks_span_error_but_closes_it():
    tracer = make_tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    (span,) = tracer.spans
    assert span.status == "error"
    assert tracer.open_count == 0


def test_double_close_and_closed_parent_raise():
    tracer = make_tracer()
    h = tracer.start("once")
    tracer.end(h)
    with pytest.raises(SpanError):
        tracer.end(h)
    with pytest.raises(SpanError):
        tracer.start("child", parent=h)


def test_sim_clock_backwards_raises():
    tracer = make_tracer()
    h = tracer.start("x", sim_time_ms=100.0)
    with pytest.raises(SpanOrderError):
        tracer.end(h, sim_time_ms=50.0)


def test_wall_clock_backwards_raises():
    clock = FakeClock(step=0.0)
    tracer = Tracer("t", wall_clock=clock)
    h = tracer.start("x")
    clock.jump(-5.0)
    with pytest.raises(SpanOrderError):
        tracer.end(h)


def test_end_without_sim_carries_start_sim():
    tracer = make_tracer()
    h = tracer.start("x", sim_time_ms=42.0)
    span = tracer.end(h)
    assert span.start_sim_ms == 42.0 and span.end_sim_ms == 42.0


def test_as_current_makes_explicit_handle_the_stack_parent():
    tracer = make_tracer()
    round_h = tracer.start("round")
    with tracer.as_current(round_h):
        with tracer.span("schedule") as sched:
            assert sched.parent_id == round_h.span_id
    tracer.end(round_h)
    with pytest.raises(SpanError):
        with tracer.as_current(round_h):
            pass


def test_abort_open_closes_innermost_first_as_interrupted():
    tracer = make_tracer()
    outer = tracer.start("outer")
    tracer.start("inner", parent=outer)
    assert tracer.abort_open() == 2
    assert tracer.open_count == 0
    statuses = {s.name: s.status for s in tracer.spans}
    assert statuses == {"outer": "interrupted", "inner": "interrupted"}
    # innermost closed first -> its end precedes the outer's
    inner_s = next(s for s in tracer.spans if s.name == "inner")
    outer_s = next(s for s in tracer.spans if s.name == "outer")
    assert inner_s.end_wall_s <= outer_s.end_wall_s


def test_context_pickles_and_adopt_rehomes_worker_spans():
    """A worker's spans cross the process boundary as pickled dicts."""
    clock = FakeClock(start=200.0, step=0.1)
    parent = Tracer("t", wall_clock=clock)
    wait = parent.start("probe_wait")

    worker = Tracer(
        process="workers/w-1", wall_clock=FakeClock(start=200.05, step=0.1)
    )
    with worker.span("probe_pack", capacity_ms=123.0):
        pass
    shipped = pickle.loads(pickle.dumps(worker.drain_dicts()))
    assert worker.spans == ()

    adopted = parent.adopt(shipped, parent=wait)
    parent.end(wait)
    (child,) = adopted
    assert child.parent_id == wait.span_id
    assert child.process == "workers/w-1"
    assert child.attrs["capacity_ms"] == 123.0
    # remapped into the parent's id space
    assert child.span_id > wait.span_id


def test_adopt_remaps_internal_parent_links():
    parent = make_tracer()
    root = parent.start("pod_solves")
    worker = Tracer("w", wall_clock=FakeClock(start=100.2, step=0.01))
    with worker.span("a"):
        with worker.span("b"):
            pass
    adopted = parent.adopt(worker.drain_dicts(), parent=root)
    by_name = {s.name: s for s in adopted}
    assert by_name["a"].parent_id == root.span_id
    assert by_name["b"].parent_id == by_name["a"].span_id


def test_adopt_clamps_jitter_but_rejects_gross_skew():
    clock = FakeClock(start=100.0, step=0.0)
    parent = Tracer("t", wall_clock=clock)
    h = parent.start("window")  # starts at 100.0
    jittered = {
        "span_id": 1,
        "parent_id": None,
        "name": "w",
        "category": "",
        "process": "worker",
        "start_wall_s": 99.95,  # 50 ms before the window: clamped
        "end_wall_s": 100.0,
        "status": "ok",
        "attrs": {},
    }
    (span,) = parent.adopt([jittered], parent=h)
    assert span.start_wall_s == 100.0
    skewed = dict(jittered, span_id=2, start_wall_s=90.0, end_wall_s=91.0)
    with pytest.raises(SpanOrderError):
        parent.adopt([skewed], parent=h)


def test_span_dict_roundtrip_and_validation():
    tracer = make_tracer()
    with tracer.span("x", category="c", sim_time_ms=1.0, k="v"):
        pass
    (span,) = tracer.spans
    data = span.to_dict()
    validate_span_dict(data)
    assert TraceSpan.from_dict(data) == span

    for corrupt in (
        {**data, "span_id": 0},
        {**data, "name": ""},
        {**data, "status": "weird"},
        {**data, "end_wall_s": data["start_wall_s"] - 1.0},
        {**data, "end_sim_ms": -5.0},
        {**data, "attrs": []},
        {**data, "parent_id": "nope"},
        "not-a-dict",
    ):
        with pytest.raises(SpanSchemaError):
            validate_span_dict(corrupt)


def test_deterministic_with_injected_clock():
    def run():
        tracer = Tracer("t", wall_clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        return tracer.to_dicts()

    assert run() == run()
