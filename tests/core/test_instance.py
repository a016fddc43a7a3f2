"""Unit tests for SchedulingInstance construction and lookups."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._reference import reference_capacity_bounds
from repro.core.instance import SchedulingInstance
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.pod import pod_instance
from repro.core.prediction import RuntimePredictor

from ..conftest import (
    make_instance,
    make_phones,
    make_predictor,
    replicated_testbed,
)


class TestBuild:
    def test_build_fills_c_table(self):
        phones = make_phones(2)
        predictor = make_predictor(phones)
        jobs = [Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0)]
        instance = SchedulingInstance.build(
            jobs, phones, {"p0": 1.0, "p1": 2.0}, predictor
        )
        assert instance.c("p0", "j") == pytest.approx(10.0)
        assert instance.c("p1", "j") == pytest.approx(8.0)  # 10 * 800/1000

    def test_no_phones_rejected(self):
        predictor = make_predictor(make_phones(1))
        jobs = [Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0)]
        with pytest.raises(ValueError, match="phone"):
            SchedulingInstance.build(jobs, (), {}, predictor)

    def test_no_jobs_rejected(self):
        phones = make_phones(1)
        predictor = make_predictor(phones)
        with pytest.raises(ValueError, match="job"):
            SchedulingInstance.build((), phones, {"p0": 1.0}, predictor)

    def test_duplicate_job_ids_rejected(self):
        phones = make_phones(1)
        predictor = make_predictor(phones)
        jobs = [
            Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0),
            Job("j", "primes", JobKind.BREAKABLE, 40.0, 200.0),
        ]
        with pytest.raises(ValueError, match="duplicate job"):
            SchedulingInstance.build(jobs, phones, {"p0": 1.0}, predictor)

    def test_duplicate_phone_ids_rejected(self):
        phone = PhoneSpec(phone_id="p0", cpu_mhz=800.0)
        predictor = make_predictor((phone,))
        jobs = [Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0)]
        with pytest.raises(ValueError, match="duplicate phone"):
            SchedulingInstance(
                jobs=tuple(jobs),
                phones=(phone, phone),
                b_ms_per_kb={"p0": 1.0},
                c_ms_per_kb={("p0", "j"): 1.0},
            )

    def test_missing_b_rejected(self):
        phones = make_phones(2)
        predictor = make_predictor(phones)
        jobs = [Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0)]
        with pytest.raises(ValueError, match="missing b_i"):
            SchedulingInstance.build(jobs, phones, {"p0": 1.0}, predictor)

    def test_missing_c_rejected(self):
        phones = make_phones(1)
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0),)
        with pytest.raises(ValueError, match="missing c_ij"):
            SchedulingInstance(
                jobs=jobs,
                phones=phones,
                b_ms_per_kb={"p0": 1.0},
                c_ms_per_kb={},
            )

    def test_negative_b_rejected(self):
        phones = make_phones(1)
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0),)
        with pytest.raises(ValueError, match="b_i"):
            SchedulingInstance(
                jobs=jobs,
                phones=phones,
                b_ms_per_kb={"p0": -1.0},
                c_ms_per_kb={("p0", "j"): 1.0},
            )


class TestLookups:
    def test_job_and_phone_lookup(self, small_instance):
        job = small_instance.jobs[0]
        assert small_instance.job(job.job_id) is job
        phone = small_instance.phones[0]
        assert small_instance.phone(phone.phone_id) is phone

    def test_unknown_job_raises(self, small_instance):
        with pytest.raises(KeyError):
            small_instance.job("nope")

    def test_unknown_phone_raises(self, small_instance):
        with pytest.raises(KeyError):
            small_instance.phone("nope")

    def test_cost_is_equation_one(self, small_instance):
        job = small_instance.jobs[0]
        pid = small_instance.phones[0].phone_id
        expected = job.executable_kb * small_instance.b(pid) + job.input_kb * (
            small_instance.b(pid) + small_instance.c(pid, job.job_id)
        )
        assert small_instance.cost(pid, job.job_id) == pytest.approx(expected)

    def test_cost_with_partition(self, small_instance):
        job = small_instance.jobs[0]
        pid = small_instance.phones[0].phone_id
        full = small_instance.cost(pid, job.job_id)
        half = small_instance.cost(pid, job.job_id, input_kb=job.input_kb / 2)
        exe = job.executable_kb * small_instance.b(pid)
        assert half == pytest.approx(exe + (full - exe) / 2)

    def test_marginal_cost_excludes_executable(self, small_instance):
        job = small_instance.jobs[0]
        pid = small_instance.phones[0].phone_id
        marginal = small_instance.marginal_cost(pid, job.job_id, 100.0)
        expected = 100.0 * (
            small_instance.b(pid) + small_instance.c(pid, job.job_id)
        )
        assert marginal == pytest.approx(expected)

    def test_slowest_phone(self):
        instance = make_instance(n_phones=4)
        assert instance.slowest_phone().phone_id == "p0"

    def test_total_input(self, small_instance):
        assert small_instance.total_input_kb() == pytest.approx(
            sum(j.input_kb for j in small_instance.jobs)
        )

    def test_kind_partitions(self, small_instance):
        atomic = small_instance.atomic_jobs()
        breakable = small_instance.breakable_jobs()
        assert all(j.is_atomic for j in atomic)
        assert all(j.is_breakable for j in breakable)
        assert len(atomic) + len(breakable) == len(small_instance.jobs)


def phone_type(phone_id: str) -> str:
    """The testbed phone a replicated ``<id>-c<copy>`` phone copies."""
    return phone_id.rsplit("-c", 1)[0]


class TestPhoneClasses:
    def test_replicas_share_one_row_object(self):
        instance = replicated_testbed(n_phones=45, n_jobs=30)
        class_of, members = instance.phone_classes()
        types = [phone_type(p.phone_id) for p in instance.phones]
        assert len(members) == len(set(types))
        assert sorted(sum(members, ())) == list(range(len(types)))
        rows = instance.per_kb_rows()
        matrix = instance.per_kb_matrix()
        for i, phone_i in enumerate(types):
            assert i in members[class_of[i]]
            for j, phone_j in enumerate(types):
                same = class_of[i] == class_of[j]
                assert same == (phone_i == phone_j)
                assert (rows[i] is rows[j]) == same
            assert (
                np.asarray(rows[i], dtype=np.float64).tobytes()
                == matrix[i].tobytes()
            )

    def test_classes_refine_by_b(self):
        phones = tuple(
            PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0) for i in range(4)
        )
        jobs = [Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0)]
        b = {"p0": 1.0, "p1": 2.0, "p2": 1.0, "p3": 2.0}
        instance = SchedulingInstance.build(
            jobs, phones, b, make_predictor(phones)
        )
        assert instance.phone_classes() == ((0, 1, 0, 1), ((0, 2), (1, 3)))
        rows = instance.per_kb_rows()
        assert rows[0] is rows[2] and rows[0] is not rows[1]

    def test_raw_c_map_gets_singleton_classes(self):
        phones = tuple(
            PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0) for i in range(3)
        )
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 40.0, 100.0),)
        instance = SchedulingInstance(
            jobs=jobs,
            phones=phones,
            b_ms_per_kb={p.phone_id: 1.0 for p in phones},
            c_ms_per_kb={(p.phone_id, "j"): 5.0 for p in phones},
        )
        singletons = ((0, 1, 2), ((0,), (1,), (2,)))
        assert instance.phone_classes() == singletons
        rows = instance.per_kb_rows()
        assert rows[0] == rows[1] and rows[0] is not rows[1]
        sub = pod_instance(instance, (0, 1, 2), (0,))
        assert sub.phone_classes() == singletons

    def test_pod_instance_inherits_classes(self):
        instance = replicated_testbed(n_phones=45, n_jobs=30)
        class_of, _ = instance.phone_classes()
        positions = tuple(range(1, 45, 4))
        sub = pod_instance(instance, positions, tuple(range(0, 30, 3)))
        sub_class_of, sub_members = sub.phone_classes()
        assert len(sub_members) == len(
            {class_of[i] for i in positions}
        )
        for a, i in enumerate(positions):
            for b, j in enumerate(positions):
                assert (sub_class_of[a] == sub_class_of[b]) == (
                    class_of[i] == class_of[j]
                )

    def test_pickled_cost_map_keeps_classes(self):
        instance = replicated_testbed(n_phones=40, n_jobs=12)
        restored = pickle.loads(pickle.dumps(instance.c_ms_per_kb))
        assert restored.row_class == instance.c_ms_per_kb.row_class
        rebuilt = SchedulingInstance(
            jobs=instance.jobs,
            phones=instance.phones,
            b_ms_per_kb=instance.b_ms_per_kb,
            c_ms_per_kb=restored,
        )
        assert rebuilt.phone_classes() == instance.phone_classes()


#: Ordinary per-KB rates; ``0.0`` is a frequent boundary draw.
_rates = st.floats(min_value=0.0, max_value=80.0)


@st.composite
def bracket_tables(draw):
    """Jobs plus b/c tables; half span several row blocks of phones."""
    n_phones = draw(
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=33, max_value=100),
        )
    )
    n_jobs = draw(st.integers(min_value=1, max_value=5))
    jobs = tuple(
        Job(
            f"j{j}",
            "primes",
            JobKind.ATOMIC if draw(st.booleans()) else JobKind.BREAKABLE,
            draw(st.floats(min_value=0.0, max_value=60.0)),
            draw(st.floats(min_value=1.0, max_value=2000.0)),
        )
        for j in range(n_jobs)
    )
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0) for i in range(n_phones)
    )
    b, c = {}, {}
    for phone in phones:
        kind = draw(st.integers(min_value=0, max_value=9))
        if kind == 0:
            # A zero-rate row: free transfer and free compute.
            b[phone.phone_id] = 0.0
            c.update({(phone.phone_id, job.job_id): 0.0 for job in jobs})
            continue
        # The smallest subnormal ``b_i``: where ``c_ij`` is 0 the rate's
        # reciprocal overflows to inf.
        b[phone.phone_id] = 5e-324 if kind == 1 else draw(_rates)
        for job in jobs:
            c[(phone.phone_id, job.job_id)] = draw(_rates)
    return jobs, phones, b, c


class TestCapacityBracket:
    @settings(max_examples=80, deadline=None)
    @given(tables=bracket_tables())
    def test_streamed_bracket_matches_reference(self, tables):
        jobs, phones, b, c = tables

        def fresh():
            return SchedulingInstance(
                jobs=jobs, phones=phones, b_ms_per_kb=b, c_ms_per_kb=c
            )

        want = reference_capacity_bounds(fresh())
        streamed = fresh()
        assert streamed.capacity_bounds() == want
        assert getattr(streamed, "_per_kb_matrix", None) is None
        cached = fresh()
        cached.per_kb_matrix()
        assert cached.capacity_bounds() == want
