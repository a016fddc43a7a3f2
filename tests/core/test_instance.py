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


class _TablePredictor:
    """Predicts ``c`` from a (phone type, task) table, like Eq. 1's model."""

    def __init__(self, table, type_of):
        self._table = table
        self._type_of = type_of

    def predict_ms_per_kb(self, phone, task):
        return self._table[(self._type_of[phone.phone_id], task)]


def plain_copy(instance, c_of):
    """The same instance rebuilt from a plain ``c`` dict (``c_of(p, j)``)."""
    return SchedulingInstance(
        jobs=instance.jobs,
        phones=instance.phones,
        b_ms_per_kb=dict(instance.b_ms_per_kb),
        c_ms_per_kb={
            (phone.phone_id, job.job_id): c_of(phone, job)
            for phone in instance.phones
            for job in instance.jobs
        },
    )


@st.composite
def typed_fleets(draw):
    """A fleet of a few phone types, replicated, with a per-type c table.

    ``b_i`` is the type's, or (now and then) the phone's own, so the
    ``b_i`` refinement of a ``c``-row class is exercised.
    """
    n_types = draw(st.integers(min_value=1, max_value=4))
    tasks = ("primes", "blur", "face")[: draw(st.integers(1, 3))]
    table = {
        (t, task): draw(_rates) for t in range(n_types) for task in tasks
    }
    type_b = [draw(_rates) for _ in range(n_types)]
    n_phones = draw(
        st.one_of(
            st.integers(min_value=1, max_value=10),
            st.integers(min_value=33, max_value=70),
        )
    )
    types = [draw(st.integers(0, n_types - 1)) for _ in range(n_phones)]
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0) for i in range(n_phones)
    )
    b = {
        phone.phone_id: (
            draw(_rates) if draw(st.integers(0, 7)) == 0 else type_b[t]
        )
        for phone, t in zip(phones, types)
    }
    jobs = tuple(
        Job(
            f"j{j}",
            draw(st.sampled_from(tasks)),
            JobKind.ATOMIC if draw(st.booleans()) else JobKind.BREAKABLE,
            draw(st.floats(min_value=0.0, max_value=60.0)),
            draw(st.floats(min_value=1.0, max_value=2000.0)),
        )
        for j in range(draw(st.integers(min_value=1, max_value=6)))
    )
    type_of = {phone.phone_id: t for phone, t in zip(phones, types)}
    return jobs, phones, b, _TablePredictor(table, type_of)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_bits(stored, plain):
    """Every ``c`` view of ``stored`` equals ``plain``'s, bit for bit."""
    for pos, phone in enumerate(stored.phones):
        assert bits(stored.c_row(pos)) == bits(plain.c_row(pos))
        for job in stored.jobs:
            assert bits(stored.c(phone.phone_id, job.job_id)) == bits(
                plain.c(phone.phone_id, job.job_id)
            )
            key = (phone.phone_id, job.job_id)
            assert bits(stored.c_ms_per_kb[key]) == bits(
                plain.c_ms_per_kb[key]
            )
    assert bits(stored.c_matrix()) == bits(plain.c_matrix())
    assert bits(stored.per_kb_matrix()) == bits(plain.per_kb_matrix())
    assert bits(stored.per_kb_matrix_t()) == bits(plain.per_kb_matrix_t())
    for pos in range(len(stored.phones)):
        assert bits(stored.per_kb_rows()[pos]) == bits(
            plain.per_kb_rows()[pos]
        )
    assert stored.capacity_bounds() == plain.capacity_bounds()


class TestClassRowStorage:
    @settings(max_examples=60, deadline=None)
    @given(fleet=typed_fleets())
    def test_fuzzed_fleet_matches_plain_dict(self, fleet):
        jobs, phones, b, predictor = fleet
        stored = SchedulingInstance.build(jobs, phones, b, predictor)
        plain = plain_copy(
            stored,
            lambda phone, job: predictor.predict_ms_per_kb(phone, job.task),
        )
        rows, row_of = stored.c_class_rows()
        distinct_types = {predictor._type_of[p.phone_id] for p in phones}
        assert len(rows) <= len(distinct_types)
        assert row_of.shape == (len(phones),)
        assert_same_bits(stored, plain)

    def test_replicated_fleet_matches_plain_dict(self):
        stored = replicated_testbed(n_phones=90, n_jobs=40)
        plain = plain_copy(
            stored, lambda phone, job: stored.c(phone.phone_id, job.job_id)
        )
        rows, _ = stored.c_class_rows()
        # One row per distinct prediction row: at most one per testbed
        # phone (18), which ``b_i`` then refines into the 18 classes.
        assert len(rows) <= len(stored.phone_classes()[1]) == 18
        assert len(plain.c_class_rows()[0]) == 90
        assert_same_bits(stored, plain)

    def test_plain_dict_is_one_row_per_phone(self):
        instance = make_instance(n_phones=5)
        rows, row_of = instance.c_class_rows()
        assert rows.shape == (5, len(instance.jobs))
        assert row_of.tolist() == [0, 1, 2, 3, 4]
        assert instance.c_matrix() is rows

    def test_stored_rows_are_read_only(self):
        instance = replicated_testbed(n_phones=36, n_jobs=10)
        rows, row_of = instance.c_class_rows()
        for array in (rows, row_of, instance.c_matrix()):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_pickled_instance_round_trips(self):
        instance = replicated_testbed(n_phones=40, n_jobs=12)
        restored = pickle.loads(pickle.dumps(instance))
        assert restored == instance
        assert bits(restored.c_class_rows()[0]) == bits(
            instance.c_class_rows()[0]
        )
        assert restored.phone_classes() == instance.phone_classes()
        assert_same_bits(restored, instance)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    @pytest.mark.parametrize(
        "b_gap",
        [None, "p1", "p5"],
        ids=["all-b", "b-missing-before", "b-missing-after"],
    )
    def test_bad_c_raises_on_the_same_phone(self, bad, b_gap):
        # Types A B A C B C: C's row is bad; its first phone is p3.
        types = ["A", "B", "A", "C", "B", "C"]
        phones = tuple(
            PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0)
            for i in range(len(types))
        )
        jobs = (
            Job("j0", "primes", JobKind.BREAKABLE, 40.0, 100.0),
            Job("j1", "blur", JobKind.ATOMIC, 80.0, 100.0),
        )
        table = {
            ("A", "primes"): 1.0, ("A", "blur"): 2.0,
            ("B", "primes"): 3.0, ("B", "blur"): 4.0,
            ("C", "primes"): 5.0, ("C", "blur"): bad,
        }
        predictor = _TablePredictor(
            table, {p.phone_id: t for p, t in zip(phones, types)}
        )
        b = {p.phone_id: 1.0 for p in phones if p.phone_id != b_gap}

        with pytest.raises(ValueError) as stored:
            SchedulingInstance.build(jobs, phones, b, predictor)
        with pytest.raises(ValueError) as plain:
            SchedulingInstance(
                jobs=jobs,
                phones=phones,
                b_ms_per_kb=b,
                c_ms_per_kb={
                    (p.phone_id, j.job_id): predictor.predict_ms_per_kb(
                        p, j.task
                    )
                    for p in phones
                    for j in jobs
                },
            )
        assert str(stored.value) == str(plain.value)
        if b_gap == "p1":
            assert "missing b_i for phone 'p1'" in str(stored.value)
        else:
            assert str(stored.value).startswith("c_ij for ('p3', 'j1')")


def restricted(classes, positions):
    """``phone_classes()`` restricted to ``positions``, renumbered."""
    class_of, _ = classes
    index: dict = {}
    sub_class_of = tuple(
        index.setdefault(class_of[i], len(index)) for i in positions
    )
    members: list[list[int]] = [[] for _ in index]
    for a, k in enumerate(sub_class_of):
        members[k].append(a)
    return sub_class_of, tuple(map(tuple, members))


class TestPodClassRows:
    @pytest.mark.parametrize(
        "job_positions", [(7,), (0, 5, 11, 29)], ids=["1-job", "4-job"]
    )
    def test_pod_copies_only_its_class_rows(self, job_positions):
        instance = replicated_testbed(n_phones=72, n_jobs=30)
        # Testbed types 0-5, replicated: a pod holding 3 of 18 classes.
        positions = tuple(
            pos for pos in range(72) if pos % 18 in (0, 4, 5)
        )
        sub = pod_instance(instance, positions, job_positions)
        assert sub.phone_classes() == restricted(
            instance.phone_classes(), positions
        )
        rows, row_of = sub.c_class_rows()
        parent_rows, parent_row_of = instance.c_class_rows()
        assert len(rows) == len({int(parent_row_of[i]) for i in positions})
        for a, i in enumerate(positions):
            assert bits(rows[row_of[a]]) == bits(
                parent_rows[parent_row_of[i]][list(job_positions)]
            )
        assert bits(sub.c_matrix()) == bits(
            instance.c_matrix()[np.ix_(positions, job_positions)]
        )
        assert bits(sub.per_kb_matrix()) == bits(
            instance.per_kb_matrix()[np.ix_(positions, job_positions)]
        )
