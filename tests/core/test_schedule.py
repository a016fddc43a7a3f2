"""Unit tests for Schedule/Assignment and cost accounting."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import CapacitySearch
from repro.core.schedule import (
    Assignment,
    InfeasibleScheduleError,
    Schedule,
    ScheduleBuilder,
)

from ..conftest import make_instance


def place_all_on_one_phone(instance, phone_id):
    builder = ScheduleBuilder()
    for job in instance.jobs:
        builder.place(phone_id, job.job_id, job.task, job.input_kb, whole=True)
    return builder.build()


class TestAssignment:
    def test_zero_partition_rejected(self):
        with pytest.raises(ValueError):
            Assignment(
                phone_id="p", job_id="j", task="t", input_kb=0.0, whole=True
            )

    def test_negative_partition_rejected(self):
        with pytest.raises(ValueError):
            Assignment(
                phone_id="p", job_id="j", task="t", input_kb=-5.0, whole=False
            )


class TestPartitionCounts:
    def test_whole_job_counts_as_zero_partitions(self):
        builder = ScheduleBuilder()
        builder.place("p0", "j", "t", 100.0, whole=True)
        counts = builder.build().partition_counts()
        assert counts == {"j": 0}

    def test_split_job_counts_pieces(self):
        builder = ScheduleBuilder()
        builder.place("p0", "j", "t", 60.0, whole=False)
        builder.place("p1", "j", "t", 40.0, whole=False)
        assert builder.build().partition_counts() == {"j": 2}

    def test_single_partial_counts_as_one(self):
        builder = ScheduleBuilder()
        builder.place("p0", "j", "t", 60.0, whole=False)
        assert builder.build().partition_counts() == {"j": 1}

    def test_unsplit_fraction(self):
        builder = ScheduleBuilder()
        builder.place("p0", "a", "t", 100.0, whole=True)
        builder.place("p0", "b", "t", 60.0, whole=False)
        builder.place("p1", "b", "t", 40.0, whole=False)
        assert builder.build().unsplit_fraction() == pytest.approx(0.5)

    def test_empty_schedule_unsplit_fraction(self):
        assert Schedule(()).unsplit_fraction() == 1.0


class TestCostAccounting:
    def test_executable_paid_once_per_phone_job_pair(self):
        instance = make_instance(n_breakable=1, n_atomic=0, n_phones=1)
        job = instance.jobs[0]
        pid = instance.phones[0].phone_id
        builder = ScheduleBuilder()
        builder.place(pid, job.job_id, job.task, job.input_kb / 2, whole=False)
        builder.place(pid, job.job_id, job.task, job.input_kb / 2, whole=False)
        schedule = builder.build()
        b = instance.b(pid)
        c = instance.c(pid, job.job_id)
        expected = job.executable_kb * b + job.input_kb * (b + c)
        assert schedule.predicted_finish_ms(instance, pid) == pytest.approx(expected)

    def test_executable_paid_per_phone(self):
        instance = make_instance(n_breakable=1, n_atomic=0, n_phones=2)
        job = instance.jobs[0]
        builder = ScheduleBuilder()
        builder.place("p0", job.job_id, job.task, job.input_kb / 2, whole=False)
        builder.place("p1", job.job_id, job.task, job.input_kb / 2, whole=False)
        schedule = builder.build()
        for pid in ("p0", "p1"):
            b = instance.b(pid)
            c = instance.c(pid, job.job_id)
            expected = job.executable_kb * b + (job.input_kb / 2) * (b + c)
            assert schedule.predicted_finish_ms(instance, pid) == pytest.approx(
                expected
            )

    def test_makespan_is_max_over_phones(self, small_instance):
        schedule = place_all_on_one_phone(
            small_instance, small_instance.phones[0].phone_id
        )
        makespan = schedule.predicted_makespan_ms(small_instance)
        finish = schedule.predicted_finish_ms(
            small_instance, small_instance.phones[0].phone_id
        )
        assert makespan == pytest.approx(finish)

    def test_empty_schedule_makespan_zero(self, small_instance):
        assert Schedule(()).predicted_makespan_ms(small_instance) == 0.0

    def test_idle_phone_finish_zero(self, small_instance):
        schedule = place_all_on_one_phone(
            small_instance, small_instance.phones[0].phone_id
        )
        assert (
            schedule.predicted_finish_ms(
                small_instance, small_instance.phones[1].phone_id
            )
            == 0.0
        )


class TestValidate:
    def test_full_coverage_passes(self, small_instance):
        schedule = place_all_on_one_phone(
            small_instance, small_instance.phones[0].phone_id
        )
        schedule.validate(small_instance)

    def test_partial_coverage_fails(self, small_instance):
        builder = ScheduleBuilder()
        job = small_instance.jobs[0]
        builder.place(
            small_instance.phones[0].phone_id,
            job.job_id,
            job.task,
            job.input_kb / 2,
            whole=False,
        )
        with pytest.raises(InfeasibleScheduleError, match="assigned"):
            builder.build().validate(small_instance)

    def test_unknown_phone_fails(self, small_instance):
        builder = ScheduleBuilder()
        for job in small_instance.jobs:
            builder.place("ghost", job.job_id, job.task, job.input_kb, whole=True)
        with pytest.raises(InfeasibleScheduleError, match="unknown phone"):
            builder.build().validate(small_instance)

    def test_split_atomic_fails(self, small_instance):
        atomic = small_instance.atomic_jobs()[0]
        builder = ScheduleBuilder()
        for job in small_instance.jobs:
            if job.job_id == atomic.job_id:
                builder.place("p0", job.job_id, job.task, job.input_kb / 2, whole=False)
                builder.place("p1", job.job_id, job.task, job.input_kb / 2, whole=False)
            else:
                builder.place("p0", job.job_id, job.task, job.input_kb, whole=True)
        with pytest.raises(InfeasibleScheduleError, match="atomic"):
            builder.build().validate(small_instance)

    def test_unknown_job_fails(self, small_instance):
        builder = ScheduleBuilder()
        pid = small_instance.phones[0].phone_id
        for job in small_instance.jobs:
            builder.place(pid, job.job_id, job.task, job.input_kb, whole=True)
        builder.place(pid, "ghost-job", "primes", 10.0, whole=True)
        with pytest.raises(
            InfeasibleScheduleError,
            match="assignment references unknown job 'ghost-job'",
        ):
            builder.build().validate(small_instance)

    def test_iteration_and_len(self, small_instance):
        schedule = place_all_on_one_phone(
            small_instance, small_instance.phones[0].phone_id
        )
        assert len(schedule) == len(small_instance.jobs)
        assert len(list(schedule)) == len(schedule)

    def test_for_phone_preserves_order(self, small_instance):
        pid = small_instance.phones[0].phone_id
        schedule = place_all_on_one_phone(small_instance, pid)
        ordered = [a.job_id for a in schedule.for_phone(pid)]
        assert ordered == [j.job_id for j in small_instance.jobs]


# ---------------------------------------------------------------------------
# the linear validator against the quadratic one it replaced
# ---------------------------------------------------------------------------


def quadratic_validate(self, instance, *, tol_kb: float = 1e-6) -> None:
    """``Schedule.validate`` as it was before the one-pass rewrite.

    Kept verbatim (``self`` is the schedule) as the reference the
    linear validator must agree with, error for error.
    """
    known_phones = {p.phone_id for p in instance.phones}
    for a in self._assignments:
        if a.phone_id not in known_phones:
            raise InfeasibleScheduleError(
                f"assignment references unknown phone {a.phone_id!r}"
            )
        instance.job(a.job_id)  # raises KeyError if unknown
    for job in instance.jobs:
        assigned = self.assigned_kb(job.job_id)
        if abs(assigned - job.input_kb) > tol_kb:
            raise InfeasibleScheduleError(
                f"job {job.job_id!r}: assigned {assigned} KB of "
                f"{job.input_kb} KB input"
            )
        if job.is_atomic:
            pieces = [a for a in self._assignments if a.job_id == job.job_id]
            if len(pieces) != 1 or not pieces[0].whole:
                raise InfeasibleScheduleError(
                    f"atomic job {job.job_id!r} must be one whole assignment, "
                    f"got {len(pieces)} pieces"
                )


def validation_outcome(validate, schedule, instance, tol_kb=1e-6):
    """``None`` if ``validate`` accepts, else ``(exception type, message)``."""
    try:
        validate(schedule, instance, tol_kb=tol_kb)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def assert_validators_agree(schedule, instance, tol_kb=1e-6):
    expected = validation_outcome(quadratic_validate, schedule, instance, tol_kb)
    assert (
        validation_outcome(Schedule.validate, schedule, instance, tol_kb)
        == expected
    )
    return expected


@functools.cache
def searched_case(seed: int):
    """A real converged schedule over a small mixed instance."""
    instance = make_instance(
        n_breakable=5, n_atomic=3, n_phones=3 + seed % 3, seed=seed
    )
    return instance, CapacitySearch().run(instance).schedule


def _split(a: Assignment, fraction: float, phone_id: str):
    first = a.input_kb * fraction
    return [
        dataclasses.replace(a, input_kb=first, whole=False),
        dataclasses.replace(
            a, phone_id=phone_id, input_kb=a.input_kb - first, whole=False
        ),
    ]


MUTATIONS = (
    "drop",
    "split",
    "duplicate",
    "shift",
    "split-atomic",
    "unknown-phone",
)


def mutate(instance, schedule, kind, data):
    pieces = list(schedule.assignments)
    index = data.draw(st.integers(0, len(pieces) - 1), label="index")
    a = pieces[index]
    if kind == "drop":
        del pieces[index]
    elif kind == "split":
        fraction = data.draw(st.floats(0.01, 0.99), label="fraction")
        phone = data.draw(st.sampled_from(instance.phones)).phone_id
        pieces[index : index + 1] = _split(a, fraction, phone)
    elif kind == "duplicate":
        at = data.draw(st.integers(0, len(pieces)), label="at")
        pieces.insert(at, a)
    elif kind == "shift":
        sign = data.draw(st.sampled_from((-1.0, 1.0)), label="sign")
        # Exactly one tolerance either way: the boundary where the
        # accept/reject verdict hinges on the last bit of the sum.
        shifted = a.input_kb + sign * 1e-6
        pieces[index] = dataclasses.replace(a, input_kb=shifted)
    elif kind == "split-atomic":
        atomic = {job.job_id for job in instance.atomic_jobs()}
        index = next(i for i, p in enumerate(pieces) if p.job_id in atomic)
        phone = data.draw(st.sampled_from(instance.phones)).phone_id
        pieces[index : index + 1] = _split(pieces[index], 0.5, phone)
    elif kind == "unknown-phone":
        pieces[index] = dataclasses.replace(a, phone_id="ghost")
    return Schedule(pieces)


class TestValidatorEquivalence:
    """The one-pass validator raises exactly what the quadratic one did."""

    @pytest.mark.parametrize("seed", range(4))
    def test_real_schedules_pass_both(self, seed):
        instance, schedule = searched_case(seed)
        assert assert_validators_agree(schedule, instance) is None

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 3),
        kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_mutations_raise_the_same_error(self, seed, kinds, data):
        instance, schedule = searched_case(seed)
        for kind in kinds:
            schedule = mutate(instance, schedule, kind, data)
        assert_validators_agree(schedule, instance)

    def test_fleet_scale_schedule(self):
        """5000 jobs, ~6000 assignments: valid, then one job short."""
        instance = make_instance(n_breakable=4000, n_atomic=1000, n_phones=20)
        phones = [phone.phone_id for phone in instance.phones]
        builder = ScheduleBuilder()
        for index, job in enumerate(instance.jobs):
            phone = phones[index % len(phones)]
            if job.is_atomic or index % 4:
                builder.place(
                    phone, job.job_id, job.task, job.input_kb, whole=True
                )
                continue
            half = job.input_kb / 2
            builder.place(phone, job.job_id, job.task, half, whole=False)
            other = phones[(index + 1) % len(phones)]
            builder.place(
                other, job.job_id, job.task, job.input_kb - half, whole=False
            )
        schedule = builder.build()
        assert len(schedule) == 6000
        assert assert_validators_agree(schedule, instance) is None
        short = Schedule(schedule.assignments[:-1])
        outcome = assert_validators_agree(short, instance)
        assert outcome is not None and outcome[0] is InfeasibleScheduleError
