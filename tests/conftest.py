"""Shared fixtures: small scheduling instances used across test modules."""

import dataclasses
import random
import zlib

import numpy as np
import pytest

from repro.core.instance import SchedulingInstance
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor
from repro.netmodel.measurement import measure_fleet
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)


def make_phones(count=4, base_mhz=800.0, step_mhz=200.0):
    return tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=base_mhz + i * step_mhz)
        for i in range(count)
    )


def make_predictor(phones, base_times=None, alpha=0.5):
    slowest = min(phones, key=lambda p: p.cpu_mhz)
    return RuntimePredictor.from_reference_phone(
        slowest, base_times or {"primes": 10.0, "blur": 20.0}, alpha=alpha
    )


def make_instance(
    *,
    n_breakable=4,
    n_atomic=2,
    n_phones=4,
    seed=1,
    input_range=(100.0, 2000.0),
    b_range=(1.0, 70.0),
):
    rng = random.Random(seed)
    phones = make_phones(n_phones)
    predictor = make_predictor(phones)
    jobs = [
        Job(f"b{i}", "primes", JobKind.BREAKABLE, 40.0, rng.uniform(*input_range))
        for i in range(n_breakable)
    ]
    jobs += [
        Job(f"a{i}", "blur", JobKind.ATOMIC, 80.0, rng.uniform(*input_range))
        for i in range(n_atomic)
    ]
    b = {p.phone_id: rng.uniform(*b_range) for p in phones}
    return SchedulingInstance.build(jobs, phones, b, predictor)


def campaign_shaped_instance(seed, *, free_phone=False):
    """1–3 jobs over 13–22 phones drawn from a few duplicated types.

    Phones of one type share ``b_i`` and every ``c_ij``, so their
    Equation-1 opening costs tie exactly and only ``phone_id`` can break
    the tie.  Phone ids are shuffled against phone positions, so
    position order is not ``phone_id`` order.  ``free_phone`` zeroes one
    phone's ``b_i`` and ``c_ij`` (a free-transfer, per-KB rate 0 bin).
    """
    rng = random.Random(seed)
    n_phones = rng.randint(13, 22)
    types = [
        (rng.uniform(1.0, 40.0), rng.uniform(0.5, 30.0), rng.uniform(0.5, 30.0))
        for _ in range(rng.randint(3, 6))
    ]
    ids = rng.sample(range(100, 1000), n_phones)
    phones = tuple(
        PhoneSpec(phone_id=f"ph{ident}", cpu_mhz=800.0 + 100.0 * (k % 7))
        for k, ident in enumerate(ids)
    )
    kind = {phone.phone_id: rng.randrange(len(types)) for phone in phones}
    jobs = tuple(
        Job(
            f"j{i}",
            rng.choice(("primes", "blur")),
            rng.choice((JobKind.BREAKABLE, JobKind.BREAKABLE, JobKind.ATOMIC)),
            rng.uniform(0.0, 120.0),
            rng.uniform(50.0, 4000.0),
        )
        for i in range(rng.randint(1, 3))
    )
    b = {pid: types[t][0] for pid, t in kind.items()}
    c = {
        (pid, job.job_id): types[t][1 if job.task == "primes" else 2]
        for pid, t in kind.items()
        for job in jobs
    }
    if free_phone:
        free = phones[rng.randrange(n_phones)].phone_id
        b[free] = 0.0
        c.update({(free, job.job_id): 0.0 for job in jobs})
    return SchedulingInstance(
        jobs=jobs, phones=phones, b_ms_per_kb=b, c_ms_per_kb=c
    )


def replicated_testbed(n_phones, n_jobs):
    """The paper testbed copied to ``n_phones``, with ``n_jobs`` jobs."""
    testbed = paper_testbed()
    base_b = measure_fleet(testbed.links)
    copies = -(-n_phones // len(testbed.phones))
    phones = [
        dataclasses.replace(phone, phone_id=f"{phone.phone_id}-c{copy}")
        for copy in range(copies)
        for phone in testbed.phones
    ][:n_phones]
    b = {
        phone.phone_id: base_b[phone.phone_id.rsplit("-c", 1)[0]]
        for phone in phones
    }
    repeats = -(-n_jobs // len(evaluation_workload()))
    jobs = [
        dataclasses.replace(job, job_id=f"{job.job_id}-r{repeat}")
        for repeat in range(repeats)
        for job in evaluation_workload(seed=150 + repeat)
    ][:n_jobs]
    predictor = RuntimePredictor(paper_task_profiles())
    return SchedulingInstance.build(jobs, tuple(phones), b, predictor)


@pytest.fixture
def small_instance():
    return make_instance()


@pytest.fixture
def single_phone_instance():
    return make_instance(n_phones=1, n_breakable=2, n_atomic=1)


def crc32_split(instance, bmin, agg):
    """``crc32(job_id) % pods``: a stateless split that ignores the load.

    Takes the place of ``sharding._assign_greedy`` (same signature) so
    tests can drive the sharded scheduler through an unbalanced split.
    """
    n_pods = agg.shape[0]
    return np.fromiter(
        (
            zlib.crc32(job.job_id.encode("utf-8")) % n_pods
            for job in instance.jobs
        ),
        dtype=np.intp,
        count=len(instance.jobs),
    )


@pytest.fixture
def crc32_splitter(monkeypatch):
    """Route every sharded round through :func:`crc32_split`."""
    from repro.core import sharding

    monkeypatch.setattr(sharding, "_assign_greedy", crc32_split)
