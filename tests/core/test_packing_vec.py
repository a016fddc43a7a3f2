"""Dual-kernel parity and the capacity-search machinery on top of it.

The vectorized :class:`~repro.core.packing_vec.VectorGreedyPacker` must
agree with the exact scalar :class:`~repro.core.packing.GreedyPacker`
*pack by pack* — same feasibility verdict, same max height, same opened
bins, and byte-identical schedules — on every capacity, not just the
converged one.  On top of kernel parity, this module pins the
capacity-search additions that ride on the kernels: verdict-only
probes, the feasibility/infeasibility certificates (including the
fleet-scale short-circuit the certificates previously missed) and the
LP floor.
"""

import pytest

from repro.core._reference import ReferenceCapacitySearch
from repro.core.capacity import (
    _AUTO_KERNEL_MIN_CELLS,
    CapacitySearch,
    capacity_bounds,
    resolve_kernel,
)
from repro.core.constraints import RamConstraint
from repro.core.instance import SchedulingInstance
from repro.core.model import Job, JobKind
from repro.core.packing import GreedyPacker
from repro.core.packing_vec import VectorGreedyPacker
from repro.core.prediction import RuntimePredictor
from repro.core.serialize import schedule_to_dict
from repro.netmodel.measurement import measure_fleet
from repro.workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)

from ..conftest import make_instance


def paper_instance():
    testbed = paper_testbed()
    predictor = RuntimePredictor(paper_task_profiles())
    b = measure_fleet(testbed.links)
    return SchedulingInstance.build(
        evaluation_workload(), testbed.phones, b, predictor
    )


def capacity_grid(instance, points=12):
    """Capacities straddling the whole bracket, both sides of feasible."""
    lower, upper = capacity_bounds(instance)
    seed = upper * (1.0 + 1e-9) + 1e-9
    return [
        lower * 0.5,
        lower,
        lower * 1.01,
        lower * 1.2,
        lower * 2.0,
        (lower + upper) / 2.0,
        upper * 0.7,
        upper * 0.95,
        upper,
        upper * 1.5,
        seed,
    ][:points]


def assert_pack_parity(instance, capacities, **packer_kwargs):
    scalar = GreedyPacker(instance, **packer_kwargs)
    vector = VectorGreedyPacker(instance, **packer_kwargs)
    for capacity in capacities:
        a = scalar.pack(capacity)
        b = vector.pack(capacity)
        assert a.feasible == b.feasible, capacity
        assert a.max_height_ms == b.max_height_ms, capacity
        assert a.opened_bins == b.opened_bins, capacity
        if a.feasible:
            assert schedule_to_dict(a.schedule) == schedule_to_dict(
                b.schedule
            ), capacity


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        instance = make_instance(
            n_breakable=14, n_atomic=6, n_phones=9, seed=seed
        )
        assert_pack_parity(instance, capacity_grid(instance))

    def test_paper_testbed(self):
        instance = paper_instance()
        assert_pack_parity(instance, capacity_grid(instance))

    @pytest.mark.parametrize("seed", range(6))
    def test_with_ram_and_min_partition(self, seed):
        instance = make_instance(
            n_breakable=8, n_atomic=4, n_phones=6, seed=200 + seed
        )
        ram = RamConstraint(
            {phone.phone_id: 900.0 for phone in instance.phones}
        )
        assert_pack_parity(
            instance,
            capacity_grid(instance),
            ram=ram,
            min_partition_kb=40.0,
        )
        assert_pack_parity(
            instance, capacity_grid(instance), min_partition_kb=400.0
        )

    def test_verdict_only_pack_matches_collecting_pack(self):
        instance = make_instance(
            n_breakable=12, n_atomic=5, n_phones=8, seed=9
        )
        vector = VectorGreedyPacker(instance)
        for capacity in capacity_grid(instance):
            full = vector.pack(capacity)
            verdict = vector.pack(capacity, collect=False)
            assert verdict.schedule is None
            assert verdict.feasible == full.feasible
            assert verdict.max_height_ms == full.max_height_ms
            assert verdict.opened_bins == full.opened_bins

    def test_packer_is_reusable_across_capacities(self):
        """Interleaved packs never leak state between calls."""
        instance = make_instance(
            n_breakable=10, n_atomic=4, n_phones=7, seed=3
        )
        vector = VectorGreedyPacker(instance)
        grid = capacity_grid(instance)
        first = [vector.pack(c) for c in grid]
        again = [vector.pack(c) for c in reversed(grid)]
        for a, b in zip(first, reversed(again)):
            assert a.feasible == b.feasible
            if a.feasible:
                assert schedule_to_dict(a.schedule) == schedule_to_dict(
                    b.schedule
                )


class TestKernelSelection:
    def test_explicit_kernels_pass_through(self, small_instance):
        assert resolve_kernel("python", small_instance) == "python"
        assert resolve_kernel("numpy", small_instance) == "numpy"

    def test_auto_picks_by_instance_size(self, small_instance):
        cells = len(small_instance.phones) * len(small_instance.jobs)
        assert cells < _AUTO_KERNEL_MIN_CELLS
        assert resolve_kernel("auto", small_instance) == "python"

    def test_unknown_kernel_rejected(self, small_instance):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("fortran", small_instance)
        with pytest.raises(ValueError, match="unknown kernel"):
            CapacitySearch(kernel="fortran")

    def test_search_reports_resolved_kernel(self, small_instance):
        for kernel in ("python", "numpy"):
            result = CapacitySearch(kernel=kernel).run(small_instance)
            assert result.kernel == kernel
        assert (
            CapacitySearch(kernel="auto").run(small_instance).kernel
            == "python"
        )


def atomic_heavy_fleet(n_phones=50):
    """A fleet whose bracket is dominated by one huge atomic job.

    With identical phones, the single-placement floor of the atomic job
    equals the upper bound (some phone must hold the whole job), so
    *every* in-bracket bisection midpoint is provably infeasible — the
    shape of the fleet-scale dead zone the certificates previously
    missed.
    """
    jobs = [
        Job("giant", "primes", JobKind.ATOMIC, 120.0, 50_000.0),
        Job("crumb", "primes", JobKind.BREAKABLE, 10.0, 400.0),
    ]
    phones = make_instance(n_phones=n_phones, seed=7).phones
    b = {phone.phone_id: 5.0 for phone in phones}
    c = {
        (phone.phone_id, job.job_id): 11.0
        for phone in phones
        for job in jobs
    }
    return SchedulingInstance(
        jobs=tuple(jobs), phones=phones, b_ms_per_kb=b, c_ms_per_kb=c
    )


class TestCertificates:
    def test_infeasible_fleet_midpoints_are_skipped(self):
        """Satellite 1: a provably-infeasible midpoint is not packed."""
        instance = atomic_heavy_fleet()
        result = CapacitySearch().run(instance)
        reference = ReferenceCapacitySearch().run(instance)
        assert result.shortcircuit_skips > 0
        assert result.capacity_ms == reference.capacity_ms
        assert schedule_to_dict(result.schedule) == schedule_to_dict(
            reference.schedule
        )
        # The reference packs every probe; the certificates resolve the
        # infeasible midpoints for free.
        assert result.packer_passes < reference.packer_passes

    def test_feasibility_certificate_skips_giant_probes(self):
        """Capacities past the greedy-feasibility threshold never pack."""
        instance = make_instance(
            n_breakable=40, n_atomic=0, n_phones=60, seed=11
        )
        result = CapacitySearch().run(instance)
        reference = ReferenceCapacitySearch().run(instance)
        assert result.shortcircuit_skips > 0
        assert result.capacity_ms == reference.capacity_ms
        assert schedule_to_dict(result.schedule) == schedule_to_dict(
            reference.schedule
        )
        assert result.packer_passes < reference.packer_passes

    def test_lp_floor_preserves_schedule(self):
        instance = make_instance(
            n_breakable=6, n_atomic=2, n_phones=5, seed=21
        )
        with_lp = CapacitySearch(lp_floor=True).run(instance)
        without = CapacitySearch().run(instance)
        assert with_lp.capacity_ms == without.capacity_ms
        assert schedule_to_dict(with_lp.schedule) == schedule_to_dict(
            without.schedule
        )
