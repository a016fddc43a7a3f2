"""Energy-aware policy: maximise completed work per joule.

CWC assumes phones on chargers have free energy; the energy-aware
scheduling literature (Li et al., PAPERS.md) does not — every joule a
task burns is a joule not charging the battery, and the `repro.power`
battery model (PR: power subsystem) quantifies exactly that through
each profile's ``cpu_draw_w``.  This policy concentrates work on the
most work-per-joule-efficient slice of the fleet instead of spreading
it across every phone the way the makespan-minimising CWC greedy does:
it ranks phones by how much computation a joule buys on them, keeps
the best ``efficient_fraction``, and then packs jobs whole onto that
slice with a load-balance term so the makespan degrades gracefully
rather than collapsing onto a single phone.

The same electrical model doubles as the measurement side: the
tournament harness charges a run's energy bill with
:func:`run_energy_joules` over the timeline trace, so the policy and
the scoreboard agree on what a joule is.
"""

from __future__ import annotations

import math

from ...obs.telemetry import NULL_TELEMETRY
from ...obs.tracing import maybe_span
from ...power.battery import HTC_G2, HTC_SENSATION
from ..instance import SchedulingInstance
from ..model import PhoneSpec
from ..schedule import Schedule, ScheduleBuilder
from .base import check_fraction, sorted_jobs_by_cost

__all__ = [
    "EnergyAwarePolicy",
    "phone_cpu_draw_w",
    "assignment_energy_j",
    "run_energy_joules",
]


def phone_cpu_draw_w(phone: PhoneSpec) -> float:
    """Full-load CPU draw (watts) for one phone.

    The two paper handsets map to their measured
    :mod:`repro.power.battery` profiles; synthetic fleet members get a
    deterministic draw interpolated between the two presets by clock
    speed (faster silicon of the era burned more power).
    """
    model = phone.model_name.lower()
    if "sensation" in model:
        return HTC_SENSATION.cpu_draw_w
    if "g2" in model or "desire" in model:
        return HTC_G2.cpu_draw_w
    low, high = HTC_G2.cpu_draw_w, HTC_SENSATION.cpu_draw_w
    fraction = (min(max(phone.cpu_mhz, 500.0), 2000.0) - 500.0) / 1500.0
    return round(low + (high - low) * fraction, 6)


def assignment_energy_j(
    instance: SchedulingInstance,
    phone_id: str,
    job_id: str,
    input_kb: float | None = None,
) -> float:
    """Joules one partition costs on one phone (CPU draw x busy time)."""
    draw_w = phone_cpu_draw_w(instance.phone(phone_id))
    return draw_w * instance.cost(phone_id, job_id, input_kb) / 1000.0


def run_energy_joules(trace, phones) -> float:
    """Total joules a finished run burned across the fleet.

    Charged as each phone's busy time (copy + execute spans, including
    interrupted and speculative ones — wasted work still burned power)
    times its full-load draw.  Deterministic given the trace, so the
    number is digest-stable across reruns.
    """
    total = 0.0
    for phone in phones:
        total += (
            trace.busy_ms(phone.phone_id) / 1000.0 * phone_cpu_draw_w(phone)
        )
    return total


class EnergyAwarePolicy:
    """Pack jobs whole onto the most energy-efficient fleet slice.

    Parameters
    ----------
    efficient_fraction:
        Share of the fleet (by work-per-joule rank) eligible for work.
        1.0 degenerates to energy-greedy over the whole fleet.
    balance:
        Weight of the load-balance term: 0 minimises energy alone
        (everything piles onto the cheapest phones), larger values
        trade joules for makespan.  The default keeps the makespan
        within a small factor of CWC greedy on the paper testbed while
        cutting the energy bill.
    """

    name = "energy-aware"

    #: No capacity search ran, so there are no search diagnostics.
    last_result = None

    def __init__(
        self,
        *,
        efficient_fraction: float = 0.5,
        balance: float = 1.0,
        telemetry=None,
    ) -> None:
        self._fraction = check_fraction(
            "efficient_fraction", efficient_fraction
        )
        if not math.isfinite(balance) or balance < 0:
            raise ValueError(
                f"balance must be finite and >= 0, got {balance!r}"
            )
        self._balance = float(balance)
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY

    def schedule(self, instance: SchedulingInstance) -> Schedule:
        """Greedy work-per-joule packing over the efficient slice."""
        tel = self._tel
        tracer = tel.tracer if tel.enabled else None
        with maybe_span(
            tracer,
            "schedule",
            category="scheduler",
            scheduler=self.name,
            jobs=len(instance.jobs),
            phones=len(instance.phones),
        ):
            return self._build(instance)

    def _build(self, instance: SchedulingInstance) -> Schedule:
        phones = instance.phones
        draws = {
            phone.phone_id: phone_cpu_draw_w(phone) for phone in phones
        }

        def work_per_joule(phone: PhoneSpec) -> float:
            draw = draws[phone.phone_id]
            score = 0.0
            for job in instance.jobs:
                cost_ms = instance.cost(phone.phone_id, job.job_id)
                if cost_ms > 0:
                    score += 1.0 / (draw * cost_ms)
            return score

        keep = max(1, math.ceil(self._fraction * len(phones)))
        chosen = sorted(
            phones,
            key=lambda phone: (
                -work_per_joule(phone),
                instance.phone_position(phone.phone_id),
            ),
        )[:keep]

        lower_ms, _upper_ms = instance.capacity_bounds()
        target_ms = max(lower_ms, 1.0)
        finish = {phone.phone_id: 0.0 for phone in chosen}
        builder = ScheduleBuilder()
        for job in sorted_jobs_by_cost(instance):

            def score(phone: PhoneSpec) -> tuple[float, int]:
                cost_ms = instance.cost(phone.phone_id, job.job_id)
                energy = draws[phone.phone_id] * cost_ms / 1000.0
                stretch = (finish[phone.phone_id] + cost_ms) / target_ms
                return (
                    energy * (1.0 + self._balance * stretch),
                    instance.phone_position(phone.phone_id),
                )

            best = min(chosen, key=score)
            finish[best.phone_id] += instance.cost(
                best.phone_id, job.job_id
            )
            builder.place(
                best.phone_id, job.job_id, job.task, job.input_kb, whole=True
            )
        return builder.build()
