"""Composable chaos injection for simulated CWC runs.

The paper's evaluation injects exactly three clean unplugs (Fig. 12c);
:class:`~repro.sim.failures.FailurePlan` inherits that narrowness.  Real
overnight fleets *flap* (fail, rejoin, fail again), *straggle* (a phone
silently slows down mid-run), suffer degraded links, crash individual
tasks, and occasionally return wrong answers.  This module generalises
the failure plan into a :class:`ChaosPlan` — a seeded, deterministic
stream of timed faults across five classes:

* **unplug / flapping** — :class:`~repro.sim.failures.PlannedFailure`
  streams, now with repeated fail/rejoin cycles per phone;
* **CPU stragglers** — :class:`CpuSlowdown`: a multiplicative factor on
  the phone's ground-truth execution time over a time window;
* **bandwidth degradation** — :class:`BandwidthDegradation`: the same,
  on the link model's per-KB transfer time;
* **task crashes** — :class:`TaskCrash`: the operation in flight on a
  phone dies; the phone survives;
* **corrupted results** — :class:`ResultCorruption`: the phone's next
  completed execution returns a wrong payload.

:class:`ChaosMonkey` samples plans from per-fault rates with a caller
supplied RNG, so a single integer seed reproduces an entire night of
chaos byte-for-byte.  :class:`ResiliencePolicy` configures the central
server's defences (straggler detection, speculative backups, dispatch
timeouts with bounded retry/backoff, duplicate-execution verification);
the degenerate default policy disables all of them, preserving the
paper-faithful server behaviour.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from ..netmodel.links import DegradationSchedule
from .failures import FailurePlan, PlannedFailure

__all__ = [
    "CpuSlowdown",
    "BandwidthDegradation",
    "TaskCrash",
    "ResultCorruption",
    "ChaosPlan",
    "ChaosMonkey",
    "ResiliencePolicy",
]


def _check_time(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class CpuSlowdown:
    """A mid-run CPU straggler: execution time multiplied by ``factor``.

    ``duration_ms = None`` means the phone stays slow until the end of
    the run.  Factors below 1 (a phone speeding up) are allowed but
    unusual; zero/negative factors are rejected.
    """

    phone_id: str
    start_ms: float
    factor: float
    duration_ms: float | None = None

    def __post_init__(self) -> None:
        _check_time("start_ms", self.start_ms)
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ValueError(f"factor must be finite and > 0, got {self.factor!r}")
        if self.duration_ms is not None and (
            not math.isfinite(self.duration_ms) or self.duration_ms <= 0
        ):
            raise ValueError(
                f"duration_ms must be finite and > 0, got {self.duration_ms!r}"
            )

    @property
    def end_ms(self) -> float | None:
        if self.duration_ms is None:
            return None
        return self.start_ms + self.duration_ms


@dataclass(frozen=True, slots=True)
class BandwidthDegradation:
    """A degraded link: per-KB transfer time multiplied by ``factor``."""

    phone_id: str
    start_ms: float
    factor: float
    duration_ms: float | None = None

    def __post_init__(self) -> None:
        _check_time("start_ms", self.start_ms)
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ValueError(f"factor must be finite and > 0, got {self.factor!r}")
        if self.duration_ms is not None and (
            not math.isfinite(self.duration_ms) or self.duration_ms <= 0
        ):
            raise ValueError(
                f"duration_ms must be finite and > 0, got {self.duration_ms!r}"
            )

    @property
    def end_ms(self) -> float | None:
        if self.duration_ms is None:
            return None
        return self.start_ms + self.duration_ms


@dataclass(frozen=True, slots=True)
class TaskCrash:
    """The operation in flight on ``phone_id`` at ``time_ms`` dies.

    The phone itself stays healthy: it reports the crash and keeps
    serving its queue.  If nothing is in flight the crash is a no-op.
    """

    phone_id: str
    time_ms: float

    def __post_init__(self) -> None:
        _check_time("time_ms", self.time_ms)


@dataclass(frozen=True, slots=True)
class ResultCorruption:
    """The phone's next completed execution after ``time_ms`` lies.

    The corrupted payload differs from the true result (and from any
    other corrupted payload), so duplicate-execution verification can
    detect it; without verification it is silently aggregated.
    """

    phone_id: str
    time_ms: float

    def __post_init__(self) -> None:
        _check_time("time_ms", self.time_ms)


class ChaosPlan:
    """An immutable, composable bundle of timed fault streams.

    All five fault classes are optional; an empty plan injects nothing.
    Plans are plain data — building one never touches an RNG, so a plan
    assembled from sampled pieces stays deterministic.
    """

    def __init__(
        self,
        *,
        failures: FailurePlan | Iterable[PlannedFailure] = (),
        slowdowns: Iterable[CpuSlowdown] = (),
        bandwidth: Iterable[BandwidthDegradation] = (),
        crashes: Iterable[TaskCrash] = (),
        corruptions: Iterable[ResultCorruption] = (),
    ) -> None:
        if not isinstance(failures, FailurePlan):
            failures = FailurePlan(failures)
        self._failures = failures
        self._slowdowns = tuple(
            sorted(slowdowns, key=lambda s: (s.start_ms, s.phone_id))
        )
        self._bandwidth = tuple(
            sorted(bandwidth, key=lambda b: (b.start_ms, b.phone_id))
        )
        self._crashes = tuple(
            sorted(crashes, key=lambda c: (c.time_ms, c.phone_id))
        )
        self._corruptions = tuple(
            sorted(corruptions, key=lambda c: (c.time_ms, c.phone_id))
        )

    @classmethod
    def none(cls) -> "ChaosPlan":
        """A plan that injects nothing."""
        return cls()

    # -- structure ---------------------------------------------------------

    @property
    def failures(self) -> FailurePlan:
        return self._failures

    @property
    def slowdowns(self) -> tuple[CpuSlowdown, ...]:
        return self._slowdowns

    @property
    def bandwidth(self) -> tuple[BandwidthDegradation, ...]:
        return self._bandwidth

    @property
    def crashes(self) -> tuple[TaskCrash, ...]:
        return self._crashes

    @property
    def corruptions(self) -> tuple[ResultCorruption, ...]:
        return self._corruptions

    @property
    def is_empty(self) -> bool:
        return not (
            len(self._failures)
            or self._slowdowns
            or self._bandwidth
            or self._crashes
            or self._corruptions
        )

    def fault_count(self) -> int:
        """Total number of planned faults across all classes."""
        return (
            len(self._failures)
            + len(self._slowdowns)
            + len(self._bandwidth)
            + len(self._crashes)
            + len(self._corruptions)
        )

    def phone_ids(self) -> frozenset[str]:
        """Every phone named by at least one fault."""
        ids = set(self._failures.phone_ids)
        for stream in (self._slowdowns, self._bandwidth, self._crashes,
                       self._corruptions):
            ids.update(event.phone_id for event in stream)
        return frozenset(ids)

    def merged(self, other: "ChaosPlan") -> "ChaosPlan":
        """Union of two plans (failure streams re-validated)."""
        return ChaosPlan(
            failures=self._failures.merged(other._failures),
            slowdowns=self._slowdowns + other._slowdowns,
            bandwidth=self._bandwidth + other._bandwidth,
            crashes=self._crashes + other._crashes,
            corruptions=self._corruptions + other._corruptions,
        )

    # -- compilation for the simulator -------------------------------------

    def compute_schedule(self, phone_id: str) -> DegradationSchedule | None:
        """This phone's CPU-slowdown timeline (None if never slowed)."""
        segments = [
            (s.start_ms, s.end_ms, s.factor)
            for s in self._slowdowns
            if s.phone_id == phone_id
        ]
        return DegradationSchedule(segments) if segments else None

    def bandwidth_schedule(self, phone_id: str) -> DegradationSchedule | None:
        """This phone's link-degradation timeline (None if never hit)."""
        segments = [
            (b.start_ms, b.end_ms, b.factor)
            for b in self._bandwidth
            if b.phone_id == phone_id
        ]
        return DegradationSchedule(segments) if segments else None

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation (round-trips via :meth:`from_dict`)."""
        return {
            "failures": [
                {
                    "phone_id": f.phone_id,
                    "time_ms": f.time_ms,
                    "online": f.online,
                    "rejoin_after_ms": f.rejoin_after_ms,
                }
                for f in self._failures
            ],
            "slowdowns": [
                {
                    "phone_id": s.phone_id,
                    "start_ms": s.start_ms,
                    "factor": s.factor,
                    "duration_ms": s.duration_ms,
                }
                for s in self._slowdowns
            ],
            "bandwidth": [
                {
                    "phone_id": b.phone_id,
                    "start_ms": b.start_ms,
                    "factor": b.factor,
                    "duration_ms": b.duration_ms,
                }
                for b in self._bandwidth
            ],
            "crashes": [
                {"phone_id": c.phone_id, "time_ms": c.time_ms}
                for c in self._crashes
            ],
            "corruptions": [
                {"phone_id": c.phone_id, "time_ms": c.time_ms}
                for c in self._corruptions
            ],
        }

    @classmethod
    def from_dict(cls, spec: Mapping) -> "ChaosPlan":
        """Parse a chaos spec (the CLI's ``--chaos`` file format)."""
        failures = [
            PlannedFailure(
                phone_id=str(f["phone_id"]),
                time_ms=float(f["time_ms"]),
                online=bool(f.get("online", True)),
                rejoin_after_ms=(
                    None
                    if f.get("rejoin_after_ms") is None
                    else float(f["rejoin_after_ms"])
                ),
            )
            for f in spec.get("failures", ())
        ]
        slowdowns = [
            CpuSlowdown(
                phone_id=str(s["phone_id"]),
                start_ms=float(s["start_ms"]),
                factor=float(s["factor"]),
                duration_ms=(
                    None
                    if s.get("duration_ms") is None
                    else float(s["duration_ms"])
                ),
            )
            for s in spec.get("slowdowns", ())
        ]
        bandwidth = [
            BandwidthDegradation(
                phone_id=str(b["phone_id"]),
                start_ms=float(b["start_ms"]),
                factor=float(b["factor"]),
                duration_ms=(
                    None
                    if b.get("duration_ms") is None
                    else float(b["duration_ms"])
                ),
            )
            for b in spec.get("bandwidth", ())
        ]
        crashes = [
            TaskCrash(phone_id=str(c["phone_id"]), time_ms=float(c["time_ms"]))
            for c in spec.get("crashes", ())
        ]
        corruptions = [
            ResultCorruption(
                phone_id=str(c["phone_id"]), time_ms=float(c["time_ms"])
            )
            for c in spec.get("corruptions", ())
        ]
        return cls(
            failures=failures,
            slowdowns=slowdowns,
            bandwidth=bandwidth,
            crashes=crashes,
            corruptions=corruptions,
        )


@dataclass(frozen=True)
class ResiliencePolicy:
    """The central server's defensive configuration.

    The default constructor disables every defence — the server then
    behaves exactly like the paper's prototype.  :meth:`hardened`
    returns the recommended all-defences-on profile.

    Parameters
    ----------
    straggler_factor:
        Flag an execution as a straggler once it has run longer than
        this multiple of its predicted time (None disables detection,
        and with it speculation).
    speculate:
        On straggler detection, launch a backup copy of the partition
        on an idle phone; first result wins, the loser is cancelled.
    dispatch_timeout_factor:
        Abort any copy/execute operation that exceeds this multiple of
        its *expected* duration (server-side belief), then retry with
        backoff (None disables timeouts).
    max_retries:
        Retry budget per partition across timeouts, crashes, and
        verification mismatches; exhausting it sends the partition to
        the failed-task list for next-round rescheduling.
    retry_backoff_ms / backoff_multiplier:
        First retry waits ``retry_backoff_ms``; each further retry
        multiplies the wait by ``backoff_multiplier``.
    verify_results:
        Re-execute every completed partition on a second phone and
        compare payloads before crediting the result; mismatches
        quarantine the partition (both copies discarded, retried).
    """

    straggler_factor: float | None = None
    speculate: bool = False
    dispatch_timeout_factor: float | None = None
    max_retries: int = 0
    retry_backoff_ms: float = 1_000.0
    backoff_multiplier: float = 2.0
    verify_results: bool = False

    def __post_init__(self) -> None:
        if self.straggler_factor is not None and self.straggler_factor <= 1.0:
            raise ValueError(
                f"straggler_factor must be > 1, got {self.straggler_factor!r}"
            )
        if (
            self.dispatch_timeout_factor is not None
            and self.dispatch_timeout_factor <= 1.0
        ):
            raise ValueError(
                "dispatch_timeout_factor must be > 1, got "
                f"{self.dispatch_timeout_factor!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.retry_backoff_ms < 0:
            raise ValueError(
                f"retry_backoff_ms must be >= 0, got {self.retry_backoff_ms!r}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier!r}"
            )
        if self.speculate and self.straggler_factor is None:
            raise ValueError(
                "speculation needs straggler detection: set straggler_factor"
            )

    @classmethod
    def hardened(cls, *, verify_results: bool = False) -> "ResiliencePolicy":
        """The recommended defensive profile.

        Straggler detection at 2x prediction with speculation, dispatch
        timeouts at 8x expectation, three retries with exponential
        backoff.  Verification stays opt-in — it doubles execution work.
        """
        return cls(
            straggler_factor=2.0,
            speculate=True,
            dispatch_timeout_factor=8.0,
            max_retries=3,
            retry_backoff_ms=1_000.0,
            backoff_multiplier=2.0,
            verify_results=verify_results,
        )

    @property
    def active(self) -> bool:
        """Whether any defence beyond the paper's baseline is enabled."""
        return (
            self.straggler_factor is not None
            or self.dispatch_timeout_factor is not None
            or self.max_retries > 0
            or self.verify_results
        )


class ChaosMonkey:
    """Samples seeded chaos plans from per-fault-class rates.

    Rates are expressed per phone over the whole target window, so the
    expected number of faults scales with fleet size but not with how
    the window is subdivided.  Sampling draws from a caller-supplied
    ``random.Random``, making a single integer seed reproduce the whole
    plan.

    Parameters
    ----------
    flap_probability:
        Chance a phone flaps (one fail/rejoin cycle, possibly several).
    max_flap_cycles:
        Upper bound on fail/rejoin cycles for a flapping phone.
    straggler_probability / straggler_factor_range:
        Chance a phone becomes a mid-run straggler, and the uniform
        range its slowdown factor is drawn from.
    bandwidth_probability / bandwidth_factor_range:
        Same, for link degradation.
    crash_rate / corruption_rate:
        Expected number of task crashes / corrupted results per phone
        over the window (each draw is Bernoulli per unit).
    online_fraction:
        Share of sampled unplugs that are clean (online) failures.
    """

    def __init__(
        self,
        *,
        flap_probability: float = 0.0,
        max_flap_cycles: int = 2,
        flap_down_range_ms: tuple[float, float] = (60_000.0, 300_000.0),
        flap_up_range_ms: tuple[float, float] = (60_000.0, 300_000.0),
        straggler_probability: float = 0.0,
        straggler_factor_range: tuple[float, float] = (2.0, 8.0),
        bandwidth_probability: float = 0.0,
        bandwidth_factor_range: tuple[float, float] = (2.0, 10.0),
        crash_rate: float = 0.0,
        corruption_rate: float = 0.0,
        online_fraction: float = 0.9,
    ) -> None:
        for name, p in (
            ("flap_probability", flap_probability),
            ("straggler_probability", straggler_probability),
            ("bandwidth_probability", bandwidth_probability),
            ("online_fraction", online_fraction),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
        if max_flap_cycles < 1:
            raise ValueError(
                f"max_flap_cycles must be >= 1, got {max_flap_cycles!r}"
            )
        if crash_rate < 0 or corruption_rate < 0:
            raise ValueError("crash_rate and corruption_rate must be >= 0")
        for name, (low, high) in (
            ("flap_down_range_ms", flap_down_range_ms),
            ("flap_up_range_ms", flap_up_range_ms),
            ("straggler_factor_range", straggler_factor_range),
            ("bandwidth_factor_range", bandwidth_factor_range),
        ):
            if not 0.0 < low <= high:
                raise ValueError(
                    f"{name} must satisfy 0 < low <= high, got {(low, high)!r}"
                )
        self._flap_probability = flap_probability
        self._max_flap_cycles = max_flap_cycles
        self._flap_down = flap_down_range_ms
        self._flap_up = flap_up_range_ms
        self._straggler_probability = straggler_probability
        self._straggler_factors = straggler_factor_range
        self._bandwidth_probability = bandwidth_probability
        self._bandwidth_factors = bandwidth_factor_range
        self._crash_rate = crash_rate
        self._corruption_rate = corruption_rate
        self._online_fraction = online_fraction

    def sample_plan(
        self,
        phone_ids: Sequence[str],
        *,
        duration_ms: float,
        rng: random.Random,
    ) -> ChaosPlan:
        """Sample one night's chaos over ``duration_ms`` for the fleet."""
        if duration_ms <= 0:
            raise ValueError(f"duration_ms must be > 0, got {duration_ms!r}")
        failures: list[PlannedFailure] = []
        slowdowns: list[CpuSlowdown] = []
        bandwidth: list[BandwidthDegradation] = []
        crashes: list[TaskCrash] = []
        corruptions: list[ResultCorruption] = []
        for phone_id in phone_ids:
            if rng.random() < self._flap_probability:
                cycles = rng.randint(1, self._max_flap_cycles)
                time_ms = rng.uniform(0.0, duration_ms * 0.5)
                for _ in range(cycles):
                    down = rng.uniform(*self._flap_down)
                    up = rng.uniform(*self._flap_up)
                    failures.append(
                        PlannedFailure(
                            phone_id=phone_id,
                            time_ms=time_ms,
                            online=rng.random() < self._online_fraction,
                            rejoin_after_ms=down,
                        )
                    )
                    time_ms += down + up
            if rng.random() < self._straggler_probability:
                start = rng.uniform(0.0, duration_ms * 0.5)
                slowdowns.append(
                    CpuSlowdown(
                        phone_id=phone_id,
                        start_ms=start,
                        factor=rng.uniform(*self._straggler_factors),
                        duration_ms=rng.uniform(
                            duration_ms * 0.1, duration_ms * 0.5
                        ),
                    )
                )
            if rng.random() < self._bandwidth_probability:
                start = rng.uniform(0.0, duration_ms * 0.5)
                bandwidth.append(
                    BandwidthDegradation(
                        phone_id=phone_id,
                        start_ms=start,
                        factor=rng.uniform(*self._bandwidth_factors),
                        duration_ms=rng.uniform(
                            duration_ms * 0.1, duration_ms * 0.5
                        ),
                    )
                )
            for _ in range(self._poisson_like(self._crash_rate, rng)):
                crashes.append(
                    TaskCrash(
                        phone_id=phone_id,
                        time_ms=rng.uniform(0.0, duration_ms),
                    )
                )
            for _ in range(self._poisson_like(self._corruption_rate, rng)):
                corruptions.append(
                    ResultCorruption(
                        phone_id=phone_id,
                        time_ms=rng.uniform(0.0, duration_ms),
                    )
                )
        return ChaosPlan(
            failures=failures,
            slowdowns=slowdowns,
            bandwidth=bandwidth,
            crashes=crashes,
            corruptions=corruptions,
        )

    @staticmethod
    def _poisson_like(rate: float, rng: random.Random) -> int:
        """Integer draw with mean ``rate`` (whole part + Bernoulli tail)."""
        count = int(rate)
        if rng.random() < rate - count:
            count += 1
        return count
