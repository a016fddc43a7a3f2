"""CWC's core contribution: makespan scheduling for smartphone fleets.

Public surface:

* data model — :class:`Job`, :class:`JobKind`, :class:`PhoneSpec`,
  :class:`NetworkTechnology`, :func:`completion_time`;
* prediction — :class:`TaskProfile`, :class:`RuntimePredictor`;
* instances and schedules — :class:`SchedulingInstance`,
  :class:`Schedule`, :class:`Assignment`;
* schedulers — :class:`CwcScheduler` (the paper's greedy CBP scheduler),
  :class:`ShardedScheduler` (pod-parallel CWC for large fleets),
  :class:`EqualSplitScheduler` and :class:`RoundRobinScheduler`
  (the evaluation baselines);
* bounds — :func:`solve_pod_relaxed_makespan` (the LP lower bound over
  phone pods) and :func:`solve_relaxed_makespan` (its one-phone-pod
  case, the exact Fig. 13 bound);
* failure handling — :class:`FailedTaskList`, :class:`Checkpoint`.
"""

from .availability import AvailabilityAwareScheduler
from .baselines import EqualSplitScheduler, RoundRobinScheduler
from .constraints import RamConstraint, validate_ram
from .capacity import (
    CapacitySearch,
    CapacitySearchResult,
    capacity_bounds,
    resolve_kernel,
)
from .greedy import CwcScheduler, Scheduler
from .instance import SchedulingInstance
from .lp_bound import (
    RelaxedSolution,
    solve_pod_relaxed_makespan,
    solve_relaxed_makespan,
)
from .migration import Checkpoint, FailedTaskList, FailureKind
from .model import (
    MIN_PARTITION_KB,
    Job,
    JobKind,
    NetworkTechnology,
    PhoneSpec,
    completion_time,
)
from .packing import GreedyPacker, PackingResult
from .packing_vec import VectorGreedyPacker
from .pod import PodSolveReport, PodSpec
from .prediction import RuntimePredictor, TaskProfile
from .sharding import ShardedScheduler, ShardedSearchResult
from .whatif import makespan_by_fleet_size, minimum_fleet_size
from .serialize import (
    instance_from_dict,
    instance_to_dict,
    job_from_dict,
    job_to_dict,
    phone_from_dict,
    phone_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from .schedule import (
    Assignment,
    InfeasibleScheduleError,
    Schedule,
    ScheduleBuilder,
)

__all__ = [
    "MIN_PARTITION_KB",
    "Assignment",
    "AvailabilityAwareScheduler",
    "RamConstraint",
    "validate_ram",
    "instance_from_dict",
    "instance_to_dict",
    "job_from_dict",
    "job_to_dict",
    "phone_from_dict",
    "phone_to_dict",
    "schedule_from_dict",
    "schedule_to_dict",
    "CapacitySearch",
    "CapacitySearchResult",
    "Checkpoint",
    "CwcScheduler",
    "EqualSplitScheduler",
    "FailedTaskList",
    "FailureKind",
    "GreedyPacker",
    "InfeasibleScheduleError",
    "Job",
    "JobKind",
    "NetworkTechnology",
    "PackingResult",
    "PhoneSpec",
    "PodSolveReport",
    "PodSpec",
    "RelaxedSolution",
    "RoundRobinScheduler",
    "RuntimePredictor",
    "Schedule",
    "ScheduleBuilder",
    "Scheduler",
    "SchedulingInstance",
    "ShardedScheduler",
    "ShardedSearchResult",
    "TaskProfile",
    "VectorGreedyPacker",
    "capacity_bounds",
    "completion_time",
    "makespan_by_fleet_size",
    "minimum_fleet_size",
    "resolve_kernel",
    "solve_pod_relaxed_makespan",
    "solve_relaxed_makespan",
]
