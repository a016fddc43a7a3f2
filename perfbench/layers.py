"""Per-layer spans recorded from outside the program.

The traced run wraps each layer's public entry point in a span (name,
start, end, parent) and counts work at the same boundaries.  Nothing
inside the program changes: the wrappers are installed on the classes
and modules after set-up and removed before the correctness gate.
Spans use the plain-dict form :func:`repro.obs.profile.self_time_table`
consumes, so a layer's self time is its spans' durations minus the
part their direct child spans cover.

Pod solves that run on the sharded scheduler's process pool happen in
forked workers, whose spans never reach this process; their time comes
from the scheduler's own ``pod_reports`` (``pod.solve_ms_*``) instead.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter

#: (module, attribute path, layer) of every wrapped entry point.
ENTRY_POINTS = (
    ("repro.sim.campaign", "ContinuousCampaign.run", "campaign"),
    ("repro.sim.server", "CentralServer.run", "server"),
    ("repro.sim.engine", "EventLoop.run", "engine"),
    ("repro.core.instance", "SchedulingInstance.build", "instance"),
    ("repro.core.greedy", "CwcScheduler.schedule", "greedy"),
    ("repro.core.sharding", "ShardedScheduler.schedule", "sharding"),
    ("repro.core.sharding", "solve_pod", "pod"),
    ("repro.core.lp_bound", "solve_pod_relaxed_makespan", "lp_bound"),
    ("repro.core.capacity", "CapacitySearch.run", "capacity"),
    ("repro.core.schedule", "Schedule.validate", "schedule"),
    ("repro.durability.snapshot", "SnapshotStore.save", "snapshot"),
)

_SCHEDULER_LAYERS = ("greedy", "sharding")


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class LayerTracer:
    """Wraps the entry points and accumulates spans and counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.schedule_ms: list[float] = []
        self.pod_solve_ms_max = 0.0
        self._stack: list[int] = []
        self._scheduler_depth = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, path, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = vars(owner)[attr]
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, layer))
        from repro.sim.engine import EventLoop

        raw = vars(EventLoop)["schedule_at"]
        self._installed.append((EventLoop, "schedule_at", raw))
        counts = self.counts

        def schedule_at(loop, time_ms, action):
            counts["engine.events_scheduled"] += 1
            return raw(loop, time_ms, action)

        EventLoop.schedule_at = schedule_at

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw, layer: str):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, layer))
        is_scheduler = layer in _SCHEDULER_LAYERS
        after = (
            self._after_scheduler
            if is_scheduler
            else getattr(self, f"_after_{layer}", None)
        )
        pid = os.getpid()

        def wrapper(*args, **kwargs):
            if os.getpid() != pid:  # a forked pod worker: not traced here
                return raw(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span_id = len(self.spans)
            span = {
                "span_id": span_id,
                "parent_id": parent,
                "name": layer,
                "category": "perfbench",
                "start_wall_s": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span_id)
            if is_scheduler:
                self._scheduler_depth += 1
            try:
                result = raw(*args, **kwargs)
            finally:
                span["end_wall_s"] = time.perf_counter()
                self._stack.pop()
                if is_scheduler:
                    self._scheduler_depth -= 1
            self.counts[f"{layer}.calls"] += 1
            if after is not None:
                after(args, result, span["end_wall_s"] - span["start_wall_s"])
            return result

        wrapper.__wrapped__ = raw
        return wrapper

    # -- counters read at the boundaries ------------------------------------

    def _after_scheduler(self, args, result, wall_s: float) -> None:
        if self._scheduler_depth:  # a sharded round delegating inward
            return
        self.schedule_ms.append(wall_s * 1000.0)
        result = args[0].last_result  # the search behind the schedule
        counts = self.counts
        counts["capacity.packer_passes"] += result.packer_passes
        counts["capacity.bisection_steps"] += result.bisection_steps
        counts["capacity.shortcircuit_skips"] += result.shortcircuit_skips
        if hasattr(result, "pod_solve_ms_sum") and result.pods > 1:
            counts["pod.solve_ms_sum"] += result.pod_solve_ms_sum
            counts["sharding.rebalance_moves"] += result.rebalance_moves
            self.pod_solve_ms_max = max(
                self.pod_solve_ms_max, result.pod_solve_ms_max
            )

    def _after_server(self, args, result, wall_s: float) -> None:
        counts = self.counts
        counts["server.rounds"] += len(result.rounds)
        counts["server.completions"] += len(result.trace.completions)
        counts["server.failures"] += len(result.trace.failures)

    def _after_snapshot(self, args, result, wall_s: float) -> None:
        self.counts["snapshot.bytes"] += os.path.getsize(result.path)

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer seconds and counts of one traced run of ``wall_s``."""
        from repro.obs.profile import self_time_table

        self_s = {layer: 0.0 for _, _, layer in ENTRY_POINTS}
        total_s = dict(self_s)
        for row in self_time_table(self.spans):
            self_s[row.name] = row.self_ms / 1000.0
            total_s[row.name] = row.total_ms / 1000.0
        counts = self.counts
        return {
            "instance.build_s": total_s["instance"],
            "instance.build_calls": counts["instance.calls"],
            "capacity.search_s": total_s["capacity"],
            "capacity.packer_passes": counts["capacity.packer_passes"],
            "capacity.bisection_steps": counts["capacity.bisection_steps"],
            "capacity.shortcircuit_skips": counts["capacity.shortcircuit_skips"],
            "scheduler.schedule_s": sum(self.schedule_ms) / 1000.0,
            "scheduler.calls": len(self.schedule_ms),
            "scheduler.schedule_ms_p50": _percentile(self.schedule_ms, 0.50),
            "scheduler.schedule_ms_p99": _percentile(self.schedule_ms, 0.99),
            "schedule.validate_s": total_s["schedule"],
            "lp.certify_s": total_s["lp_bound"],
            "lp.calls": counts["lp_bound.calls"],
            "pod.solve_ms_max": self.pod_solve_ms_max,
            "pod.solve_ms_sum": counts["pod.solve_ms_sum"],
            "sharding.self_s": self_s["sharding"],
            "sharding.rebalance_moves": counts["sharding.rebalance_moves"],
            "engine.loop_self_s": self_s["engine"],
            "engine.events_scheduled": counts["engine.events_scheduled"],
            "server.self_s": self_s["server"],
            "server.rounds": counts["server.rounds"],
            "server.completions": counts["server.completions"],
            "server.failures": counts["server.failures"],
            "campaign.night_self_s": self_s["campaign"],
            "snapshot.save_s": total_s["snapshot"],
            "snapshot.saves": counts["snapshot.calls"],
            "snapshot.bytes": counts["snapshot.bytes"],
            "trace.explained_fraction": sum(self_s.values()) / wall_s,
        }


#: Per-layer metrics that are exact counts: identical on every run of a
#: seed, and folded into the traced run's consistency check.
EXACT_COUNTS = (
    "instance.build_calls",
    "capacity.packer_passes",
    "capacity.bisection_steps",
    "capacity.shortcircuit_skips",
    "scheduler.calls",
    "lp.calls",
    "sharding.rebalance_moves",
    "engine.events_scheduled",
    "server.rounds",
    "server.completions",
    "server.failures",
    "snapshot.saves",
    "snapshot.bytes",
)
