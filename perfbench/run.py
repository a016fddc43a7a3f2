"""Fleet-night benchmark: end-to-end and per-layer metrics of CWC nights.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sharded_night --seed 2012 --seconds 60 --trace 0

Workloads (all batch runs; arrivals are stamped in simulated time, so
there is no wall-clock load generator):

* ``fleet_night`` -- 1000 phones x 5000 jobs through one
  ``CentralServer.run`` with the monolithic warm-started scheduler;
* ``sharded_night`` -- the same inputs through the 4-pod sharded
  scheduler with LP certification on;
* ``campaign_month`` -- a 30-night continuous campaign with churn and
  a checkpoint after every night.

Each repetition runs in a fresh worker process (:mod:`perfbench.worker`)
pinned to one CPU; processes it forks may use every CPU, and
``REPRO_CPUS`` keeps pool sizes what the unpinned process would pick.
A seed names a fixed list of input instances (``INSTANCES``);
``--trace 0`` runs them in turn, cycling, for as many repetitions as
``--seconds`` holds.  ``--trace 1`` alternates untraced and traced
repetitions of the seed's first instance and reports the per-layer
metrics, the tracing overhead and how much of the traced wall time the
named layers explain.

Times are reference seconds.  A probe (:mod:`perfbench.probe`) times a
fixed snippet on the workers' CPU every 20 ms for the whole run, and
each wall-clock span counts at the speed the probe saw during it
(:class:`HostSpeed`), so the load other tenants put on a shared host
moves the figures far less than it moves wall times.  The end-to-end
metrics are ``setup_s`` (median over repetitions), ``jobs_per_s`` (the
instances' jobs over the sum of each instance's median run time),
``first_schedule_s`` (median over every night's round-0 solve) and
``peak_rss_mb`` (median).

Every repetition passes the correctness gate (oracle, job accounting,
certified bound, checkpoints) and yields a fingerprint of its schedule,
exact counters and quality metrics.  Repetitions of one instance must
agree on it, and so must any fingerprint pinned in
``perfbench/fingerprints.json`` for that seed.  The last line of stdout
is one JSON object: ``correct``, ``attempted`` and ``failed``
(repetitions), and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT))

#: Default workload seed; ``HELD_OUT_SEED`` is kept out of tuning so a
#: later gain can be rechecked on inputs nobody tuned against.
DEFAULT_SEED = 2012
HELD_OUT_SEED = 4099

#: Distinct input instances a seed expands to, per workload: enough to
#: average out how much work an instance holds, few enough that each
#: runs at least once in a 60 s run on a loaded host.
INSTANCES = {"fleet_night": 3, "sharded_night": 3, "campaign_month": 10}

#: Fewest host-speed probe samples a run may be measured with.
MIN_PROBE_SAMPLES = 20

#: Hard cap on one run's wall time; a run must end within 180 s.
RUN_BUDGET_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "first_schedule_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY = {
    "makespan_s": "s",
    "prediction_error": "ratio",
    "jobs_failed_fraction": "fraction",
    "shard_bound_ratio": "ratio",
}
PER_LAYER = {
    "instance.build_s": "s",
    "instance.build_calls": "count",
    "capacity.search_s": "s",
    "capacity.packer_passes": "count",
    "capacity.bisection_steps": "count",
    "capacity.shortcircuit_skips": "count",
    "scheduler.schedule_s": "s",
    "scheduler.calls": "count",
    "scheduler.schedule_ms_p50": "ms",
    "scheduler.schedule_ms_p99": "ms",
    "schedule.validate_s": "s",
    "lp.certify_s": "s",
    "lp.calls": "count",
    "pod.solve_ms_max": "ms",
    "pod.solve_ms_sum": "ms",
    "sharding.self_s": "s",
    "sharding.rebalance_moves": "count",
    "engine.loop_self_s": "s",
    "engine.events_scheduled": "count",
    "server.self_s": "s",
    "server.rounds": "count",
    "server.completions": "count",
    "server.failures": "count",
    "campaign.night_self_s": "s",
    "snapshot.save_s": "s",
    "snapshot.saves": "count",
    "snapshot.bytes": "bytes",
    "trace.overhead_fraction": "fraction",
    "trace.explained_fraction": "fraction",
    **QUALITY,
}


class HostSpeed:
    """Converts wall spans on the probed CPU into reference-core seconds.

    The probe times the same snippet all run long.  A sample's factor,
    ``REFERENCE_PROBE_S`` over its own time (the median of it and its two
    neighbours, so one interrupted sample does not count), holds from
    halfway since the previous sample to halfway to the next; a span's
    reference seconds are the integral of the factor over it.  Work on a
    core that runs the snippet at 65% of the reference speed for one
    second thus counts 0.65 s.  The times then follow the program, not
    the load of other tenants of a shared host, which flips a core's
    speed within seconds and shifts it by 15% over minutes.
    """

    #: Probe snippet time of the reference core: about a 2-vCPU Xeon
    #: host at full speed.
    REFERENCE_PROBE_S = 150e-6

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        samples = sorted(samples)
        durations = [duration for _, duration in samples]
        self.probe_s = statistics.median(durations)
        centres = [began + duration / 2 for began, duration in samples]
        #: Sample ``i`` holds from ``edges[i - 1]`` to ``edges[i]``.
        self._edges = [(a + b) / 2 for a, b in zip(centres, centres[1:])]
        self._factors = [
            self.REFERENCE_PROBE_S
            / statistics.median(durations[max(0, i - 1) : i + 2])
            for i in range(len(durations))
        ]

    def seconds(self, begin: float, end: float) -> float:
        """Reference seconds in the ``perf_counter`` span ``[begin, end]``."""
        i = bisect.bisect_right(self._edges, begin)
        total = 0.0
        while True:
            edge = self._edges[i] if i < len(self._edges) else math.inf
            total += (min(edge, end) - begin) * self._factors[i]
            if edge >= end:
                return total
            begin = edge
            i += 1

    def describe(self, reports: list[dict]) -> str:
        wall = sum(r["spans"]["run"][1] - r["spans"]["run"][0] for r in reports)
        reference = sum(self.seconds(*r["spans"]["run"]) for r in reports)
        return (
            f"probe median {self.probe_s * 1e6:.1f} us over "
            f"{len(self._factors)} samples; timed runs at "
            f"{reference / wall if wall else 1.0:.3f} of the reference speed"
        )


class Repetitions:
    """Runs worker processes and keeps their reports and failures."""

    def __init__(
        self, workload: str, workdir: str, started: float, cpu: int, cpus: int
    ) -> None:
        self.workload = workload
        self.cpu = cpu
        self.cpus = cpus
        self.workdir = workdir
        self.started = started
        self.reports: list[dict] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.longest_s = 0.0
        #: First passing report of each instance seed, in run order.
        self.instances: dict[int, dict] = {}
        self._pinned = _pinned_fingerprints().get(workload, {})

    def remaining_s(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def fits(self, seconds: int, count: int) -> bool:
        """Whether ``count`` more repetitions end within ``seconds``."""
        if not self.attempted:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + count * self.longest_s <= min(seconds, RUN_BUDGET_S)

    def run(self, instance_seed: int, trace: int) -> dict | None:
        """One repetition; ``None`` (and a recorded error) on failure."""
        self.attempted += 1
        began = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env["PYTHONHASHSEED"] = "0"
        # Pinning the worker must not shrink the pools it sizes.
        env.setdefault("REPRO_CPUS", str(self.cpus))
        command = [
            sys.executable,
            str(ROOT / "perfbench" / "worker.py"),
            "--workload", self.workload,
            "--seed", str(instance_seed),
            "--trace", str(trace),
            "--workdir", self.workdir,
            "--cpu", str(self.cpu),
        ]
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=max(1.0, self.remaining_s()))
        except subprocess.TimeoutExpired:
            # The whole group: a sharded night's pod pool runs in children.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return self._fail(f"instance {instance_seed}: timed out")
        finally:
            self.longest_s = max(self.longest_s, time.perf_counter() - began)
        if process.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no output"]
            return self._fail(
                f"instance {instance_seed}: worker exited "
                f"{process.returncode}: {tail[0]}"
            )
        report = json.loads(out.strip().splitlines()[-1])
        problems = list(report["errors"])
        problems.extend(self._check_fingerprint(instance_seed, report))
        if problems:
            return self._fail(f"instance {instance_seed}: " + "; ".join(problems))
        report["instance"] = instance_seed
        self.reports.append(report)
        self.instances.setdefault(instance_seed, report)
        print(
            f"  {self.workload} instance {instance_seed} trace={trace}: "
            f"wall {report['wall_s']:.3f}s setup {report['setup_s']:.3f}s "
            f"jobs {report['jobs_completed']} "
            f"fingerprint {report['fingerprint'][:16]}",
            file=sys.stderr,
        )
        return report

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"  FAILED {message}", file=sys.stderr)
        return None

    def _check_fingerprint(self, instance_seed: int, report: dict) -> list[str]:
        digest = report["fingerprint"]
        earlier = self.instances.get(instance_seed)
        expected = digest if earlier is None else earlier["fingerprint"]
        pinned = self._pinned.get(str(instance_seed), expected)
        problems = []
        if digest != expected:
            problems.append(f"fingerprint {digest[:16]} != earlier {expected[:16]}")
        if digest != pinned:
            problems.append(f"fingerprint {digest[:16]} != pinned {pinned[:16]}")
        return problems


def _pinned_fingerprints() -> dict:
    path = ROOT / "perfbench" / "fingerprints.json"
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def instance_seeds(workload: str, seed: int) -> list[int]:
    from perfbench.workloads import derive_seed

    return [
        derive_seed(seed, "instance", slot) for slot in range(INSTANCES[workload])
    ]


def run_untraced(reps: Repetitions, seeds: list[int], seconds: int) -> None:
    """The seed's instances in turn, for as many as ``seconds`` holds."""
    slot = 0
    while reps.fits(seconds, 1):
        reps.run(seeds[slot % len(seeds)], trace=0)
        slot += 1


def untraced_metrics(reps: Repetitions, speed: HostSpeed) -> dict:
    """End-to-end metrics, every time in reference seconds."""
    if not reps.reports:
        return {}
    by_instance: dict[int, list[dict]] = {}
    for report in reps.reports:
        by_instance.setdefault(report["instance"], []).append(report)
    jobs = 0
    busy_s = 0.0
    for runs in by_instance.values():
        jobs += runs[0]["jobs_completed"]
        busy_s += statistics.median(
            speed.seconds(*run["spans"]["run"]) for run in runs
        )
    return {
        "setup_s": statistics.median(
            speed.seconds(*report["spans"]["setup"]) for report in reps.reports
        ),
        "jobs_per_s": jobs / busy_s,
        "first_schedule_s": statistics.median(
            speed.seconds(*span)
            for report in reps.reports
            for span in report["spans"]["first_schedule"]
        ),
        "peak_rss_mb": statistics.median(
            report["peak_rss_mb"] for report in reps.reports
        ),
    }


def run_traced(reps: Repetitions, seeds: list[int], seconds: int) -> None:
    """Alternating untraced/traced pairs of the first instance."""
    pair = 0
    while reps.fits(seconds, 2):
        for trace in (0, 1) if pair % 2 == 0 else (1, 0):
            reps.run(seeds[0], trace=trace)
        pair += 1


def traced_metrics(reps: Repetitions, speed: HostSpeed) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    from perfbench.layers import EXACT_COUNTS

    traced = [report for report in reps.reports if "layers" in report]
    plain = [report for report in reps.reports if "layers" not in report]
    if not traced or not plain:
        return {}
    first = traced[0]["layers"]
    for report in traced[1:]:
        for name in EXACT_COUNTS:
            if report["layers"][name] != first[name]:
                reps.errors.append(
                    f"{name}: {report['layers'][name]} != {first[name]}"
                )
    metrics = {
        name: statistics.median(report["layers"][name] for report in traced)
        for name in first
    }
    metrics.update({name: first[name] for name in EXACT_COUNTS})
    traced_s, plain_s = (
        statistics.median(speed.seconds(*run["spans"]["run"]) for run in group)
        for group in (traced, plain)
    )
    metrics["trace.overhead_fraction"] = traced_s / plain_s - 1
    quality = traced[0]["quality"]
    for name in QUALITY:
        metrics[name] = quality.get(name, 0.0)
    return metrics


def _start_probe(cpu: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), "--cpu", str(cpu)],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def _stop_probe(probe: subprocess.Popen) -> list[tuple[float, float]]:
    """Close the probe's stdin and collect its samples ([] on failure)."""
    try:
        out, _ = probe.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        return []
    try:
        return [tuple(sample) for sample in json.loads(out)]
    except ValueError:
        return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fleet-night benchmark (see the module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT} is not a checkout of the repository "
            "(src/repro is missing); run from its root",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    started = time.perf_counter()
    seeds = instance_seeds(args.workload, args.seed)
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    probe = _start_probe(cpu)
    try:
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        reps = Repetitions(args.workload, workdir, started, cpu, len(cpus))
        try:
            (run_traced if args.trace else run_untraced)(reps, seeds, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        samples = _stop_probe(probe)

    values: dict = {}
    if len(samples) < MIN_PROBE_SAMPLES:
        reps.errors.append(f"host-speed probe gave {len(samples)} samples")
    else:
        speed = HostSpeed(samples)
        metrics = traced_metrics if args.trace else untraced_metrics
        values = metrics(reps, speed)
        print(f"host {speed.describe(reps.reports)}")
    units = PER_LAYER if args.trace else END_TO_END
    correct = not reps.errors and set(values) >= set(units)
    _print_report(args, reps, values, units)
    result = {
        "correct": correct,
        "attempted": max(1, reps.attempted),
        "failed": reps.failed if reps.attempted else 1,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


def _print_report(args, reps: Repetitions, values: dict, units: dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(
        f"perfbench {args.workload} seed={args.seed} mode={mode} "
        f"repetitions={len(reps.reports)}/{reps.attempted}"
    )
    if reps.reports:
        print("context " + json.dumps(reps.reports[0]["context"], sort_keys=True))
    for seed, report in reps.instances.items():
        print(
            f"instance {seed} fingerprint {report['fingerprint']} "
            f"counters {json.dumps(report['counters'], sort_keys=True)} "
            f"quality {json.dumps(report['quality'], sort_keys=True)}"
        )
    shown = dict(units)
    if not args.trace and reps.instances:
        # Deterministic per instance: the median over the seed's instances.
        for name, unit in QUALITY.items():
            per_instance = [
                report["quality"][name]
                for report in reps.instances.values()
                if name in report["quality"]
            ]
            if per_instance:
                values = {**values, name: statistics.median(per_instance)}
                shown[name] = unit
    for name, unit in shown.items():
        if name in values:
            print(f"  {name:<30} {values[name]:>16.6g} {unit}")
    for error in reps.errors:
        print(f"error: {error}")


if __name__ == "__main__":
    sys.exit(main())
