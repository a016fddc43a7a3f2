"""Command-line interface: ``python -m repro <command>``.

Nine commands cover the operator workflows:

* ``experiments`` — run paper-figure drivers, print their reports, and
  optionally write a markdown report;
* ``schedule`` — compute a schedule for a fleet + job queue given as
  JSON files (the deployable path: measure, schedule, ship);
* ``study`` — generate a synthetic charging-behaviour study and print
  the Figure 2 summary (optionally writing the raw logs);
* ``simulate`` — run the full 18-phone prototype simulation, with
  optional random unplug failures or a full chaos plan (``--chaos`` /
  ``--chaos-seed``), optional server hardening (``--harden`` /
  ``--verify``), and print the night's summary plus, when chaos or
  defences are in play, the resilience report; ``--nights N`` switches
  to a multi-night continuous campaign with night-boundary checkpoints
  (``--checkpoint-dir`` / ``--resume`` / ``--kill-after-night``),
  fleet churn (``--churn``), and a capacity-planning report;
* ``whatif`` — fleet sizing: how many phones meet a makespan deadline;
* ``power`` — charging curves under no-task / continuous / MIMD;
* ``report`` — render a telemetry RunReport bundle written by
  ``simulate --telemetry DIR`` (top-N slowest phones, fault counts,
  round-latency percentiles);
* ``trace`` — the span flight recorder: capture a traced fuzz
  scenario (``--seed``, optionally ``--pods N`` for the sharded
  scheduler), validate the span invariants and the Chrome trace-event
  export, print the top-N self-time table and optionally the critical
  path, and write ``trace.json`` + ``profile.txt`` (``--out DIR``);
  or point it at an existing bundle directory to render its
  ``trace.json``;
* ``fuzz`` — deterministic scenario fuzzing: seed-derived random
  fleets, job mixes, arrivals, and chaos plans run through the full
  simulation under the invariant oracle; failures shrink to minimal
  replayable ``fuzz-<seed>.json`` artifacts (``--replay``),
  ``--differential N`` cross-checks the packing kernels on N fuzzed
  instances, ``--sharded N`` cross-checks the pod-parallel scheduler
  against the monolithic one, and ``--crash-restore``
  kill/restore-drills each scenario through the durability layer,
  asserting byte-identical recovery.

``schedule`` and ``simulate`` share the scheduler flags:
``--scheduler``, ``--kernel``, ``--pods N|auto`` +
``--pod-assign lp|greedy|hash`` to shard the fleet into concurrently
solved pods (the greedy scheduler only; ``--pods 1`` is byte-identical
to the monolithic search), and ``--pod-workers N`` to size the pod
worker pool.  The greedy scheduler's flags build one
:class:`~repro.core.policies.SchedulerConfig`; a combination it
rejects exits 2.

Commands accept ``--output`` to write machine-readable results so they
can feed other tools.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .analysis.stats import EmpiricalCdf
from .core.baselines import EqualSplitScheduler, RoundRobinScheduler
from .core.instance import SchedulingInstance
from .core.policies import SchedulerConfig
from .core.prediction import RuntimePredictor, TaskProfile
from .core.serialize import (
    job_from_dict,
    phone_from_dict,
    schedule_to_dict,
)
from .experiments.registry import EXPERIMENTS, run_experiment
from .netmodel.measurement import measure_fleet
from .profiling.analysis import extract_intervals, night_day_split
from .profiling.behavior import generate_study
from .profiling.logs import serialize_log
from .sim.chaos import ChaosMonkey, ChaosPlan, ResiliencePolicy
from .sim.entities import FleetGroundTruth
from .sim.failures import FailurePlan, PlannedFailure
from .sim.metrics import compute_resilience_report
from .sim.server import CentralServer
from .workloads.mixes import (
    evaluation_workload,
    paper_task_profiles,
    paper_testbed,
)

__all__ = ["main", "build_parser"]

#: ``--scheduler`` baselines; ``greedy`` is built from a SchedulerConfig.
_BASELINES = {
    "equal-split": EqualSplitScheduler,
    "round-robin": RoundRobinScheduler,
}


class _UsageError(Exception):
    """Input the command cannot run with: ``main`` prints it, exits 2."""


#: Single-run ``simulate`` flags that ``--nights`` cannot honour.
_SINGLE_RUN_FLAGS = (
    "--scheduler", "--failures", "--chaos", "--chaos-seed",
    "--harden", "--verify", "--telemetry", "--trace",
)


def _positive_int(text: str) -> int:
    """A positive integer command-line value."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected >= 1, got {value}")
    return value


def _pods(text: str):
    """``--pods`` value: 'auto' or a positive int."""
    return text if text == "auto" else _positive_int(text)


def _add_scheduler_arguments(parser) -> None:
    """Scheduler choice and knobs shared by ``schedule`` and ``simulate``."""
    parser.add_argument(
        "--scheduler", choices=sorted(("greedy", *_BASELINES)),
        default="greedy",
    )
    parser.add_argument(
        "--kernel", choices=("auto", "python", "numpy"), default="auto",
        help="packing backend for the capacity search (greedy scheduler "
        "only; both produce byte-identical schedules, 'auto' picks by "
        "instance size)",
    )
    parser.add_argument(
        "--pods", type=_pods, metavar="N|auto",
        help="shard the fleet into N pods solved concurrently and "
        "coordinated by a global capacity search (greedy scheduler "
        "only; 'auto' sizes the pod count from the CPU budget, and "
        "--pods 1 is byte-identical to the monolithic scheduler)",
    )
    parser.add_argument(
        "--pod-assign", choices=("lp", "greedy", "hash"),
        default="greedy",
        help="job-to-pod splitter: LP-guided ('lp'), longest-"
        "processing-time greedy ('greedy', default), or stable "
        "hashing ('hash'); ignored without --pods",
    )
    parser.add_argument(
        "--pod-workers", type=_positive_int, metavar="N",
        help="solve pods on N worker processes (requires --pods; "
        "default: one per pod, capped by the CPU budget; 1 solves "
        "in-process); schedules are identical either way",
    )


def _scheduler_config(args, *, warm_start: bool) -> SchedulerConfig:
    """The greedy scheduler's config from the flags."""
    try:
        return SchedulerConfig(
            kernel=args.kernel,
            warm_start=warm_start,
            pods=args.pods,
            pod_assign=args.pod_assign,
            pod_workers=args.pod_workers or "auto",
        )
    except ValueError as exc:
        raise _UsageError(exc) from None


def _build_scheduler(args, config: SchedulerConfig, telemetry=None):
    """The ``--scheduler`` choice: the config's, or a baseline."""
    if args.scheduler == "greedy":
        return config.build(telemetry=telemetry)
    if config.warm_start or config.pods is not None:
        print(
            "note: --warm-start/--pods only apply to the greedy scheduler",
            file=sys.stderr,
        )
    return _BASELINES[args.scheduler]()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all four subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CWC (Computing While Charging) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="run paper-figure experiment drivers"
    )
    experiments.add_argument(
        "ids",
        nargs="*",
        help=f"experiment ids (default: all of {', '.join(sorted(EXPERIMENTS))})",
    )
    experiments.add_argument(
        "--output", help="additionally write a markdown report here"
    )

    schedule = sub.add_parser(
        "schedule", help="compute a schedule from fleet/jobs JSON files"
    )
    schedule.add_argument("--phones", required=True, help="phones JSON file")
    schedule.add_argument("--jobs", required=True, help="jobs JSON file")
    schedule.add_argument(
        "--b", help="optional {phone_id: b_ms_per_kb} JSON file; "
        "defaults to simulated bandwidth measurements by network type",
    )
    schedule.add_argument(
        "--profiles",
        help="optional {task: {base_ms_per_kb, base_mhz}} JSON file; "
        "defaults to the paper's task profiles",
    )
    _add_scheduler_arguments(schedule)
    schedule.add_argument("--output", help="write the schedule as JSON here")

    study = sub.add_parser(
        "study", help="generate a synthetic charging-behaviour study"
    )
    study.add_argument("--days", type=int, default=28)
    study.add_argument("--seed", type=int, default=31)
    study.add_argument("--output", help="write raw logs (TSV) here")

    simulate = sub.add_parser(
        "simulate", help="run the full prototype simulation"
    )
    simulate.add_argument("--seed", type=int, default=2012)
    simulate.add_argument(
        "--failures", type=int, default=0, help="random phones to unplug"
    )
    simulate.add_argument(
        "--chaos",
        help="chaos spec JSON file (the ChaosPlan.to_dict format): "
        "failures, slowdowns, bandwidth, crashes, corruptions",
    )
    simulate.add_argument(
        "--chaos-seed", type=int,
        help="sample a chaos plan from this seed (flapping, stragglers, "
        "degraded links, crashes, corruptions) and inject it",
    )
    simulate.add_argument(
        "--chaos-duration-s", type=float, default=600.0,
        help="window (seconds) a sampled chaos plan spreads its faults "
        "over (default: 600)",
    )
    simulate.add_argument(
        "--harden", action="store_true",
        help="enable the resilient server profile: straggler detection "
        "with speculation, dispatch timeouts, bounded retries",
    )
    simulate.add_argument(
        "--verify", action="store_true",
        help="verify every result by duplicate execution (implies --harden)",
    )
    simulate.add_argument(
        "--warm-start", action="store_true",
        help="warm-start each rescheduling instant's capacity search "
        "from the previous round's capacity (greedy scheduler only; "
        "schedules are unchanged, packer passes drop)",
    )
    _add_scheduler_arguments(simulate)
    simulate.add_argument("--output", help="write the run summary JSON here")
    simulate.add_argument(
        "--telemetry", metavar="DIR",
        help="arm the unified telemetry subsystem and write the "
        "RunReport bundle (report.json, events.jsonl, series CSVs, "
        "prometheus.txt) to DIR",
    )
    simulate.add_argument(
        "--trace", action="store_true",
        help="also arm the span tracer (requires --telemetry): the "
        "bundle gains trace.json (Chrome trace-event, Perfetto-"
        "loadable) and profile.txt (self-time table + critical path)",
    )
    simulate.add_argument(
        "--nights", type=int, metavar="N",
        help="run a continuous multi-night campaign (Poisson arrivals, "
        "fleet churn, night-boundary checkpoints) instead of a single "
        "run, and print the capacity-planning report",
    )
    simulate.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="durable snapshot store for night-boundary checkpoints "
        "(campaign mode only)",
    )
    simulate.add_argument(
        "--resume", action="store_true",
        help="restore the latest campaign checkpoint from "
        "--checkpoint-dir and continue instead of starting over",
    )
    simulate.add_argument(
        "--kill-after-night", type=int, metavar="K",
        help="crash drill: abort the campaign after night K completes "
        "and its checkpoint is durable (resume later with --resume)",
    )
    simulate.add_argument(
        "--churn", action="store_true",
        help="enable nightly fleet churn: departures, enrollments, "
        "charging-habit drift (campaign mode only)",
    )
    simulate.add_argument(
        "--arrival-rate", type=float, default=40.0, metavar="PER_HOUR",
        help="Poisson rate shaping how the night's jobs spread over "
        "the charging window (campaign mode; default: 40/h)",
    )
    simulate.add_argument(
        "--jobs-per-night", type=int, default=12, metavar="N",
        help="jobs entering the stream each night (campaign mode; "
        "default: 12) — the capacity-planning volume knob",
    )

    report_cmd = sub.add_parser(
        "report", help="render a telemetry RunReport bundle"
    )
    report_cmd.add_argument(
        "run_dir", help="bundle directory written by simulate --telemetry"
    )
    report_cmd.add_argument(
        "--top", type=int, default=5,
        help="slowest phones to list (default: 5)",
    )
    report_cmd.add_argument(
        "--no-validate", action="store_true",
        help="skip envelope-schema validation of events.jsonl on load",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="capture or render a span trace (flight recorder + profiler)",
    )
    trace_cmd.add_argument(
        "run_dir", nargs="?",
        help="render an existing trace: a bundle directory holding "
        "trace.json, or a trace.json path; omit to capture a fresh "
        "traced run instead",
    )
    trace_cmd.add_argument(
        "--seed", type=int, default=42,
        help="fuzz-scenario seed for capture mode (default: 42); the "
        "scenario's fleet, jobs, arrivals, and chaos plan all derive "
        "from it",
    )
    trace_cmd.add_argument(
        "--pods", type=int, metavar="N",
        help="capture through the sharded scheduler with N pods "
        "instead of the monolithic search",
    )
    trace_cmd.add_argument(
        "--out", metavar="DIR",
        help="write trace.json (Chrome trace-event) and profile.txt "
        "to DIR (capture mode only)",
    )
    trace_cmd.add_argument(
        "--top", type=int, default=10,
        help="self-time table rows to print (default: 10)",
    )
    trace_cmd.add_argument(
        "--critical-path", action="store_true",
        help="also print the wall-clock critical path from the run root",
    )
    trace_cmd.add_argument(
        "--clock", choices=("wall", "sim"), default="wall",
        help="profile on the wall clock (default) or the simulated clock",
    )

    whatif = sub.add_parser(
        "whatif", help="fleet sizing: phones needed to meet a deadline"
    )
    whatif.add_argument("--phones", required=True, help="phones JSON file")
    whatif.add_argument("--jobs", required=True, help="jobs JSON file")
    whatif.add_argument(
        "--deadline-s", type=float, required=True,
        help="makespan deadline in seconds",
    )
    whatif.add_argument(
        "--b", help="optional {phone_id: b_ms_per_kb} JSON file"
    )

    power = sub.add_parser(
        "power", help="charging curves under no-task/continuous/MIMD"
    )
    power.add_argument(
        "--phone-model",
        choices=("sensation", "g2"),
        default="sensation",
    )
    power.add_argument("--start-percent", type=float, default=0.0)

    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz random fleets/chaos through the sim under the "
        "invariant oracle",
    )
    fuzz.add_argument(
        "--runs", type=int, default=50,
        help="number of fuzzed scenarios (default: 50)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0,
        help="campaign master seed; every per-scenario seed derives "
        "from it deterministically (default: 0)",
    )
    fuzz.add_argument(
        "--out-dir", default="fuzz-artifacts",
        help="directory for replayable fuzz-<seed>.json failure "
        "artifacts (default: fuzz-artifacts)",
    )
    fuzz.add_argument(
        "--replay", metavar="ARTIFACT",
        help="re-execute one fuzz-<seed>.json artifact instead of "
        "running a campaign",
    )
    fuzz.add_argument(
        "--differential", type=int, default=0, metavar="N",
        help="additionally differential-check N fuzzed instances "
        "across the reference/python/numpy kernels, warm and cold",
    )
    fuzz.add_argument(
        "--sharded", type=int, default=0, metavar="N",
        help="additionally run the sharded differential on N fuzzed "
        "instances: --pods 1 must be byte-identical to the monolithic "
        "schedule and multi-pod makespans must stay inside the "
        "pod-aggregated LP sandwich",
    )
    fuzz.add_argument(
        "--no-minimize", action="store_true",
        help="write failing scenarios as-is instead of shrinking them",
    )
    fuzz.add_argument(
        "--crash-restore", action="store_true",
        help="run the crash/restore drill instead: each scenario is "
        "killed at a random scheduling instant, restored from its "
        "latest snapshot, and the continuation must be byte-identical "
        "to the uninterrupted baseline with zero invariant violations",
    )
    fuzz.add_argument(
        "--store-root", metavar="DIR",
        help="keep per-scenario snapshot stores under DIR "
        "(--crash-restore only; default: a temporary directory)",
    )
    fuzz.add_argument(
        "--pods", type=_positive_int, metavar="N",
        help="run every drill leg through the sharded scheduler with N "
        "pods on a pod worker pool (--crash-restore only), so kills "
        "land on a scheduler that forks workers every round",
    )
    fuzz.add_argument("--output", help="write the campaign report JSON here")

    tournament = sub.add_parser(
        "tournament",
        help="race scheduling policies on shared fuzzed chaos scenarios "
        "under the invariant oracle",
    )
    tournament.add_argument(
        "--policies", default="all",
        help="comma-separated policy names, or 'all' "
        "(default: every registered policy)",
    )
    tournament.add_argument(
        "--regimes", default="calm,churn",
        help="comma-separated chaos regime names (default: calm,churn)",
    )
    tournament.add_argument(
        "--runs", type=int, default=25,
        help="scenarios per regime; every policy runs each one "
        "(default: 25)",
    )
    tournament.add_argument(
        "--seed", type=int, default=0,
        help="tournament master seed (default: 0)",
    )
    tournament.add_argument(
        "--out-dir", metavar="DIR",
        help="write a replayable tournament-<seed>.json artifact here",
    )
    tournament.add_argument(
        "--replay", metavar="ARTIFACT",
        help="re-run a tournament-<seed>.json artifact's exact config; "
        "exits 2 if the digest diverges",
    )
    tournament.add_argument(
        "--output", help="write the tournament report JSON here"
    )

    return parser


def _load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_experiments(args) -> int:
    ids = args.ids or sorted(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    reports = []
    for experiment_id in ids:
        report = run_experiment(experiment_id)
        reports.append(report)
        print(report)
        print()
    if getattr(args, "output", None):
        from .experiments.report import generate_markdown_report

        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(generate_markdown_report(reports))
        print(f"report written to {args.output}")
    return 0


def _cmd_schedule(args) -> int:
    config = _scheduler_config(args, warm_start=False)
    phones = tuple(phone_from_dict(p) for p in _load_json(args.phones))
    jobs = tuple(job_from_dict(j) for j in _load_json(args.jobs))

    if args.profiles:
        profiles = {
            task: TaskProfile(
                task=task,
                base_ms_per_kb=float(spec["base_ms_per_kb"]),
                base_mhz=float(spec["base_mhz"]),
            )
            for task, spec in _load_json(args.profiles).items()
        }
    else:
        profiles = paper_task_profiles()
    predictor = RuntimePredictor(profiles)

    if args.b:
        b = {pid: float(v) for pid, v in _load_json(args.b).items()}
    else:
        from .netmodel.links import WirelessLink

        links = {
            phone.phone_id: WirelessLink.for_technology(
                phone.network, seed=hash(phone.phone_id) % 2**31
            )
            for phone in phones
        }
        b = measure_fleet(links)

    instance = SchedulingInstance.build(jobs, phones, b, predictor)
    scheduler = _build_scheduler(args, config)
    schedule = scheduler.schedule(instance)
    schedule.validate(instance)

    makespan_s = schedule.predicted_makespan_ms(instance) / 1000
    print(
        f"{scheduler.name}: {len(schedule)} partitions over "
        f"{len(schedule.phone_ids)} phones, predicted makespan "
        f"{makespan_s:.1f} s, unsplit {schedule.unsplit_fraction() * 100:.0f}%"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(schedule_to_dict(schedule), handle, indent=1)
        print(f"schedule written to {args.output}")
    return 0


def _cmd_study(args) -> int:
    study = generate_study(days=args.days, seed=args.seed)
    all_intervals = [
        interval
        for records in study.values()
        for interval in extract_intervals(records)
    ]
    night, day = night_day_split(all_intervals)
    night_hours = EmpiricalCdf([i.duration_hours for i in night])
    day_hours = EmpiricalCdf([i.duration_hours for i in day])
    print(
        f"{len(study)} users x {args.days} days: {len(night)} night "
        f"intervals (median {night_hours.median():.1f} h), {len(day)} day "
        f"intervals (median {day_hours.median() * 60:.0f} min)"
    )
    if args.output:
        records = [r for logs in study.values() for r in logs]
        records.sort(key=lambda r: (r.user_id, r.timestamp_s))
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(serialize_log(records))
        print(f"{len(records)} log records written to {args.output}")
    return 0


def _cmd_simulate_campaign(args, config: SchedulerConfig) -> int:
    """Continuous multi-night operation (``simulate --nights N``)."""
    from .sim.campaign import ContinuousCampaign, capacity_planning_report
    from .sim.churn import FleetChurnModel

    if args.resume and not args.checkpoint_dir:
        raise _UsageError("--resume requires --checkpoint-dir")
    if args.kill_after_night is not None and not args.checkpoint_dir:
        raise _UsageError("--kill-after-night requires --checkpoint-dir")
    defaults = build_parser().parse_args(["simulate"])
    dests = {flag: flag[2:].replace("-", "_") for flag in _SINGLE_RUN_FLAGS}
    ignored = [
        flag
        for flag, dest in dests.items()
        if getattr(args, dest) != getattr(defaults, dest)
    ]
    if ignored:
        raise _UsageError(
            f"{', '.join(ignored)} only apply to a single run; "
            "--nights would ignore them"
        )

    churn = FleetChurnModel() if args.churn else None
    campaign = ContinuousCampaign(
        seed=args.seed,
        jobs_per_night=args.jobs_per_night,
        arrival_rate_per_hour=args.arrival_rate,
        churn=churn,
        scheduler=config,
        checkpoint_dir=args.checkpoint_dir,
    )

    class _Killed(RuntimeError):
        pass

    def _kill_hook(_campaign, night_index, _record):
        if (
            args.kill_after_night is not None
            and night_index >= args.kill_after_night
        ):
            raise _Killed(night_index)

    try:
        result = campaign.run(
            args.nights,
            resume=args.resume,
            on_night=_kill_hook if args.kill_after_night is not None else None,
        )
    except _Killed as exc:
        print(
            f"killed after night {exc.args[0]} (checkpoint is durable; "
            f"rerun with --resume to continue)"
        )
        return 3
    except ValueError as exc:
        raise _UsageError(exc) from None

    report = capacity_planning_report(
        result, window_hours=campaign.window_hours
    )
    if result.resumed_from_night is not None:
        print(f"resumed from checkpoint at night {result.resumed_from_night}")
    print(
        f"{report['nights']} night(s) ({report['active_nights']} active), "
        f"{report['total_submitted']} jobs submitted, "
        f"{report['total_jobs_completed']} completed, "
        f"{report['total_failures']} phone failure(s)"
    )
    header = (
        f"{'night':>5} {'fleet':>5} {'+join':>5} {'-left':>5} "
        f"{'subm':>5} {'carry':>5} {'done':>5} {'unfin':>5} {'util':>6}"
    )
    print(header)
    for row in report["rows"]:
        print(
            f"{row['night']:>5} {row['fleet_size']:>5} {row['joined']:>5} "
            f"{row['departed']:>5} {row['submitted']:>5} "
            f"{row['carried_over']:>5} {row['jobs_completed']:>5} "
            f"{row['unfinished']:>5} {row['window_utilization']:>6.2f}"
        )
    print(
        f"mean window utilization {report['mean_window_utilization']:.2f}, "
        f"throughput {report['throughput_jobs_per_night']:.1f} jobs/night, "
        f"backlog {report['final_backlog']} "
        f"(trend {report['backlog_trend']:+d}), "
        f"keeps up: {report['keeps_up']}"
    )
    if args.output:
        payload = {
            "campaign": result.to_dict(),
            "capacity_report": report,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"summary written to {args.output}")
    return 0 if report["keeps_up"] else 1


def _cmd_simulate(args) -> int:
    # A campaign always warm-starts: its checkpoints carry the cache.
    campaign = args.nights is not None
    config = _scheduler_config(args, warm_start=args.warm_start or campaign)
    if campaign:
        return _cmd_simulate_campaign(args, config)
    if args.resume or args.checkpoint_dir or args.kill_after_night is not None:
        raise _UsageError(
            "--resume/--checkpoint-dir/--kill-after-night require --nights"
        )
    testbed = paper_testbed(seed=args.seed)
    profiles = paper_task_profiles()
    truth = FleetGroundTruth(profiles, deviation_sigma=0.03, seed=args.seed)
    predictor = RuntimePredictor(profiles)
    b = measure_fleet(testbed.links)

    plan = FailurePlan.none()
    if args.failures:
        rng = random.Random(args.seed)
        victims = rng.sample(
            [p.phone_id for p in testbed.phones], args.failures
        )
        plan = FailurePlan(
            PlannedFailure(v, rng.uniform(30_000.0, 400_000.0), online=True)
            for v in victims
        )

    chaos = ChaosPlan.none()
    if args.chaos:
        chaos = chaos.merged(ChaosPlan.from_dict(_load_json(args.chaos)))
    if args.chaos_seed is not None:
        monkey = ChaosMonkey(
            flap_probability=0.15,
            straggler_probability=0.15,
            straggler_factor_range=(3.0, 8.0),
            bandwidth_probability=0.1,
            crash_rate=0.2,
            corruption_rate=0.1,
        )
        sampled = monkey.sample_plan(
            [p.phone_id for p in testbed.phones],
            duration_ms=args.chaos_duration_s * 1000.0,
            rng=random.Random(args.chaos_seed),
        )
        chaos = chaos.merged(sampled)

    policy = None
    if args.harden or args.verify:
        policy = ResiliencePolicy.hardened(verify_results=args.verify)

    if args.trace and not args.telemetry:
        raise _UsageError("--trace requires --telemetry")
    telemetry = None
    if args.telemetry:
        from .obs import Telemetry

        telemetry = Telemetry.create(
            run_id=f"simulate-seed{args.seed}", tracing=args.trace
        )

    scheduler = _build_scheduler(args, config, telemetry)
    server = CentralServer(
        testbed.phones,
        truth,
        predictor,
        scheduler,
        b,
        failure_plan=plan,
        chaos=chaos,
        resilience=policy,
        telemetry=telemetry,
    )
    jobs = evaluation_workload()
    result = server.run(jobs)
    from .sim.validation import check_run_invariants

    check_run_invariants(result, jobs)
    summary = {
        "scheduler": args.scheduler,
        "predicted_makespan_s": result.predicted_makespan_ms / 1000,
        "measured_makespan_s": result.measured_makespan_ms / 1000,
        "rounds": len(result.rounds),
        "failures": len(result.trace.failures),
        "reschedule_overhead_s": result.reschedule_overhead_ms / 1000,
        "completions": len(result.trace.completions),
        "unfinished_jobs": len(result.unfinished_jobs),
    }
    for key, value in summary.items():
        print(f"{key}: {value}")
    stats = getattr(scheduler, "stats", None)
    if stats is not None and stats.rounds:
        summary["scheduling"] = stats.as_dict()
        warm_rounds = sum(1 for r in result.rounds if r.warm_started)
        print(
            f"scheduling wall-clock: {stats.wall_ms:.1f} ms over "
            f"{stats.rounds} round(s) "
            f"({stats.packer_passes} packer passes, "
            f"{stats.bisection_steps} bisection steps, "
            f"{warm_rounds} warm-start hit(s))"
        )
    report = None
    if not chaos.is_empty or policy is not None:
        report = compute_resilience_report(result)
        for line in report.summary_lines():
            print(line)
        summary["resilience"] = report.to_dict()
    if telemetry is not None:
        from .obs import build_run_report

        bundle = build_run_report(
            telemetry,
            meta={
                "seed": args.seed,
                "scheduler": args.scheduler,
                "hardened": bool(args.harden or args.verify),
                "chaos": not chaos.is_empty,
            },
            resilience=report.to_dict() if report is not None else None,
        )
        bundle_dir = bundle.write(args.telemetry)
        summary["telemetry_bundle"] = str(bundle_dir)
        print(f"telemetry bundle written to {bundle_dir}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
        print(f"summary written to {args.output}")
    return 0


def _cmd_report(args) -> int:
    from .obs import load_run_report, render_report_lines

    try:
        loaded = load_run_report(
            args.run_dir, validate=not args.no_validate
        )
    except Exception as exc:  # noqa: BLE001 - operator-facing diagnostics
        print(f"failed to load run report: {exc}", file=sys.stderr)
        return 2
    for line in render_report_lines(loaded, top_n=args.top):
        print(line)
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from .obs.profile import (
        critical_path,
        render_critical_path_lines,
        render_profile_lines,
        self_time_table,
    )
    from .obs.trace_export import (
        chrome_trace,
        load_chrome_trace,
        spans_from_chrome,
        write_chrome_trace,
    )
    from .verify.oracle import Oracle

    if args.run_dir:
        path = Path(args.run_dir)
        if path.is_dir():
            path = path / "trace.json"
        try:
            spans = spans_from_chrome(load_chrome_trace(path))
        except (OSError, ValueError) as exc:
            print(f"failed to load trace: {exc}", file=sys.stderr)
            return 2
        # No event log here, so only the structural span invariants run.
        oracle = Oracle(include=("span-tree", "span-nesting"))
        violations = oracle.check_run(None, (), spans=spans, collect=True)
        print(f"{path}: {len(spans)} span(s)")
    else:
        from .obs import Telemetry
        from .verify.fuzz import (
            build_scenario_server,
            generate_scenario,
            scenario_workload,
        )

        scenario = generate_scenario(args.seed)
        telemetry = Telemetry.create(
            run_id=f"trace-{args.seed}", tracing=True
        )
        server = build_scenario_server(
            scenario, telemetry=telemetry, pods=args.pods
        )
        initial, arrivals = scenario_workload(scenario)
        result = server.run(initial, arrivals=arrivals)
        violations = Oracle().check_run(
            result,
            scenario.jobs,
            events=telemetry.bus.events,
            spans=telemetry.tracer.spans,
            collect=True,
        )
        spans = telemetry.tracer.to_dicts()
        # Exercise the export round-trip so a capture run is also a
        # validation run (what CI's trace-smoke job leans on).
        exported = chrome_trace(spans, run_id=telemetry.run_id)
        restored = spans_from_chrome(exported)
        if restored != spans:
            print("trace.json round-trip mismatch", file=sys.stderr)
            return 1
        print(
            f"traced seed {args.seed}: {len(spans)} span(s) over "
            f"{len(result.rounds)} round(s), "
            f"{len({s['process'] for s in spans})} process lane(s), "
            f"export round-trip ok"
        )
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(
                out / "trace.json", spans, run_id=telemetry.run_id
            )
            profile_lines = render_profile_lines(
                self_time_table(spans, clock=args.clock), clock=args.clock
            )
            profile_lines.append("")
            profile_lines.extend(
                render_critical_path_lines(
                    critical_path(spans, clock=args.clock), clock=args.clock
                )
            )
            (out / "profile.txt").write_text(
                "\n".join(profile_lines) + "\n", encoding="utf-8"
            )
            print(f"trace artifacts written to {out}")

    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    if violations:
        return 1

    rows = self_time_table(spans, clock=args.clock)
    for line in render_profile_lines(rows, top=args.top, clock=args.clock):
        print(line)
    if args.critical_path:
        for line in render_critical_path_lines(
            critical_path(spans, clock=args.clock), clock=args.clock
        ):
            print(line)
    return 0


def _resolve_b(args, phones):
    """Measured-b file if given, else simulate per-technology links."""
    if getattr(args, "b", None):
        return {pid: float(v) for pid, v in _load_json(args.b).items()}
    from .netmodel.links import WirelessLink

    links = {
        phone.phone_id: WirelessLink.for_technology(
            phone.network, seed=hash(phone.phone_id) % 2**31
        )
        for phone in phones
    }
    return measure_fleet(links)


def _cmd_whatif(args) -> int:
    from .core.whatif import makespan_by_fleet_size, minimum_fleet_size

    phones = tuple(phone_from_dict(p) for p in _load_json(args.phones))
    jobs = tuple(job_from_dict(j) for j in _load_json(args.jobs))
    predictor = RuntimePredictor(paper_task_profiles())
    b = _resolve_b(args, phones)
    # Prefer fast links first: the sensible fleet-growth order.
    ranked = tuple(sorted(phones, key=lambda p: b[p.phone_id]))
    deadline_ms = args.deadline_s * 1000.0

    size = minimum_fleet_size(
        jobs, ranked, b, predictor, deadline_ms=deadline_ms
    )
    curve = makespan_by_fleet_size(
        jobs, ranked, b, predictor,
        sizes=tuple(range(1, len(ranked) + 1, max(1, len(ranked) // 6))),
    )
    for count, makespan_ms in sorted(curve.items()):
        print(f"{count:3d} phones -> predicted makespan {makespan_ms / 1000:8.1f} s")
    if size is None:
        print(
            f"no prefix of this fleet meets the {args.deadline_s:.0f} s deadline"
        )
        return 1
    print(f"minimum fleet for {args.deadline_s:.0f} s deadline: {size} phones")
    return 0


def _cmd_power(args) -> int:
    from .power.battery import HTC_G2, HTC_SENSATION
    from .power.charging import compute_penalty, simulate_charging
    from .power.throttle import ContinuousPolicy, MimdThrottle, NoTaskPolicy

    profile = HTC_SENSATION if args.phone_model == "sensation" else HTC_G2
    start = args.start_percent
    if not 0.0 <= start < 100.0:
        print("start-percent must lie in [0, 100)", file=sys.stderr)
        return 2
    ideal = simulate_charging(profile, NoTaskPolicy(), start_percent=start)
    heavy = simulate_charging(profile, ContinuousPolicy(), start_percent=start)
    mimd = simulate_charging(profile, MimdThrottle(), start_percent=start)
    print(f"{profile.name} charging {start:.0f}% -> 100%:")
    for trace in (ideal, heavy, mimd):
        print(
            f"  {trace.policy_name:10s} {trace.duration_s / 60:6.1f} min "
            f"(CPU duty {trace.duty_factor:.2f})"
        )
    print(
        f"  MIMD compute penalty vs continuous: "
        f"{compute_penalty(mimd, heavy) * 100:.1f}%"
    )
    return 0


def _cmd_fuzz(args) -> int:
    from .verify import (
        differential_check,
        generate_instance,
        replay_artifact,
        run_campaign,
    )
    from .verify.fuzz import derive_seeds

    if args.replay:
        replay = replay_artifact(args.replay)
        outcome = replay.outcome
        print(f"replayed {args.replay}")
        print(f"  scenario digest : {outcome.digest}")
        print(f"  digest matches  : {replay.digest_matches}")
        print(f"  verdict         : {'clean' if outcome.ok else 'FAILING'}")
        for violation in outcome.violations:
            print(f"  {violation}")
        if not replay.digest_matches:
            print("  artifact digest does not match its scenario",
                  file=sys.stderr)
            return 2
        if not replay.reproduced:
            print("  replay verdict differs from the recorded one",
                  file=sys.stderr)
            return 1
        return 0

    if args.runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return 2

    if args.crash_restore:
        from .verify.fuzz import run_crash_restore_campaign

        report = run_crash_restore_campaign(
            args.runs,
            seed=args.seed,
            store_root=args.store_root,
            pods=args.pods,
        )
        print(
            f"crash/restore-drilled {report.runs} scenarios from seed "
            f"{report.seed}: {report.kills} killed mid-run, "
            f"{report.cold_restarts} cold restart(s), "
            f"{len(report.failures)} failing"
        )
        print(f"campaign digest: {report.campaign_digest}")
        for outcome in report.failures:
            print(
                f"  seed {outcome.seed} (killed at instant "
                f"{outcome.kill_instant}):"
            )
            if outcome.error:
                print(f"    error: {outcome.error}")
            if not outcome.identical:
                print("    restored run diverged from the baseline")
            if not outcome.state_verified:
                print("    snapshot state verification did not run")
            for violation in outcome.violations:
                print(f"    {violation}")
        if args.output:
            payload = {
                "mode": "crash-restore",
                "runs": report.runs,
                "seed": report.seed,
                "campaign_digest": report.campaign_digest,
                "kills": report.kills,
                "cold_restarts": report.cold_restarts,
                "failures": [
                    {
                        "seed": outcome.seed,
                        "kill_instant": outcome.kill_instant,
                        "identical": outcome.identical,
                        "state_verified": outcome.state_verified,
                        "error": outcome.error,
                        "violations": [str(v) for v in outcome.violations],
                    }
                    for outcome in report.failures
                ],
            }
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
            print(f"report written to {args.output}")
        return 0 if report.ok else 1

    report = run_campaign(
        args.runs,
        seed=args.seed,
        out_dir=args.out_dir,
        minimize=not args.no_minimize,
    )
    print(
        f"fuzzed {report.runs} scenarios from seed {report.seed}: "
        f"{len(report.failures)} failing"
    )
    print(f"campaign digest: {report.campaign_digest}")
    for outcome in report.failures:
        print(f"  seed {outcome.scenario.seed}:")
        for violation in outcome.violations:
            print(f"    {violation}")
    for artifact in report.artifacts:
        print(f"  artifact: {artifact}")

    differential_failures = 0
    if args.differential > 0:
        for instance_seed in derive_seeds(args.seed, args.differential):
            try:
                differential_check(generate_instance(instance_seed))
            except AssertionError as exc:
                differential_failures += 1
                print(f"  differential seed {instance_seed}: {exc}")
        print(
            f"differential-checked {args.differential} instances: "
            f"{differential_failures} mismatching"
        )

    sharded_failures = 0
    if args.sharded > 0:
        from .verify import sharded_differential_check

        for instance_seed in derive_seeds(args.seed + 1, args.sharded):
            try:
                sharded_differential_check(generate_instance(instance_seed))
            except AssertionError as exc:
                sharded_failures += 1
                print(f"  sharded seed {instance_seed}: {exc}")
        print(
            f"sharded-checked {args.sharded} instances: "
            f"{sharded_failures} mismatching"
        )

    if args.output:
        payload = {
            "runs": report.runs,
            "seed": report.seed,
            "campaign_digest": report.campaign_digest,
            "failures": [
                {
                    "seed": outcome.scenario.seed,
                    "digest": outcome.digest,
                    "violations": [str(v) for v in outcome.violations],
                }
                for outcome in report.failures
            ],
            "artifacts": list(report.artifacts),
            "differential_instances": args.differential,
            "differential_failures": differential_failures,
            "sharded_instances": args.sharded,
            "sharded_failures": sharded_failures,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.output}")
    return 1 if (
        report.failures or differential_failures or sharded_failures
    ) else 0


def _cmd_tournament(args) -> int:
    from .core.policies import POLICY_NAMES
    from .verify.tournament import (
        replay_tournament,
        run_tournament,
        write_tournament_artifact,
    )

    if args.replay:
        replay = replay_tournament(args.replay)
        report = replay.report
        print(f"replayed {args.replay}")
        print(f"  recorded digest : {replay.recorded_digest}")
        print(f"  rerun digest    : {report.digest}")
        print(f"  digest matches  : {replay.digest_matches}")
        print(f"  violations      : {report.violation_count}")
        if not replay.digest_matches:
            print("  tournament rerun diverged from the artifact",
                  file=sys.stderr)
            return 2
        return 0 if report.ok else 1

    if args.runs < 1:
        print("--runs must be >= 1", file=sys.stderr)
        return 2
    policies = (
        POLICY_NAMES
        if args.policies == "all"
        else tuple(p.strip() for p in args.policies.split(",") if p.strip())
    )
    regimes = tuple(
        r.strip() for r in args.regimes.split(",") if r.strip()
    )
    try:
        report = run_tournament(
            args.runs, policies=policies, regimes=regimes, seed=args.seed
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.out_dir:
        path = write_tournament_artifact(report, args.out_dir)
        print(f"artifact: {path}")
    if args.output:
        payload = {
            "seed": report.seed,
            "runs": report.runs,
            "policies": list(report.policies),
            "regimes": list(report.regimes),
            "digest": report.digest,
            "violations": report.violation_count,
            "cells": [cell.to_dict() for cell in report.cells],
            "winners": {
                regime: {
                    metric: dict(verdict)
                    for metric, verdict in metrics.items()
                }
                for regime, metrics in report.winners.items()
            },
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.output}")
    return 0 if report.ok else 1


_COMMANDS = {
    "experiments": _cmd_experiments,
    "schedule": _cmd_schedule,
    "study": _cmd_study,
    "simulate": _cmd_simulate,
    "whatif": _cmd_whatif,
    "power": _cmd_power,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "fuzz": _cmd_fuzz,
    "tournament": _cmd_tournament,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments and dispatch to the subcommand."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
