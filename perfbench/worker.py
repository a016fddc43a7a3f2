"""One repetition of one workload, in a fresh process.

Usage (from the root of a checkout, with ``src`` and the checkout root
on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload fleet_night --seed 7 --trace 0 \
        --workdir .perfbench-scratch --cpu 0

Pins itself to ``--cpu``, sets up the workload, times its run (spans
armed with ``--trace 1``), runs the correctness gate, and prints one JSON
object on stdout.  ``spans`` holds the ``perf_counter`` bounds of the
set-up (from the worker's first line, so it counts importing the program
as well as building the inputs), of the timed run and of every night's
round-0 solve; :mod:`perfbench.run` converts them to reference seconds.
Repetitions run in separate processes so that each pays what a freshly
started server pays; fleet nights repeated inside one interpreter were
seen to drift upward.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _machine_context() -> dict:
    """CPUs the program may use and the versions it ran on."""
    import os
    import platform
    from importlib.metadata import version

    from repro.core.capacity import available_cpus

    return {
        "available_cpus": available_cpus(),
        "nproc": os.cpu_count(),
        "repro_cpus": os.environ.get("REPRO_CPUS"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _pin(cpu: int) -> None:
    """Run on ``cpu`` alone; processes forked later may use every CPU."""
    import os

    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, allowed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument(
        "--cpu", type=int, help="run on this CPU; child processes get them all"
    )
    args = parser.parse_args(argv)
    if args.cpu is not None:
        _pin(args.cpu)

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.workdir)
    tracer = None
    if args.trace:
        from perfbench.layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    started = time.perf_counter()
    try:
        outcome = workload.run(state)
    finally:
        ended = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate = workload.finish(state)
    wall_s = ended - started
    report = {
        "spans": {
            "setup": [_STARTED, started],
            "run": [started, ended],
            "first_schedule": outcome["first_schedule_spans"],
        },
        "setup_s": started - _STARTED,
        "wall_s": wall_s,
        "jobs_completed": outcome["jobs_completed"],
        "peak_rss_mb": peak_rss_mb,
        **gate,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(wall_s)
    report["context"] = _machine_context()
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
