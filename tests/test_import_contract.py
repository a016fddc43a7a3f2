"""What a run loads: scipy only where an LP is solved.

The CWC server runs the greedy packer inside a capacity search; the LP
relaxation (``repro.core.lp_bound``) is needed only by Fig. 13, the
differential oracle and the sharded scheduler's pod certificate.  Each
case runs in a fresh interpreter with ``sys.modules["scipy"] = None``,
so any import of scipy raises and fails the case.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Blocks every ``import scipy...`` in the child interpreter.
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def run_python(code: str, *, block_scipy: bool = True):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    prelude = NO_SCIPY if block_scipy else ""
    return subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=300,
    )


def assert_ok(completed: subprocess.CompletedProcess) -> None:
    assert completed.returncode == 0, completed.stderr[-2000:]


def test_packages_import_without_scipy():
    assert_ok(run_python("import repro.core, repro.sim, repro.cli\n"))


def test_monolithic_night_runs_without_scipy():
    assert_ok(
        run_python(
            """
            from repro.core.greedy import CwcScheduler
            from repro.core.prediction import RuntimePredictor
            from repro.netmodel.measurement import measure_fleet
            from repro.sim.entities import FleetGroundTruth
            from repro.sim.server import CentralServer
            from repro.workloads.mixes import (
                evaluation_workload, paper_task_profiles, paper_testbed,
            )

            testbed = paper_testbed()
            profiles = paper_task_profiles()
            server = CentralServer(
                testbed.phones,
                FleetGroundTruth(profiles, seed=1),
                RuntimePredictor(profiles),
                CwcScheduler(),
                measure_fleet(testbed.links),
            )
            result = server.run(evaluation_workload(instances_per_task=4))
            assert not result.unfinished_jobs
            """
        )
    )


def test_campaign_runs_without_scipy():
    assert_ok(
        run_python(
            """
            from repro.sim.campaign import ContinuousCampaign
            from repro.sim.churn import FleetChurnModel

            result = ContinuousCampaign(
                seed=3, jobs_per_night=20, churn=FleetChurnModel()
            ).run(2)
            assert len(result.nights) == 2
            """
        )
    )


def test_simulate_cli_runs_without_scipy():
    completed = run_python(
        """
        import runpy
        sys.argv = ["repro", "simulate", "--seed", "1"]
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
        """
    )
    assert_ok(completed)
    assert "makespan" in completed.stdout.lower()


@pytest.mark.parametrize("certify", [False, True])
def test_sharded_scheduler_loads_solver_only_when_certifying(certify):
    assert_ok(
        run_python(
            f"""
            import sys
            from repro.core.sharding import ShardedScheduler

            assert "scipy.optimize" not in sys.modules
            ShardedScheduler(pods=2, certify={certify})
            assert ("scipy.optimize" in sys.modules) is {certify}
            """,
            block_scipy=False,
        )
    )
