"""A finished server run is freed by reference counting alone.

Nothing a run leaves behind — keep-alive monitors, telemetry probes —
may point back at its server, so dropping the server returns the
night's memory at once instead of at the next cycle collection.
"""

import gc
import weakref

import pytest

from repro.core.greedy import CwcScheduler
from repro.obs.telemetry import Telemetry
from repro.sim.campaign import ContinuousCampaign
from repro.sim.churn import FleetChurnModel
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer

from .test_server import make_jobs, make_setup


@pytest.fixture
def no_cycle_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _finished_server(**kwargs):
    phones, truth, predictor, b = make_setup()
    server = CentralServer(phones, truth, predictor, CwcScheduler(), b, **kwargs)
    result = server.run(make_jobs())
    return server, result


@pytest.mark.usefixtures("no_cycle_collector")
class TestFinishedRunIsFreed:
    def test_plain_run(self):
        server, result = _finished_server()
        ref = weakref.ref(server)
        del server
        assert ref() is None
        assert result.trace.completions  # the result outlives its server

    def test_run_whose_monitor_detected_an_offline_phone(self):
        plan = FailurePlan([PlannedFailure("p1", 2000.0, online=False)])
        server, result = _finished_server(failure_plan=plan)
        assert [f.online for f in result.trace.failures] == [False]
        ref = weakref.ref(server)
        del server
        assert ref() is None

    def test_telemetry_armed_run(self):
        telemetry = Telemetry.create(run_id="release", tracing=True)
        server, _ = _finished_server(telemetry=telemetry)
        ref = weakref.ref(server)
        del server
        assert ref() is None
        # The caller's facade keeps the series its probes recorded.
        assert telemetry.samplers.get_series("outstanding_dispatches")

    def test_campaign_nights_leave_no_garbage(self):
        campaign = ContinuousCampaign(
            seed=5,
            jobs_per_night=20,
            arrival_rate_per_hour=40.0,
            churn=FleetChurnModel(),
        )
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            campaign.run(2)
            gc.collect()
            leaked = [o for o in gc.garbage if type(o) is CentralServer]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []
