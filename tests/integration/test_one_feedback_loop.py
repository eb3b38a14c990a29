"""One feedback loop behind every driver.

:class:`WorkloadSimulation`, :class:`ConcurrentSimulation` and
:meth:`Session.analyze_and_publish` all run their selection epochs
through :class:`~repro.core.runner.FeedbackLoop`.  Each epoch therefore
leaves the same record in a flight-recorder capture, whichever driver
ran it: one ``selection.epoch`` span and one ``selection.epoch`` event
with the same fields, stamped at the end of the analyzed window.
"""

import pytest

from repro.api import Session
from repro.common.clock import SECONDS_PER_DAY
from repro.core import (
    DeploymentMode,
    MultiLevelControls,
    SimulationConfig,
    WorkloadSimulation,
)
from repro.engine import ScopeEngine
from repro.obs import FlightRecorder
from repro.obs import events as obs_events
from repro.scheduler import ConcurrentSimulation, ConcurrentSimulationConfig
from repro.workload import generate_workload

DAYS = 3
#: The simulations' trailing selection window.
WINDOW_DAYS = 3
#: Selection runs at every midnight after the one-day warm-up.
EPOCH_IDS = ["epoch-1", "epoch-2"]
SPAN_FIELDS = {"algorithm", "selected", "published"}
EVENT_FIELDS = {"algorithm", "considered", "selected", "rejected_by_budget",
                "rejected_by_schedule", "storage_used", "published"}


def replay_through_session(recorder):
    """The simulations' loop, driven by hand through the public facade."""
    workload = generate_workload(seed=7)
    config = SimulationConfig()
    with Session(controls=MultiLevelControls(mode=DeploymentMode.OPT_OUT),
                 policy=config.policy,
                 selection_algorithm=config.selection_algorithm,
                 recorder=recorder) as session:
        workload.install(session.engine, at=0.0)
        for day in range(DAYS):
            if day > 0:
                now = day * SECONDS_PER_DAY
                workload.cook(session.engine, day)
                session.evict_expired(now)
                session.analyze_and_publish(
                    window_start=now - WINDOW_DAYS * SECONDS_PER_DAY,
                    window_end=now)
            for job in workload.jobs_for_day(day):
                template = job.template
                session.run(template.sql, params=job.params,
                            virtual_cluster=template.virtual_cluster,
                            template_id=template.template_id,
                            pipeline_id=template.pipeline_id,
                            now=job.submit_time)


@pytest.fixture(scope="module")
def captures():
    serial = FlightRecorder()
    WorkloadSimulation(generate_workload(seed=7),
                       SimulationConfig(days=DAYS), recorder=serial).run()
    concurrent = FlightRecorder()
    ConcurrentSimulation(generate_workload(seed=7),
                         ConcurrentSimulationConfig(days=DAYS, workers=2),
                         recorder=concurrent).run()
    session = FlightRecorder()
    replay_through_session(session)
    return {"serial": serial, "concurrent": concurrent, "session": session}


DRIVERS = ("serial", "concurrent", "session")


def epoch_spans(recorder):
    return recorder.tracer.spans("selection.epoch")


def epoch_events(recorder):
    return recorder.events.events(obs_events.SELECTION_EPOCH)


@pytest.mark.parametrize("driver", DRIVERS)
def test_one_span_and_one_event_per_epoch(captures, driver):
    recorder = captures[driver]
    spans, events = epoch_spans(recorder), epoch_events(recorder)
    assert [s.trace_id for s in spans] == EPOCH_IDS
    assert [e.job_id for e in events] == EPOCH_IDS
    for day, (span, event) in enumerate(zip(spans, events), start=1):
        assert set(span.attrs) == SPAN_FIELDS
        assert set(event.attrs) == EVENT_FIELDS
        # Stamped at the midnight that closes the analyzed window.
        assert span.start == span.end == event.at == day * SECONDS_PER_DAY
        assert span.attrs["selected"] == event.attrs["selected"]
        assert span.attrs["published"] == event.attrs["published"]


def test_every_driver_records_the_same_epochs(captures):
    """Same workload, same policy: the three drivers select alike."""
    records = {driver: [(span.attrs, event.attrs)
                        for span, event in zip(epoch_spans(recorder),
                                               epoch_events(recorder))]
               for driver, recorder in captures.items()}
    assert records["serial"] == records["concurrent"] == records["session"]
    assert any(event["selected"] for _, event in records["serial"])


def test_loop_without_controls_gates_only_by_job_override():
    from repro.core import FeedbackLoop
    loop = FeedbackLoop(ScopeEngine(), policy=SimulationConfig().policy,
                        selection_algorithm="bigsubs")
    assert loop.reuse_gate("any-vc") is True
    assert loop.reuse_gate("any-vc", job_override=True) is True
    assert loop.reuse_gate("any-vc", job_override=False) is False
    loop.enabled = False
    assert loop.reuse_gate("any-vc") is False
