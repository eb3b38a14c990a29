"""Pinned outputs of both simulations on the default workload (seed 7).

The constants below were recorded before the feedback loop was merged
into :class:`~repro.core.runner.FeedbackLoop`.  Refactoring the loop must
leave every one of them byte-identical: the catalog digest, each job's
build/reuse decisions, the selections, and the Table-1 totals.
"""

import hashlib

import pytest

from repro.core import SimulationConfig, WorkloadSimulation
from repro.scheduler import ConcurrentSimulation, ConcurrentSimulationConfig
from repro.telemetry import TABLE1_METRICS
from repro.workload import generate_workload

DAYS = 3
JOBS = 102

SERIAL_CATALOG_DIGEST = (
    "3a9862ec8c5a3512871b20931a0519add1cbb46d1ab00348c2878d3c1f8f5003")
#: sha256 of "job-N:built/reused" for every job, in telemetry order.
SERIAL_DECISIONS_SHA = (
    "b7538544793a1f8077f0c627ea157db36477d0d4c9538333e6d2311734192dc9")
#: Every job that built or reused a view; all other jobs read 0/0.
SERIAL_DECISIONS = {
    "job-37": (1, 0), "job-38": (3, 0), "job-39": (1, 0), "job-43": (1, 0),
    "job-44": (0, 1), "job-48": (1, 1), "job-49": (0, 2), "job-50": (0, 1),
    "job-51": (0, 1), "job-53": (0, 2), "job-55": (0, 1), "job-56": (0, 1),
    "job-59": (0, 1), "job-61": (0, 2), "job-62": (0, 2), "job-63": (0, 2),
    "job-64": (0, 2), "job-65": (0, 2), "job-66": (0, 1), "job-67": (0, 1),
    "job-69": (0, 1), "job-70": (0, 1), "job-71": (2, 1), "job-73": (0, 1),
    "job-72": (1, 0), "job-74": (0, 1), "job-77": (0, 1), "job-76": (1, 1),
    "job-75": (2, 0), "job-79": (0, 1), "job-81": (1, 1), "job-82": (0, 2),
    "job-83": (0, 1), "job-84": (0, 1), "job-85": (0, 2), "job-86": (0, 1),
    "job-87": (0, 1), "job-88": (0, 1), "job-90": (0, 2), "job-92": (0, 2),
    "job-93": (0, 2), "job-96": (0, 2), "job-97": (0, 2), "job-98": (0, 3),
    "job-99": (0, 1), "job-101": (0, 1),
}
#: ``SimulationReport.total(metric)`` for each Table-1 metric.
SERIAL_TABLE1_TOTALS = {
    "latency": 12155.599729440255,
    "processing_time": 31112.12333333333,
    "bonus_processing_time": 18994.95427546452,
    "containers": 7716,
    "input_bytes": 7454762,
    "data_read_bytes": 14082171,
    "queue_length_at_submit": 63,
}

CONCURRENT_CATALOG_DIGEST = (
    "61373736f09ecf11479b66a4490a6fb7310e74f8f4d55bbb9503eb351ab13935")
#: sha256 over every job's (id, ok, degraded, VC, built, reused, rows).
CONCURRENT_OUTCOMES_SHA = (
    "bd952cecd55ea5146948d93b61aef84565792de5d44aea424c63e75f85f0be17")
CONCURRENT_DECISIONS = {
    "job-37": (1, 0), "job-38": (3, 0), "job-39": (1, 0), "job-40": (0, 2),
    "job-41": (0, 1), "job-42": (0, 1), "job-43": (1, 1), "job-44": (0, 2),
    "job-45": (0, 1), "job-46": (0, 1), "job-47": (0, 1), "job-48": (1, 1),
    "job-49": (0, 2), "job-50": (0, 1), "job-51": (0, 1), "job-53": (0, 2),
    "job-55": (0, 1), "job-56": (0, 1), "job-59": (0, 1), "job-61": (0, 2),
    "job-62": (0, 2), "job-63": (0, 2), "job-64": (0, 2), "job-65": (0, 2),
    "job-66": (0, 1), "job-67": (0, 1), "job-69": (0, 1), "job-70": (0, 1),
    "job-71": (2, 1), "job-72": (1, 0), "job-73": (0, 2), "job-74": (0, 1),
    "job-75": (2, 1), "job-76": (1, 1), "job-77": (0, 2), "job-78": (0, 1),
    "job-79": (0, 1), "job-80": (0, 1), "job-81": (1, 1), "job-82": (0, 2),
    "job-83": (0, 1), "job-84": (0, 1), "job-85": (0, 2), "job-86": (0, 1),
    "job-87": (0, 1), "job-88": (0, 1), "job-90": (0, 2), "job-92": (0, 2),
    "job-93": (0, 2), "job-96": (0, 2), "job-97": (0, 2), "job-98": (0, 3),
    "job-99": (0, 1), "job-101": (0, 1),
}

#: Both simulations select the same views at both epochs.
SELECTIONS_SHA = (
    "3875becee1150e04c5503f3d470b7f91bb36bf70e4942d418c9deb8082923dfb")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def selections_sha(selections) -> str:
    return sha("\n".join(repr((
        s.considered, s.rejected_by_budget, s.rejected_by_schedule,
        s.storage_used, [c.recurring for c in s.selected]))
        for s in selections))


def nonzero(jobs):
    return {j.job_id: (j.views_built, j.views_reused) for j in jobs
            if j.views_built or j.views_reused}


@pytest.fixture(scope="module")
def serial():
    simulation = WorkloadSimulation(generate_workload(seed=7),
                                    SimulationConfig(days=DAYS))
    report = simulation.run()
    return simulation, report


@pytest.fixture(scope="module")
def concurrent():
    return ConcurrentSimulation(
        generate_workload(seed=7),
        ConcurrentSimulationConfig(days=DAYS, workers=2)).run()


class TestSerialSimulationPinned:
    def test_catalog_digest(self, serial):
        simulation, _ = serial
        assert (simulation.engine.view_store.catalog_digest()
                == SERIAL_CATALOG_DIGEST)

    def test_per_job_decisions(self, serial):
        _, report = serial
        assert len(report.telemetry) == JOBS
        assert nonzero(report.telemetry) == SERIAL_DECISIONS
        assert sha(" ".join(
            f"{t.job_id}:{t.views_built}/{t.views_reused}"
            for t in report.telemetry)) == SERIAL_DECISIONS_SHA

    def test_table1_totals(self, serial):
        _, report = serial
        totals = {metric: report.total(metric)
                  for metric, _ in TABLE1_METRICS}
        assert repr(totals) == repr(SERIAL_TABLE1_TOTALS)
        assert (report.views_created, report.views_reused) == (14, 56)

    def test_selections(self, serial):
        _, report = serial
        assert selections_sha(report.selections) == SELECTIONS_SHA


class TestConcurrentSimulationPinned:
    def test_catalog_digest(self, concurrent):
        assert concurrent.catalog_digest == CONCURRENT_CATALOG_DIGEST

    def test_per_job_outcomes(self, concurrent):
        assert concurrent.jobs == JOBS
        assert nonzero(concurrent.results) == CONCURRENT_DECISIONS
        assert sha("\n".join(repr((
            r.job_id, r.ok, r.degraded, r.virtual_cluster, r.views_built,
            r.views_reused, sorted(map(repr, r.rows))))
            for r in concurrent.results)) == CONCURRENT_OUTCOMES_SHA
        assert (concurrent.views_created, concurrent.views_reused) \
            == (14, 70)

    def test_selections(self, concurrent):
        assert selections_sha(concurrent.selections) == SELECTIONS_SHA
