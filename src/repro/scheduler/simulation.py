"""Wave-parallel workload simulation over the concurrent scheduler.

The serial :class:`~repro.core.runner.WorkloadSimulation` interleaves jobs
through the cluster simulator's event loop; this driver instead stresses
the *frontend*: all jobs sharing a simulated arrival time form one wave
that a :class:`~repro.api.Session` compiles and executes concurrently
(:meth:`~repro.api.Session.run_batch`), with sealing / history /
repository ingestion applied at the wave barrier in submission order.
Day boundaries run through the session's
:class:`~repro.core.runner.FeedbackLoop`.  By construction, the simulated
outcome -- view catalog, reuse counts, workload repository -- is
independent of the worker count; ``--workers 8`` differs from
``--workers 1`` only in wall-clock time and in which thread happened to
win each view lock (the catalog digest is identity-free, so even that
does not show).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.common.clock import SECONDS_PER_DAY
from repro.core.controls import DeploymentMode, MultiLevelControls
from repro.core.runner import BaseSimulationConfig
from repro.faults import FaultPlan, FaultRuntime
from repro.insights.client import InsightsClientConfig
from repro.scheduler.results import JobResult
from repro.scheduler.scheduler import JobRequest, SchedulerConfig
from repro.selection.policies import SelectionResult
from repro.workload.generator import CookingWorkload, JobInstance
from repro.workload.repository import WorkloadRepository


@dataclass(kw_only=True)
class ConcurrentSimulationConfig(BaseSimulationConfig):
    """Knobs for one wave-parallel simulation run."""

    workers: int = 4
    #: Insights-service shard processes (``repro simulate --shards``);
    #: 0 keeps the in-process service.  Reuse decisions and the catalog
    #: digest are shard-count-invariant by construction.
    shards: int = 0


@dataclass
class ConcurrentSimulationReport:
    """What the CLI and the throughput benchmark read."""

    config: ConcurrentSimulationConfig
    results: List[JobResult]
    repository: WorkloadRepository
    views_created: int
    views_reused: int
    catalog_digest: str
    wall_seconds: float
    selections: List[SelectionResult] = field(default_factory=list)
    #: Per-shard worker stats (``None`` for the in-process service).
    shard_stats: Optional[List[Dict[str, object]]] = None

    @property
    def shard_busy_seconds(self) -> List[float]:
        """Simulated serving busy-time accumulated by each shard."""
        if not self.shard_stats:
            return []
        return [float(s["busy_seconds"]) for s in self.shard_stats]

    @property
    def jobs(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def degraded_jobs(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "workers": self.config.workers,
            "shards": self.config.shards,
            "days": self.config.days,
            "jobs": self.jobs,
            "failures": self.failures,
            "degraded_jobs": self.degraded_jobs,
            "views_created": self.views_created,
            "views_reused": self.views_reused,
            "catalog_digest": self.catalog_digest,
            "wall_seconds": round(self.wall_seconds, 3),
            "jobs_per_second": round(self.jobs_per_second, 1),
        }


class ConcurrentSimulation:
    """Drives a cooking workload through a :class:`~repro.api.Session`.

    The session's default client path (request batching, caching, and
    with ``faults`` the degradation ladder) serves every wave.  Reuse is
    on in every virtual cluster unless ``config.cloudviews_enabled`` is
    false.  ``faults`` defaults to none: ``REPRO_FAULTS`` is not read.
    """

    def __init__(self, workload: CookingWorkload,
                 config: ConcurrentSimulationConfig,
                 client_config: Optional[InsightsClientConfig] = None,
                 faults: Optional[Union[str, FaultPlan, FaultRuntime]] = None,
                 recorder=None):
        # Imported here: repro.api builds on this package.
        from repro.api import ShardConfig, Session, SessionConfig
        self.workload = workload
        self.config = config
        self.session = Session(
            config=SessionConfig(shard=ShardConfig(shards=config.shards)),
            backend=config.backend,
            engine_config=config.engine_config(),
            scheduler_config=SchedulerConfig(workers=config.workers),
            client_config=client_config,
            controls=MultiLevelControls(mode=DeploymentMode.OPT_OUT),
            policy=config.policy,
            selection_algorithm=config.selection_algorithm,
            faults=faults if faults is not None else FaultPlan(),
            recorder=recorder,
        )
        self.session.loop.enabled = config.cloudviews_enabled
        self.engine = self.session.engine

    def run(self) -> ConcurrentSimulationReport:
        started = time.perf_counter()
        session = self.session
        loop = session.loop
        results: List[JobResult] = []
        shard_stats = None
        with session:
            self.workload.install(session.engine, at=0.0)
            for day in range(self.config.days):
                if day > 0:
                    loop.day_boundary(self.workload, day,
                                      day * SECONDS_PER_DAY)
                for wave_time, wave in itertools.groupby(
                        self.workload.jobs_for_day(day),
                        key=lambda instance: instance.submit_time):
                    results.extend(session.run_batch(
                        [_request(instance) for instance in wave],
                        now=wave_time))
            if session.supervisor is not None:
                shard_stats = session.service.shard_stats()
        return ConcurrentSimulationReport(
            config=self.config,
            results=results,
            repository=loop.repository,
            views_created=session.views_created,
            views_reused=session.views_reused,
            catalog_digest=session.catalog_digest(),
            wall_seconds=time.perf_counter() - started,
            selections=loop.selections,
            shard_stats=shard_stats,
        )


def _request(instance: JobInstance) -> JobRequest:
    template = instance.template
    return JobRequest(
        sql=template.sql,
        params=dict(instance.params),
        virtual_cluster=template.virtual_cluster,
        template_id=template.template_id,
        pipeline_id=template.pipeline_id,
    )
