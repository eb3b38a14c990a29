"""Workload definitions and the replay loop of the wall-clock benchmark.

Each workload replays a generated cooking workload through the public
:class:`repro.api.Session` surface.  One *pass* is: construct a session,
install the shared datasets (the set-up, timed on its own), then replay
every simulated day -- the day-boundary cook, view eviction and (with
reuse on) view selection, followed by that day's jobs.  The benchmark
repeats passes until its time is up; every pass of one run replays the
same inputs, so their answers, decisions and catalogs must agree.

The load is a closed loop: a serial workload is one client that sends its
next job only after ``Session.run`` returned; the wave workload is one
submitter handing a wave of jobs to ``Session.run_batch`` and waiting for
the whole wave.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import (
    JobRequest,
    LifecycleConfig,
    MultiLevelControls,
    SchedulerConfig,
    SelectionPolicy,
    Session,
)
from repro.backends.differential import canonical_rows
from repro.faults import FaultPlan
from repro.workload.generator import CookingWorkload, JobInstance, \
    generate_workload

SECONDS_PER_DAY = 86400.0
SECONDS_PER_HOUR = 3600.0
#: Trailing window, in days, that view selection analyzes at each boundary.
SELECTION_WINDOW_DAYS = 3
#: The recurring templates are part of the workload's definition, drawn
#: once from the generator's default seed; ``--seed`` draws everything
#: else (see :func:`make_inputs`).
TEMPLATE_SEED = 7


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    backend: str
    reuse: bool
    #: 0 runs jobs serially through ``Session.run``; N > 0 submits hourly
    #: waves through ``Session.run_batch`` on N scheduler workers.
    workers: int = 0
    adhoc_per_day: int = 6
    journal: bool = False
    #: Simulated days per pass: enough for at least 200 jobs.
    days: int = 5


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    # The production path: every reuse layer works.
    WorkloadSpec(name="cook-reuse", backend="memory", reuse=True),
    # The same jobs with reuse off: the interpreter dominates.  Not
    # declared in BENCHMARK.json, so only run by name: two workloads of
    # 50-second runs fit the time all declared runs may take, and shorter
    # runs spread too much on a shared host (README.md, "Run length").
    WorkloadSpec(name="cook-noreuse", backend="memory", reuse=False),
    # Compile-bound SQLite, CTAS views, the journal, the scheduler and
    # one-off jobs.
    WorkloadSpec(name="mixed-waves-sqlite", backend="sqlite", reuse=True,
                 workers=2, adhoc_per_day=40, journal=True, days=4),
)}


def reference_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """The reuse-free replay whose rows every job of ``spec`` must match.

    ``cook-noreuse`` is the reference of ``cook-reuse`` and a reuse-off
    memory replay that of ``mixed-waves-sqlite``; ``cook-noreuse`` itself
    is checked against a reuse-off replay on the other backend, SQLite.
    """
    backend = "sqlite" if not spec.reuse else "memory"
    return WorkloadSpec(name=f"{spec.name}:reference", backend=backend,
                        reuse=False, adhoc_per_day=spec.adhoc_per_day,
                        days=spec.days)


def make_inputs(spec: WorkloadSpec, seed: int) -> CookingWorkload:
    """The generated inputs: only these reach the program.

    The recurring templates (their SQL, pipelines and arrival times) come
    from :data:`TEMPLATE_SEED`, like a fixed query suite; ``seed`` draws
    the dimension tables, each day's fact streams and the ad-hoc
    queries.  With ~8 shared fragments per template set, the choice of
    templates alone moves jobs/s by tens of percent between seeds, which
    would drown the changes the benchmark exists to detect.
    """
    workload = generate_workload(
        name="bench", seed=TEMPLATE_SEED, virtual_clusters=3,
        templates_per_vc=16, adhoc_per_day=spec.adhoc_per_day)
    return dataclasses.replace(workload, seed=seed)


def job_key(day: int, job: JobInstance) -> str:
    return f"d{day}:{job.template.template_id}"


def row_digest(rows) -> str:
    text = "\n".join(canonical_rows(rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hourly_waves(jobs: List[JobInstance]) -> List[List[JobInstance]]:
    """Group one day's arrivals into one wave per simulated hour."""
    waves: Dict[int, List[JobInstance]] = {}
    for job in jobs:
        waves.setdefault(int(job.submit_time // SECONDS_PER_HOUR),
                         []).append(job)
    return [waves[hour] for hour in sorted(waves)]


@dataclass
class PassResult:
    """One replay of a workload's days on a fresh session.

    ``segments`` holds the timed sections in replay order -- each day
    boundary, each serial job, each wave -- as (seconds, jobs in it).
    Every pass of a run replays the same sections in the same order.
    """

    setup_s: float = 0.0
    segments: List[Tuple[float, int]] = field(default_factory=list)
    jobs: int = 0
    failed: int = 0
    recurring_jobs: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    #: (section index, job key, views built, views reused) per job.
    decisions: List[Tuple[int, str, int, int]] = field(default_factory=list)
    catalog_digest: str = ""
    counters: Dict[str, float] = field(default_factory=dict)

    def decision_digest(self) -> str:
        """Views built and reused per timed section, plus the final
        catalog digest.

        A serial section is one job, so this covers every job's own
        decisions.  Within a wave, which of two concurrent jobs builds a
        view they share is decided by thread timing (see
        :meth:`moved_decisions`), so a wave contributes its totals.
        """
        totals: Dict[int, List[int]] = {}
        for section, _, built, reused in self.decisions:
            total = totals.setdefault(section, [0, 0])
            total[0] += built
            total[1] += reused
        text = "\n".join(f"{section} {built} {reused}"
                         for section, (built, reused) in totals.items())
        text += "\n" + self.catalog_digest
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def moved_decisions(self, other: "PassResult") -> int:
        """Jobs whose own build/reuse counts differ from ``other``'s."""
        return sum(mine != theirs for mine, theirs
                   in zip(self.decisions, other.decisions))


def open_session(spec: WorkloadSpec, inputs: CookingWorkload,
                 journal_dir: Optional[str]) -> Session:
    """Session construction, dataset install and journal open."""
    controls = MultiLevelControls()
    if spec.reuse:
        for vc in inputs.virtual_clusters:
            controls.enable_vc(vc)
    session = Session(
        backend=spec.backend,
        controls=controls,
        selection_algorithm="bigsubs",
        policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                               materialization_lag_seconds=150.0,
                               min_reuses_per_epoch=2.0),
        scheduler_config=SchedulerConfig(workers=max(1, spec.workers)),
        lifecycle=(LifecycleConfig(journal_dir=journal_dir)
                   if journal_dir is not None else None),
        # An explicit empty plan: REPRO_FAULTS in the environment must
        # not perturb the measurement.
        faults=FaultPlan(),
    )
    try:
        inputs.install(session.engine, at=0.0)
    except BaseException:
        session.close()
        raise
    return session


def time_setup(spec: WorkloadSpec, inputs: CookingWorkload,
               scratch: str) -> float:
    """One set-up measured on its own; the session is closed untimed."""
    journal_dir = tempfile.mkdtemp(dir=scratch) if spec.journal else None
    try:
        started = time.perf_counter()
        session = open_session(spec, inputs, journal_dir)
        elapsed = time.perf_counter() - started
        session.close()
    finally:
        if journal_dir is not None:
            shutil.rmtree(journal_dir, ignore_errors=True)
    return elapsed


def replay(spec: WorkloadSpec, inputs: CookingWorkload, scratch: str,
           tracer=None) -> PassResult:
    """One pass.  Only set-up, jobs and day boundaries are timed; row
    digests are taken between timed sections."""
    result = PassResult()
    journal_dir = tempfile.mkdtemp(dir=scratch) if spec.journal else None
    try:
        started = time.perf_counter()
        session = open_session(spec, inputs, journal_dir)
        result.setup_s = time.perf_counter() - started
        try:
            for day in range(spec.days):
                if day > 0:
                    started = time.perf_counter()
                    _day_boundary(spec, inputs, session, day)
                    result.segments.append(
                        (time.perf_counter() - started, 0))
                jobs = inputs.jobs_for_day(day)
                if spec.workers:
                    for wave in hourly_waves(jobs):
                        _run_wave(session, day, wave, result, tracer)
                else:
                    for job in jobs:
                        _run_one(session, day, job, result, tracer)
            result.catalog_digest = session.catalog_digest()
            result.counters = session_counters(session)
        finally:
            session.close()
    finally:
        if journal_dir is not None:
            shutil.rmtree(journal_dir, ignore_errors=True)
    return result


def _day_boundary(spec: WorkloadSpec, inputs: CookingWorkload,
                  session: Session, day: int) -> None:
    now = day * SECONDS_PER_DAY
    inputs.cook(session.engine, day)
    session.evict_expired(now)
    if spec.reuse:
        session.analyze_and_publish(
            window_start=now - SELECTION_WINDOW_DAYS * SECONDS_PER_DAY,
            window_end=now)


def _run_one(session: Session, day: int, job: JobInstance,
             result: PassResult, tracer) -> None:
    key = job_key(day, job)
    if tracer is not None:
        tracer.job = key
    template = job.template
    started = time.perf_counter()
    try:
        outcome = session.run(
            template.sql, params=job.params,
            virtual_cluster=template.virtual_cluster,
            template_id=template.template_id,
            pipeline_id=template.pipeline_id,
            now=job.submit_time)
    except Exception:  # a failed job is counted, not fatal to the pass
        outcome = None
    result.segments.append((time.perf_counter() - started, 1))
    _record(result, key, template.recurring, outcome)


def _run_wave(session: Session, day: int, wave: List[JobInstance],
              result: PassResult, tracer) -> None:
    requests = [JobRequest(
        sql=job.template.sql, params=dict(job.params),
        virtual_cluster=job.template.virtual_cluster,
        template_id=job.template.template_id,
        pipeline_id=job.template.pipeline_id) for job in wave]
    if tracer is not None:
        tracer.job = None
    started = time.perf_counter()
    outcomes = session.run_batch(requests, now=wave[-1].submit_time)
    result.segments.append((time.perf_counter() - started, len(wave)))
    for job, outcome in zip(wave, outcomes):
        _record(result, job_key(day, job), job.template.recurring, outcome)


def _record(result: PassResult, key: str, recurring: bool,
            outcome) -> None:
    """One job's outcome, in the timed section just appended."""
    result.jobs += 1
    result.recurring_jobs += recurring
    section = len(result.segments) - 1
    if outcome is None or not outcome.ok:
        result.failed += 1
        result.digests[key] = "failed"
        result.decisions.append((section, key, -1, -1))
        return
    result.digests[key] = row_digest(outcome.rows)
    result.decisions.append(
        (section, key, outcome.views_built, outcome.views_reused))


def session_counters(session: Session) -> Dict[str, float]:
    """The program's own counters at the end of a pass."""
    client = session.insights
    usage = client.metrics.snapshot()
    views = session.engine.view_store
    store = session.engine.store
    journal = session.lifecycle.journal if session.lifecycle else None
    return {
        "views_built": session.views_created,
        "views_reused": session.views_reused,
        "views_purged": views.total_purged,
        "fetches": usage["fetches"],
        "locks_acquired": usage["locks_acquired"],
        "locks_denied": usage["locks_denied"],
        "retries": client.retries,
        "degraded": client.degraded_fetches,
        "cache_hits": client.cache_hits,
        "cache_misses": client.cache_misses,
        "bytes_put": store.bytes_written if store is not None else 0,
        "journal_appends": journal.ops_written if journal else 0,
    }
