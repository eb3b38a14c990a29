"""Span tracing of the program's layers, from outside the program.

:class:`Tracer` wraps the public entry points of the ``repro`` modules
(plus the SQLite backend's spool writer, where CTAS view writes happen)
while it is installed, and restores the originals when it is removed.
Every wrapped call records a span -- name, start, end, parent span, job
id and thread -- kept in memory until the run ends.  A layer's self time
is its spans' duration minus the part covered by their child spans; the
per-layer metrics are built from those self times plus the program's own
counters at the end of each pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from repro.api import Session
from repro.backends.memory import InMemoryBackend
from repro.backends.sqlite.backend import SqliteBackend
from repro.engine.engine import ScopeEngine
from repro.insights.client import InsightsClient
from repro.lifecycle.journal import CatalogJournal
from repro.optimizer.stats import CardinalityEstimator
from repro.plan.builder import PlanBuilder
from repro.storage.store import DataStore

#: (module, function, span name): module-level functions are replaced in
#: every ``repro`` module that imported them by name.
FUNCTIONS = (
    ("repro.sql.parser", "parse", "sql.parse"),
    ("repro.plan.normalize", "normalize", "plan.normalize"),
    ("repro.signatures.signature", "strict_signature", "signatures.strict"),
    ("repro.signatures.signature", "recurring_signature",
     "signatures.recurring"),
    ("repro.signatures.signature", "enumerate_subexpressions",
     "signatures.enumerate"),
    ("repro.optimizer.rules", "apply_rewrites", "optimizer.rewrites"),
    ("repro.optimizer.pipeline", "optimize", "optimizer.optimize"),
    ("repro.optimizer.view_matching", "match_views", "optimizer.match"),
    ("repro.optimizer.view_buildout", "insert_spools", "optimizer.buildout"),
    ("repro.core.runner", "record_job_into", "workload.ingest"),
    ("repro.selection.candidates", "build_candidates",
     "selection.candidates"),
)

#: (class, method, span name).
METHODS = (
    (Session, "run", "session.run"),
    (Session, "run_batch", "session.run_batch"),
    (Session, "analyze_and_publish", "selection.epoch"),
    (PlanBuilder, "build", "plan.build"),
    (CardinalityEstimator, "estimate", "optimizer.estimate"),
    (InsightsClient, "fetch_annotations", "insights.fetch"),
    (ScopeEngine, "compile", "engine.compile"),
    (ScopeEngine, "execute", "engine.execute"),
    (ScopeEngine, "bulk_update", "engine.bulk_update"),
    (InMemoryBackend, "execute", "backends.execute"),
    (SqliteBackend, "execute", "backends.execute"),
    (InMemoryBackend, "materialize_view", "backends.materialize"),
    (SqliteBackend, "materialize_view", "backends.materialize"),
    (SqliteBackend, "_materialize_spool", "backends.materialize"),
    (InMemoryBackend, "load_table", "backends.load_table"),
    (SqliteBackend, "load_table", "backends.load_table"),
    (DataStore, "put", "storage.put"),
    (DataStore, "get", "storage.get"),
    (CatalogJournal, "append_record", "lifecycle.journal"),
    (CatalogJournal, "snapshot", "lifecycle.snapshot"),
)

#: Per-layer self-time metrics: metric -> the span names it sums.
SELF_TIMES = {
    "sql.parse_s": ("sql.parse",),
    "plan.build_s": ("plan.build", "plan.normalize"),
    "signatures.s": ("signatures.strict", "signatures.recurring",
                     "signatures.enumerate"),
    "optimizer.optimize_s": ("optimizer.optimize", "optimizer.rewrites",
                             "optimizer.estimate"),
    "optimizer.match_s": ("optimizer.match",),
    "optimizer.buildout_s": ("optimizer.buildout",),
    "insights.fetch_s": ("insights.fetch",),
    "engine.compile_self_s": ("engine.compile",),
    "engine.execute_self_s": ("engine.execute",),
    "engine.bulk_update_s": ("engine.bulk_update",),
    "backends.execute_s": ("backends.execute",),
    "backends.materialize_s": ("backends.materialize",),
    "backends.load_table_s": ("backends.load_table",),
    "storage.put_s": ("storage.put",),
    "storage.get_s": ("storage.get",),
    "lifecycle.journal_s": ("lifecycle.journal",),
    "lifecycle.snapshot_s": ("lifecycle.snapshot",),
    "workload.ingest_s": ("workload.ingest",),
    "selection.epoch_s": ("selection.epoch", "selection.candidates"),
}


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self) -> None:
        #: (span id, parent id, name, start ns, end ns, job, thread id)
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        #: Set by the replay loop before each serial job.
        self.job: Optional[str] = None
        self.queue_waits_ms: List[float] = []
        self._wave_start: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # installing the wrappers

    def install(self) -> None:
        if self._restore:
            return
        after = {
            "optimizer.match": self._after_match,
            "optimizer.buildout": self._after_buildout,
            "backends.execute": self._after_execute,
            "backends.load_table": self._after_load,
            "selection.candidates": self._after_candidates,
            "selection.epoch": self._after_epoch,
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original, after.get(name))
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attr, None) is original):
                    self._patch(loaded, attr, wrapper)
        for cls, attr, name in METHODS:
            original = vars(cls)[attr]
            if name == "engine.compile":
                wrapper = self._wrap_compile(original)
            elif name == "session.run_batch":
                wrapper = self._wrap_batch(original)
            else:
                wrapper = self._wrap(name, original, after.get(name))
            self._patch(cls, attr, wrapper)

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((
                    span_id, parent, name, start, end,
                    getattr(local, "job", None) or tracer.job,
                    threading.get_ident()))
            if after is not None:
                after(args, result)
            return result
        return traced

    def _wrap_compile(self, fn):
        """Worker threads learn their job id here, and a wave's queue
        wait ends here: submission to the start of compilation."""
        traced = self._wrap("engine.compile", fn)
        tracer = self

        @functools.wraps(fn)
        def compile_with_job(engine, sql, *args, job_id=None, **kwargs):
            local = tracer._local
            worker = threading.current_thread() is not threading.main_thread()
            if worker:
                local.job = job_id
                if tracer._wave_start is not None:
                    tracer.queue_waits_ms.append(
                        (time.perf_counter_ns() - tracer._wave_start) / 1e6)
            try:
                return traced(engine, sql, *args, job_id=job_id, **kwargs)
            finally:
                if worker:
                    local.job = None
        return compile_with_job

    def _wrap_batch(self, fn):
        traced = self._wrap("session.run_batch", fn)
        tracer = self

        @functools.wraps(fn)
        def batch(*args, **kwargs):
            tracer._wave_start = time.perf_counter_ns()
            try:
                return traced(*args, **kwargs)
            finally:
                tracer._wave_start = None
        return batch

    def _count(self, name: str, amount: int) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def _after_match(self, args, outcome) -> None:
        self._count("matches", len(outcome.matches))

    def _after_buildout(self, args, outcome) -> None:
        self._count("proposals", len(outcome.proposals))

    def _after_execute(self, args, result) -> None:
        self._count("rows_processed", sum(
            stats.rows_in + stats.rows_out for _, stats in result.node_stats))
        self._count("spools", len(result.spooled))

    def _after_load(self, args, result) -> None:
        self._count("rows_loaded", len(args[3]))

    def _after_candidates(self, args, result) -> None:
        self._count("candidates", len(result))

    def _after_epoch(self, args, result) -> None:
        self._count("selected", len(result.selected))

    # ------------------------------------------------------------------ #
    # reading the spans

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child_ns: Dict[int, int] = defaultdict(int)
        for span_id, parent, _, start, end, _, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _, _ in self.spans:
            totals[name] += (end - start - child_ns.get(span_id, 0)) / 1e9
        return totals

    def span_counts(self) -> Counter:
        return Counter(span[2] for span in self.spans)

    def worker_busy_s(self) -> float:
        """Time worker threads spent compiling and executing jobs."""
        main = threading.main_thread().ident
        return sum((end - start) / 1e9
                   for _, parent, name, start, end, _, thread in self.spans
                   if thread != main and not parent
                   and name in ("engine.compile", "engine.execute"))

    def waves_s(self) -> float:
        return sum((end - start) / 1e9 for _, _, name, start, end, _, _
                   in self.spans if name == "session.run_batch")

    def write(self, path: str) -> None:
        """All spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, job, thread \
                    in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "job": job,
                    "thread": thread}) + "\n")
