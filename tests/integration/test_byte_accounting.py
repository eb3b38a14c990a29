"""Byte-accounting oracle: sizes kept with the data equal re-walked ones.

The executor no longer re-walks every operator's rows to size them:
scans read per-column totals kept with the stored blob, ViewScans the
stored size, and Spools and Sorts their child's size.  These tests capture every operator's output rows over a 2-day
cooking workload and TPC-DS, with reuse on (so Spools and ViewScans
occur), and re-walk them with the width rule written out independently.
"""

from repro.api import Session
from repro.core.controls import MultiLevelControls
from repro.executor.executor import Executor
from repro.plan.logical import Scan
from repro.selection.policies import SelectionPolicy
from repro.storage.store import DataStore
from repro.workload.generator import generate_workload
from repro.workload.tpcds import TPCDS_QUERIES, install_tpcds

SECONDS_PER_DAY = 86400.0

#: Operators the TPC-DS suite does not reach: Sort, a Limit that keeps a
#: few rows and one that keeps them all, Distinct and Union.
EXTRA_QUERIES = (
    ("top_brands", "SELECT i_brand, i_category FROM item "
                   "ORDER BY i_brand LIMIT 3"),
    ("all_quantities", "SELECT ss_quantity FROM store_sales "
                       "ORDER BY ss_quantity DESC LIMIT 1000000"),
    ("states", "SELECT DISTINCT c_state FROM customer"),
    ("names", "SELECT i_brand FROM item UNION ALL "
              "SELECT c_state FROM customer"),
)


def walked_bytes(rows):
    """The width rule, as the ``isinstance`` chain it was first written
    as: booleans 1, strings their length (at least 1), all else 8."""
    total = 0
    for row in rows:
        for value in row.values():
            if isinstance(value, bool):
                total += 1
            elif isinstance(value, str):
                total += max(1, len(value))
            else:
                total += 8
    return total


class Recorder:
    """Captures every execution and every store read/write of a session."""

    def __init__(self, monkeypatch):
        self.results = []
        self.written = 0
        self.read = 0
        real_execute = Executor.execute
        real_put = DataStore.put
        real_get = DataStore.get

        def execute(executor, plan):
            executor.capture_rows = True
            result = real_execute(executor, plan)
            self.results.append(result)
            return result

        def put(store, key, rows, size=0):
            self.written += walked_bytes(rows)
            return real_put(store, key, rows, size)

        def get(store, key):
            rows = real_get(store, key)
            self.read += walked_bytes(rows)
            return rows

        monkeypatch.setattr(Executor, "execute", execute)
        monkeypatch.setattr(DataStore, "put", put)
        monkeypatch.setattr(DataStore, "get", get)

    def check(self, store):
        kinds = set()
        nodes = 0
        for result in self.results:
            for node, stats in result.node_stats:
                rows = result.node_rows[id(node)]
                assert stats.bytes_out == walked_bytes(rows), \
                    node.describe()
                kinds.add(node.op_label)
                nodes += 1
            assert result.output_bytes == walked_bytes(result.rows)
        assert nodes > 0
        assert store.bytes_written == self.written
        assert store.bytes_read == self.read
        return kinds


def session_for(clusters):
    controls = MultiLevelControls()
    for vc in clusters:
        controls.enable_vc(vc)
    return Session(
        backend="memory",
        controls=controls,
        selection_algorithm="bigsubs",
        policy=SelectionPolicy(storage_budget_bytes=50_000_000,
                               min_reuses_per_epoch=0.0),
    )


def test_cooking_workload_bytes_match_rewalk(monkeypatch):
    workload = generate_workload(
        name="bytes", seed=7, virtual_clusters=2, templates_per_vc=4,
        fact_rows_per_day=240, adhoc_per_day=2)
    recorder = Recorder(monkeypatch)
    with session_for(workload.virtual_clusters) as session:
        workload.install(session.engine, at=0.0)
        for day in range(2):
            if day > 0:
                workload.cook(session.engine, day)
                session.evict_expired(now=day * SECONDS_PER_DAY)
            for job in workload.jobs_for_day(day):
                session.run(job.template.sql, params=job.params,
                            virtual_cluster=job.virtual_cluster,
                            template_id=job.template.template_id,
                            pipeline_id=job.template.pipeline_id,
                            now=job.submit_time)
            session.analyze_and_publish()
        assert session.views_created and session.views_reused
        kinds = recorder.check(session.engine.store)
    assert {"Scan", "Filter", "Join", "Spool", "ViewScan"} <= kinds


def test_tpcds_bytes_match_rewalk(monkeypatch):
    recorder = Recorder(monkeypatch)
    with session_for(["default"]) as session:
        install_tpcds(session.engine, scale_rows=300, seed=42)
        for round_no in (1, 2):
            for offset, (name, sql) in enumerate(TPCDS_QUERIES
                                                 + EXTRA_QUERIES):
                session.run(sql, template_id=name,
                            now=1000.0 * round_no + offset)
            if round_no == 1:
                session.analyze_and_publish()
        assert session.views_created and session.views_reused
        kinds = recorder.check(session.engine.store)
    assert {"Scan", "Filter", "Join", "GroupBy", "Spool", "ViewScan",
            "Sort", "Limit", "Distinct", "Union"} <= kinds


def test_projecting_scan_bytes_match_rewalk():
    # The planner's scans read a table's whole schema, so the workloads
    # above never project stored rows onto other columns; this one does,
    # dropping a column and reading one no row holds.
    store = DataStore()
    store.put("guid-t", [{"a": "xy", "b": 1, "extra": "zzz"}, {"a": True}])
    result = Executor(store).execute(Scan("t", ("a", "b", "missing"),
                                          "guid-t"))
    assert result.output_bytes == walked_bytes(result.rows) == \
        (2 + 8 + 8) + (1 + 8 + 8)
