"""Integration tests: runtime upgrades and re-analysis (Section 4).

"Sometimes they also evolve with new SCOPE runtime ... As a result, all
existing materialized views get invalidated.  Thus, evolving signatures
is very tricky since we need to keep track of changes that can affect
signatures and re-run any prior workload analysis."
"""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.core import MultiLevelControls
from repro.selection import SelectionPolicy


@pytest.fixture
def session():
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    session = Session(controls=controls,
                      policy=SelectionPolicy(min_reuses_per_epoch=0.0))
    session.engine.register_table(
        schema_of("T", [("k", "int"), ("v", "float")]),
        [dict(k=i % 5, v=float(i)) for i in range(60)])
    session.engine.register_table(
        schema_of("D", [("k", "int"), ("n", "str")]),
        [dict(k=i, n=f"x{i}") for i in range(5)])
    yield session
    session.close()


SQL_A = "SELECT n, SUM(v) AS s FROM T JOIN D GROUP BY n"
SQL_B = "SELECT n, COUNT(*) AS c FROM T JOIN D GROUP BY n"


def observe_round(session, now):
    session.run(SQL_A, virtual_cluster="vc1", template_id="a", now=now)
    session.run(SQL_B, virtual_cluster="vc1", template_id="b", now=now + 1)


class TestRuntimeUpgrade:
    def test_upgrade_withdraws_annotations(self, session):
        observe_round(session, 0.0)
        session.analyze_and_publish()
        assert session.engine.insights.annotation_count() > 0
        session.handle_runtime_upgrade("scope-r2")
        assert session.engine.insights.annotation_count() == 0
        assert session.last_selection is None

    def test_analysis_ignores_old_runtime_records(self, session):
        observe_round(session, 0.0)
        session.handle_runtime_upgrade("scope-r2")
        # Only old-runtime records exist: analysis must select nothing.
        result = session.analyze_and_publish()
        assert result.selected == []

    def test_reanalysis_after_new_observations(self, session):
        observe_round(session, 0.0)
        session.analyze_and_publish()
        session.handle_runtime_upgrade("scope-r2")
        # Fresh observations under the new runtime restore the loop.
        observe_round(session, 100.0)
        result = session.analyze_and_publish()
        assert result.selected
        builder = session.run(SQL_A, virtual_cluster="vc1",
                                 template_id="a", now=200.0)
        reuser = session.run(SQL_B, virtual_cluster="vc1",
                                template_id="b", now=201.0)
        assert builder.compiled.built_views >= 1
        assert reuser.compiled.reused_views >= 1

    def test_results_stable_across_upgrade(self, session):
        before = session.run(SQL_A, virtual_cluster="vc1",
                                template_id="a", now=0.0)
        session.handle_runtime_upgrade("scope-r2")
        after = session.run(SQL_A, virtual_cluster="vc1",
                               template_id="a", now=1.0)
        assert sorted(map(repr, before.rows)) == sorted(map(repr, after.rows))

    def test_mixed_runtime_repository_partitions_cleanly(self, session):
        observe_round(session, 0.0)
        session.handle_runtime_upgrade("scope-r2")
        observe_round(session, 100.0)
        old = session.repository.for_runtime("scope-r1")
        new = session.repository.for_runtime("scope-r2")
        assert old.total_jobs() == 2
        assert new.total_jobs() == 2
        # The same logical plans hash differently across runtimes.
        old_signatures = {r.recurring for r in old.subexpressions}
        new_signatures = {r.recurring for r in new.subexpressions}
        assert not (old_signatures & new_signatures)
