"""Integration tests: the complete CloudViews feedback loop.

Covers the Figure-5 flow end to end: workload observation -> analysis ->
selection -> insights publication -> compile-time buildout -> online
materialization with early sealing -> compile-time matching -> correct
results -> invalidation.
"""

import pytest

from repro.api import Session
from repro.catalog import schema_of
from repro.core import MultiLevelControls
from repro.selection import SelectionPolicy


def result_set(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


@pytest.fixture
def session():
    session = Session(
        controls=_enabled_controls(),
        policy=SelectionPolicy(storage_budget_bytes=10_000_000,
                               min_reuses_per_epoch=0.0),
        selection_algorithm="bigsubs",
    )
    engine = session.engine
    engine.register_table(
        schema_of("Events", [("UserId", "int"), ("Day", "str"),
                             ("Value", "float")]),
        [dict(UserId=i % 7, Day="d0", Value=float(i)) for i in range(80)])
    engine.register_table(
        schema_of("Users", [("UserId", "int"), ("Segment", "str")]),
        [dict(UserId=i, Segment="Asia" if i % 2 else "Europe")
         for i in range(7)])
    yield session
    session.close()


def _enabled_controls():
    controls = MultiLevelControls()
    controls.enable_vc("vc1")
    return controls


Q1 = ("SELECT UserId, SUM(Value) AS total FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY UserId")
Q2 = ("SELECT Segment, COUNT(*) AS n FROM Events JOIN Users "
      "WHERE Segment = 'Asia' AND Day = @run GROUP BY Segment")
PARAMS = {"run": "d0"}


class TestFullLoop:
    def test_observe_select_build_reuse(self, session):
        # Round 1: observe the workload (no reuse possible yet).
        r1 = session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                         template_id="t1", now=0.0)
        r2 = session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                         template_id="t2", now=1.0)
        assert r1.compiled.built_views == 0

        # Feedback: analyze and publish selections.
        selection = session.analyze_and_publish()
        assert selection.selected

        # Round 2: the first job materializes, the second reuses.
        r3 = session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                         template_id="t1", now=10.0)
        r4 = session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                         template_id="t2", now=11.0)
        assert r3.compiled.built_views >= 1
        assert r4.compiled.reused_views >= 1

        # Correctness: reuse changes nothing about the answers.
        assert result_set(r3.rows) == result_set(r1.rows)
        assert result_set(r4.rows) == result_set(r2.rows)

    def test_reuse_across_different_queries(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=10.0)
        run = session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                          template_id="t2", now=11.0)
        # Q2 reuses a view built by Q1 -- cross-query sharing.
        assert run.compiled.reused_views >= 1

    def test_first_job_pays_materialization_overhead(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        builder = session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                              template_id="t1", now=10.0)
        # Section 2.4 "User expectations": the builder's plan costs more
        # than the plain plan would (spool write overhead).
        assert builder.compiled.optimized.estimated_cost > \
            builder.compiled.optimized.estimated_cost_without_reuse

    def test_reuser_is_cheaper(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=10.0)
        reuser = session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                             template_id="t2", now=11.0)
        assert reuser.compiled.optimized.estimated_cost < \
            reuser.compiled.optimized.estimated_cost_without_reuse

    def test_bulk_update_stops_reuse_then_rebuilds(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=10.0)

        session.engine.bulk_update(
            "Events",
            [dict(UserId=i % 7, Day="d0", Value=float(i * 2))
             for i in range(90)], at=20.0)
        rebuilt = session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                              template_id="t1", now=21.0)
        assert rebuilt.compiled.reused_views == 0
        assert rebuilt.compiled.built_views >= 1  # just-in-time rebuild

    def test_views_counted(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=10.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=11.0)
        assert session.views_created >= 1
        assert session.views_reused >= 1
        assert session.storage_in_use(now=12.0) > 0

    def test_purge_stops_reuse(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        builder = session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                              template_id="t1", now=10.0)
        for signature in builder.sealed_views:
            session.purge_view(signature)
        run = session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                          template_id="t2", now=11.0)
        assert run.compiled.reused_views == 0

    def test_eviction_frees_storage(self, session):
        session.engine.view_store.ttl_seconds = 50.0
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=10.0)
        assert session.storage_in_use(now=11.0) > 0
        evicted = session.evict_expired(now=1000.0)
        assert evicted >= 1
        assert session.storage_in_use(now=1000.0) == 0


class TestControlsIntegration:
    def test_disabled_vc_never_reuses(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc2",
                    template_id="t1", now=0.0)
        session.run(Q1, params=PARAMS, virtual_cluster="vc2",
                    template_id="t1", now=1.0)
        session.analyze_and_publish()
        run = session.run(Q1, params=PARAMS, virtual_cluster="vc2",
                          template_id="t1", now=10.0)
        assert run.compiled.built_views == 0
        assert run.compiled.reused_views == 0

    def test_job_override_disables_one_job(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        run = session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                          template_id="t1",
                             reuse_override=False, now=10.0)
        assert run.compiled.built_views == 0

    def test_service_kill_switch(self, session):
        session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                    template_id="t1", now=0.0)
        session.run(Q2, params=PARAMS, virtual_cluster="vc1",
                    template_id="t2", now=1.0)
        session.analyze_and_publish()
        session.engine.insights.enabled = False
        run = session.run(Q1, params=PARAMS, virtual_cluster="vc1",
                          template_id="t1", now=10.0)
        assert run.compiled.built_views == 0
        assert run.compiled.reused_views == 0
