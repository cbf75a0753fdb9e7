"""Tests for the resource-constrained planner."""

import pytest

from repro.runtime.runner import run_ensemble
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.planner import Plan, ResourceConstrainedPlanner
from repro.scheduler.policies import RoundRobinPolicy
from repro.util.errors import ConfigurationError, PlacementError


@pytest.fixture
def spec():
    return EnsembleSpec(
        "plan-me",
        (
            default_member("em1", num_analyses=2, n_steps=5),
            default_member("em2", num_analyses=2, n_steps=5),
        ),
    )


class TestPlanning:
    def test_chooses_the_paper_core_count(self, spec):
        plan = ResourceConstrainedPlanner().plan(spec, num_nodes=2)
        assert plan.analysis_cores == 8  # the §3.4 answer

    def test_resizes_the_spec(self, spec):
        plan = ResourceConstrainedPlanner().plan(spec, num_nodes=2)
        for member in plan.spec.members:
            assert all(a.cores == 8 for a in member.analyses)
            assert member.simulation.cores == 16  # user-fixed, untouched

    def test_finds_c28_pattern(self, spec):
        plan = ResourceConstrainedPlanner().plan(spec, num_nodes=2)
        for mp in plan.placement.members:
            assert all(n == mp.simulation_node for n in mp.analysis_nodes)

    def test_compacts_generous_budgets(self, spec):
        for budget in (2, 4, 6):
            plan = ResourceConstrainedPlanner().plan(spec, num_nodes=budget)
            assert plan.placement.num_nodes == 2
            assert plan.score.objective == pytest.approx(
                ResourceConstrainedPlanner()
                .plan(spec, num_nodes=2)
                .score.objective
            )

    def test_plan_is_runnable(self, spec):
        plan = ResourceConstrainedPlanner().plan(spec, num_nodes=2)
        result = run_ensemble(plan.spec, plan.placement)
        assert result.ensemble_makespan > 0
        assert result.total_nodes == 2

    def test_custom_policy(self, spec):
        plan = ResourceConstrainedPlanner(policy=RoundRobinPolicy()).plan(
            spec, num_nodes=3
        )
        assert plan.policy_name == "round-robin"

    def test_impossible_budget_rejected(self, spec):
        with pytest.raises(PlacementError):
            ResourceConstrainedPlanner().plan(spec, num_nodes=1)

    def test_empty_core_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceConstrainedPlanner(core_counts=())

    def test_restricted_core_menu(self, spec):
        # force a menu without 8: heuristic must still return a
        # feasible (Eq. 4) count
        plan = ResourceConstrainedPlanner(core_counts=(4, 16)).plan(
            spec, num_nodes=3
        )
        assert plan.analysis_cores == 16

    def test_plan_dataclass_fields(self, spec):
        plan = ResourceConstrainedPlanner().plan(spec, num_nodes=2)
        assert isinstance(plan, Plan)
        assert plan.core_choice.cores == plan.analysis_cores
        assert plan.score.placement == plan.placement


class TestProbePlatform:
    def _probed(self, monkeypatch, context):
        import repro.scheduler.planner as planner_mod

        seen = []
        original = planner_mod.predict_member_stages

        def recording(spec, placement, cluster=None, dtl=None, **kwargs):
            seen.append((cluster, dtl))
            return original(spec, placement, cluster=cluster, dtl=dtl,
                            **kwargs)

        monkeypatch.setattr(planner_mod, "predict_member_stages", recording)
        spec = EnsembleSpec(
            "probe-me",
            (default_member("em1", num_analyses=2, n_steps=5),),
        )
        plan = ResourceConstrainedPlanner(context=context).plan(spec, 2)
        assert seen
        return plan, seen

    def test_probes_use_the_context_dtl(self, monkeypatch):
        from repro.dtl.pfs import ParallelFilesystemDTL
        from repro.scheduler.context import PlanningContext

        dtl = ParallelFilesystemDTL()
        _, seen = self._probed(monkeypatch, PlanningContext(dtl=dtl))
        assert all(probe_dtl is dtl for _, probe_dtl in seen)

    def test_probes_use_the_context_platform(self, monkeypatch):
        from repro.platform.specs import make_cori_like_cluster
        from repro.scheduler.context import PlanningContext

        cluster = make_cori_like_cluster(1, contention_enabled=False)
        _, seen = self._probed(monkeypatch, PlanningContext(cluster=cluster))
        for probe_cluster, _ in seen:
            # a private allocation of the context's platform, sized to
            # the probe (the context's own cluster has one node)
            assert probe_cluster is not cluster
            assert probe_cluster.node_spec == cluster.node_spec
            assert probe_cluster.contention is cluster.contention
            assert probe_cluster.num_nodes == 3

    def test_default_context_plans_are_unchanged(self, monkeypatch):
        plan, seen = self._probed(monkeypatch, None)
        assert all(c is None and d is None for c, d in seen)
        assert plan.analysis_cores == 8
