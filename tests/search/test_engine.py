"""The fast search engine returns exactly what the seed search would.

Covers :func:`repro.search.engine.find_best_placement` against a
verbatim seed loop (reference enumerator + ``score_placement`` + first
strict optimum), the rewired :class:`ExhaustiveSearchPolicy`, the
incremental annealer's trajectory parity, robust ranking through the
cache, and the planner's probe memoization.
"""

from __future__ import annotations

import pytest

from repro.faults.analytic import RobustnessTerm
from repro.faults.models import RandomFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.scheduler.annealing import SimulatedAnnealingPolicy
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.scheduler.planner import ResourceConstrainedPlanner
from repro.scheduler.policies import ExhaustiveSearchPolicy
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
)
from repro.search import find_best_placement
from repro.search.cache import StageCache
from repro.search.reference import enumerate_placements_reference
from repro.util.errors import PlacementError


def _seed_best(spec, num_nodes, cores_per_node, robustness=None):
    """The pre-engine search loop, verbatim: first strict optimum wins."""
    best = None
    evaluated = 0
    for placement in enumerate_placements_reference(
        spec, num_nodes, cores_per_node
    ):
        score = score_placement(
            spec, placement, context=PlanningContext(robustness=robustness)
        )
        evaluated += 1
        if best is None or score > best:
            best = score
    return best, evaluated


def _robustness_term():
    return RobustnessTerm(
        policy=RetryBackoffPolicy(),
        model=RandomFailureModel(rate=0.01, seed=0),
    )


class TestFindBestPlacement:
    def test_matches_seed_loop(self, two_member_spec):
        fast, fast_n = find_best_placement(two_member_spec, 3, 32)
        seed, seed_n = _seed_best(two_member_spec, 3, 32)
        assert fast_n == seed_n
        assert fast.placement == seed.placement
        assert fast.objective == seed.objective
        assert fast.ensemble_makespan == seed.ensemble_makespan
        assert fast.member_indicators == seed.member_indicators

    def test_matches_seed_loop_with_robustness(self, two_member_spec):
        term = _robustness_term()
        fast, fast_n = find_best_placement(
            two_member_spec, 3, 32, context=PlanningContext(robustness=term)
        )
        seed, seed_n = _seed_best(two_member_spec, 3, 32, robustness=term)
        assert fast_n == seed_n
        assert fast.placement == seed.placement
        assert fast.robust_penalty == seed.robust_penalty
        assert fast.utility == seed.utility

    def test_shared_cache_same_winner(self, two_member_spec):
        cache = StageCache()
        context = PlanningContext(cache=cache)
        first, _ = find_best_placement(two_member_spec, 3, 32, context=context)
        misses = cache.stage_misses
        second, _ = find_best_placement(
            two_member_spec, 3, 32, context=context
        )
        assert cache.stage_misses == misses  # warm re-search: all hits
        assert second.placement == first.placement
        assert second.objective == first.objective

    def test_infeasible_budget_raises(self, two_member_spec):
        with pytest.raises(PlacementError):
            find_best_placement(two_member_spec, 1, 8)


class TestExhaustivePolicy:
    def test_policy_matches_engine(self, two_member_spec):
        policy = ExhaustiveSearchPolicy()
        placement = policy.place(two_member_spec, 3, 32)
        best, evaluated = find_best_placement(two_member_spec, 3, 32)
        assert placement == best.placement
        assert policy.evaluated == evaluated
        assert policy.evaluated > 0

    def test_policy_matches_seed_loop(self, two_member_spec):
        seed, _ = _seed_best(two_member_spec, 3, 32)
        placement = ExhaustiveSearchPolicy().place(two_member_spec, 3, 32)
        assert placement == seed.placement


class TestIncrementalAnnealing:
    KWARGS = dict(plateau=20, cooling=0.8, min_temperature_ratio=1e-2)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_trajectory_parity(self, two_member_spec, seed):
        # the incremental annealer must make the same RNG draws, the
        # same acceptance decisions, and land on the same placement as
        # the full score-everything path
        full = SimulatedAnnealingPolicy(
            seed=seed, incremental=False, **self.KWARGS
        )
        fast = SimulatedAnnealingPolicy(
            seed=seed, incremental=True, **self.KWARGS
        )
        full_placement = full.place(two_member_spec, 3, 32)
        fast_placement = fast.place(two_member_spec, 3, 32)
        assert fast_placement == full_placement
        assert fast.stats.evaluations == full.stats.evaluations
        assert fast.stats.accepted == full.stats.accepted
        assert fast.stats.improved == full.stats.improved

    def test_trajectory_parity_with_robustness(self, two_member_spec):
        full = SimulatedAnnealingPolicy(
            seed=3, incremental=False,
            robustness=_robustness_term(), **self.KWARGS,
        )
        fast = SimulatedAnnealingPolicy(
            seed=3, incremental=True,
            robustness=_robustness_term(), **self.KWARGS,
        )
        full_placement = full.place(two_member_spec, 3, 32)
        fast_placement = fast.place(two_member_spec, 3, 32)
        assert fast_placement == full_placement
        assert fast.stats.accepted == full.stats.accepted

    def test_shared_cache_same_result(self, two_member_spec):
        cache = StageCache()
        a = SimulatedAnnealingPolicy(
            seed=5, cache=cache, **self.KWARGS
        ).place(two_member_spec, 3, 32)
        b = SimulatedAnnealingPolicy(
            seed=5, cache=cache, **self.KWARGS
        ).place(two_member_spec, 3, 32)
        assert a == b


class TestRobustRankingCache:
    def _candidates(self, two_member_spec):
        from repro.runtime.placement import (
            EnsemblePlacement,
            MemberPlacement,
        )

        return {
            "colocated": EnsemblePlacement(
                2, (MemberPlacement(0, (0,)), MemberPlacement(1, (1,)))
            ),
            "split": EnsemblePlacement(
                4, (MemberPlacement(0, (1,)), MemberPlacement(2, (3,)))
            ),
        }

    def test_surrogate_ranking_with_cache_identical(self, two_member_spec):
        candidates = self._candidates(two_member_spec)
        factory = crash_straggler_factory(0.05)
        policy = RetryBackoffPolicy()
        plain = rank_placements_robust(
            two_member_spec, candidates, factory, policy,
            method="surrogate",
        )
        cached = rank_placements_robust(
            two_member_spec, candidates, factory, policy,
            method="surrogate", context=PlanningContext(cache=StageCache()),
        )
        assert [s.name for s in cached] == [s.name for s in plain]
        assert [s.objective for s in cached] == [
            s.objective for s in plain
        ]
        assert [s.mean_inflation for s in cached] == [
            s.mean_inflation for s in plain
        ]


class TestPlannerProbeMemoization:
    def test_probes_run_once_per_core_count(self, two_member_spec):
        planner = ResourceConstrainedPlanner()
        planner.plan(two_member_spec, 3)
        # the heuristic, its fallback, and the sweep may each walk the
        # candidate list, but every count is predicted at most once
        assert 0 < planner.probe_evaluations <= len(planner.core_counts)

    def test_cached_planner_same_plan(self, two_member_spec):
        plain = ResourceConstrainedPlanner().plan(two_member_spec, 3)
        cached = ResourceConstrainedPlanner(
            context=PlanningContext(cache=StageCache())
        ).plan(two_member_spec, 3)
        assert cached.placement == plain.placement
        assert cached.analysis_cores == plain.analysis_cores
        assert cached.score.objective == plain.score.objective
        assert (
            cached.score.ensemble_makespan
            == plain.score.ensemble_makespan
        )
