"""The unified :class:`PlanningContext` is the one planning spelling.

Every planning entry point takes its scoring context through one
immutable ``context=`` object. The entry points have no keyword
duplicates of the context's fields, so a removed keyword fails loudly
with ``TypeError`` instead of being merged or ignored, and an explicit
context carrying the defaults yields bit-identical floats to omitting
it.
"""

import dataclasses

import pytest

from repro.configs.table2 import get_config
from repro.experiments.base import run_configuration_trials
from repro.faults.batched import rank_placements_batched
from repro.faults.recovery import RetryBackoffPolicy
from repro.platform.specs import make_cori_like_cluster
from repro.scheduler import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.scheduler.planner import ResourceConstrainedPlanner
from repro.scheduler.policies import ExhaustiveSearchPolicy
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
)
from repro.search.cache import StageCache
from repro.search.engine import find_best_placement
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.verify.oracles import DEFAULT_TOLERANCES, run_differential_oracle


def _spec(n_members: int = 2, n_steps: int = 4) -> EnsembleSpec:
    return EnsembleSpec(
        "ctx",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=n_steps)
            for i in range(n_members)
        ),
    )


def _placement(n_members: int = 2) -> EnsemblePlacement:
    return EnsemblePlacement(
        2, tuple(MemberPlacement(i % 2, (i % 2,)) for i in range(n_members))
    )


def _candidates():
    return {
        "packed": _placement(),
        "spread": EnsemblePlacement(
            2,
            (MemberPlacement(0, (1,)), MemberPlacement(1, (0,))),
        ),
    }


class TestContextObject:
    def test_defaults(self):
        ctx = PlanningContext()
        assert ctx.cluster is None and ctx.dtl is None
        assert ctx.robustness is None and ctx.cache is None
        assert not ctx.vectorized

    def test_fields_are_exactly_the_five(self):
        assert [f.name for f in dataclasses.fields(PlanningContext)] == [
            "cluster", "dtl", "robustness", "cache", "vectorized",
        ]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PlanningContext().vectorized = True

    def test_evolve_returns_modified_copy(self):
        base = PlanningContext()
        cache = StageCache()
        derived = base.evolve(vectorized=True, cache=cache)
        assert derived.vectorized and derived.cache is cache
        assert not base.vectorized and base.cache is None


class TestFloatExactEquivalence:
    """An explicit default-valued context equals omitting ``context``."""

    def test_score_placement(self):
        spec, placement = _spec(), _placement()
        cluster = make_cori_like_cluster(2)
        implicit = score_placement(spec, placement)
        explicit = score_placement(
            spec, placement, context=PlanningContext(cluster=cluster)
        )
        assert explicit.objective == implicit.objective
        assert explicit.ensemble_makespan == implicit.ensemble_makespan
        assert explicit.member_indicators == implicit.member_indicators

    def test_find_best_placement(self):
        spec = _spec()
        implicit_best, implicit_n = find_best_placement(spec, 2, 32)
        explicit_best, explicit_n = find_best_placement(
            spec, 2, 32, context=PlanningContext()
        )
        assert explicit_best == implicit_best
        assert explicit_best.objective == implicit_best.objective
        assert explicit_n == implicit_n

    def test_find_best_placement_with_shared_cache(self):
        spec = _spec()
        fresh, _ = find_best_placement(spec, 2, 32)
        shared, _ = find_best_placement(
            spec, 2, 32, context=PlanningContext(cache=StageCache(None, None))
        )
        assert shared.objective == fresh.objective

    def test_planner(self):
        spec = _spec()
        implicit = ResourceConstrainedPlanner().plan(spec, num_nodes=2)
        explicit = ResourceConstrainedPlanner(
            context=PlanningContext()
        ).plan(spec, num_nodes=2)
        assert explicit.placement == implicit.placement
        assert explicit.score.objective == implicit.score.objective

    def test_rank_placements_robust_surrogate(self):
        spec = _spec()
        kwargs = dict(
            model_factory=crash_straggler_factory(0.05),
            policy=RetryBackoffPolicy(),
            method="surrogate",
        )
        implicit = rank_placements_robust(spec, _candidates(), **kwargs)
        explicit = rank_placements_robust(
            spec, _candidates(), context=PlanningContext(), **kwargs
        )
        assert [s.name for s in explicit] == [s.name for s in implicit]
        assert [s.objective for s in explicit] == [
            s.objective for s in implicit
        ]


def _call_score_placement(**kwargs):
    return score_placement(_spec(), _placement(), **kwargs)


def _call_find_best_placement(**kwargs):
    return find_best_placement(_spec(), 2, 32, **kwargs)


def _call_rank_placements_robust(**kwargs):
    return rank_placements_robust(
        _spec(), _candidates(), crash_straggler_factory(0.05),
        RetryBackoffPolicy(), method="surrogate", **kwargs,
    )


def _call_rank_placements_batched(**kwargs):
    return rank_placements_batched(
        _spec(), _candidates(), crash_straggler_factory(0.05),
        RetryBackoffPolicy(), **kwargs,
    )


def _call_run_configuration_trials(**kwargs):
    return run_configuration_trials(get_config("Cc"), trials=1, **kwargs)


REMOVED_KEYWORDS = [
    (_call_score_placement, "cluster"),
    (_call_score_placement, "dtl"),
    (_call_score_placement, "robustness"),
    (_call_score_placement, "cache"),
    (_call_find_best_placement, "cluster"),
    (_call_find_best_placement, "dtl"),
    (_call_find_best_placement, "robustness"),
    (_call_find_best_placement, "cache"),
    (_call_find_best_placement, "vectorized"),
    (_call_find_best_placement, "chunk_size"),
    (_call_find_best_placement, "parallel"),
    (_call_find_best_placement, "processes"),
    (_call_rank_placements_robust, "cache"),
    (_call_rank_placements_robust, "parallel"),
    (ResourceConstrainedPlanner, "robustness"),
    (ResourceConstrainedPlanner, "cache"),
    (PlanningContext, "parallel"),
    (PlanningContext, "processes"),
    (PlanningContext, "chunk_size"),
    (ExhaustiveSearchPolicy, "parallel"),
    (ExhaustiveSearchPolicy, "processes"),
    (_call_rank_placements_batched, "parallel"),
    (_call_run_configuration_trials, "parallel"),
]


class TestRemovedKeywords:
    @pytest.mark.parametrize(
        "entry, keyword",
        REMOVED_KEYWORDS,
        ids=[
            f"{entry.__name__.removeprefix('_call_')}-{keyword}"
            for entry, keyword in REMOVED_KEYWORDS
        ],
    )
    def test_removed_keyword_raises_type_error(self, entry, keyword):
        with pytest.raises(TypeError, match=keyword):
            entry(**{keyword: None})

    def test_oracle_has_no_spelling_tier(self):
        assert "context" not in DEFAULT_TOLERANCES
        report = run_differential_oracle(
            _spec(n_members=1), _placement(n_members=1), scenario="ctx"
        )
        assert report.passed, report.to_text(verbose=True)
        assert not [c for c in report.checks if "context" in c.paths]
