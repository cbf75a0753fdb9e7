"""Robust searches on the batch kernel return the scalar engine's answer.

A node-level crash :class:`~repro.faults.analytic.RobustnessTerm` (what
the service, the CLI and co-scheduling admission build with
:func:`~repro.faults.analytic.node_crash_builder`) is priced by
:meth:`VectorizedScorer._crash_penalties` as columns. Three contracts:

- **penalty agreement** — the kernel's penalty and utility match
  :func:`~repro.scheduler.objectives.score_placement` within the
  oracle's ``vectorized`` tolerance on every candidate, for all four
  built-in recovery policies;
- **winner identity** — :func:`find_best_placement_vectorized` with a
  robustness term returns the scalar engine's winner and floats, bit
  for bit, over tie-heavy grids (its shortlist is re-scored on the
  scalar path and keeps the first strict maximum);
- **declines** — terms the kernel does not price raise
  :class:`VectorizedUnsupported` with the reason the engine records.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.analytic import RobustnessTerm, node_crash_builder
from repro.faults.models import NodeFailureModel, RandomFailureModel
from repro.faults.recovery import (
    POLICY_NAMES,
    RecoveryAction,
    RecoveryPolicy,
    make_policy,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.search import find_best_placement
from repro.search.cache import StageCache
from repro.search.canonical import (
    assignment_to_placement,
    component_core_demands,
    count_canonical_assignments,
    iter_canonical_assignments,
)
from repro.search.vectorized import (
    VectorizedScorer,
    VectorizedUnsupported,
    find_best_placement_vectorized,
)
from repro.util.errors import PlacementError
from tests.strategies import search_grids

VECTORIZED_TOL = 1e-9
POLICIES = sorted(POLICY_NAMES)


def _term(policy: str, rate: float = 0.05, weight: float = 1.0):
    return RobustnessTerm(
        policy=make_policy(policy),
        model_builder=node_crash_builder(rate),
        weight=weight,
    )


def _mixed_spec() -> EnsembleSpec:
    """Distinct members and step counts: no two candidates tie."""
    return EnsembleSpec(
        "mixed",
        (
            default_member("em1", num_analyses=2, n_steps=6, natoms=270_000),
            default_member("em2", num_analyses=1, n_steps=10, natoms=250_000),
            default_member("em3", num_analyses=1, n_steps=8, natoms=290_000),
        ),
    )


def _some_row(spec: EnsembleSpec, num_nodes: int) -> list:
    rows = list(
        iter_canonical_assignments(
            component_core_demands(spec), num_nodes, 32
        )
    )
    return list(rows[len(rows) // 2])


def _rel_err(ref: float, cand: float) -> float:
    if ref == cand:
        return 0.0
    return abs(ref - cand) / max(abs(ref), abs(cand))


class TestPenaltyColumns:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("rate,weight", [(0.02, 1.0), (0.2, 3.5)])
    def test_every_candidate_matches_the_scalar_scorer(
        self, policy, rate, weight
    ):
        spec = _mixed_spec()
        term = _term(policy, rate, weight)
        rows = list(
            iter_canonical_assignments(component_core_demands(spec), 4, 32)
        )
        scorer = VectorizedScorer(spec, 4, robustness=term)
        batch = scorer.score_chunk(np.asarray(rows))
        context = PlanningContext(robustness=term)
        for i, row in enumerate(rows):
            placement = assignment_to_placement(spec, list(row), 4)
            want = score_placement(spec, placement, context=context)
            assert want.robust_penalty >= 0.0
            assert _rel_err(want.robust_penalty, batch.penalties[i]) <= (
                VECTORIZED_TOL
            )
            assert _rel_err(want.utility, batch.utilities[i]) <= (
                VECTORIZED_TOL
            )

    def test_no_term_no_penalty_column(self):
        spec = _mixed_spec()
        batch = VectorizedScorer(spec, 3).score_assignments(
            [_some_row(spec, 3)]
        )
        assert batch.penalties is None
        assert batch.utilities is batch.objectives

    def test_fixed_model_with_node_hazard_is_priced(self):
        # a shared NodeFailureModel's hazard ignores its own placement,
        # so the kernel prices it like the builder's
        spec = _mixed_spec()
        row = _some_row(spec, 3)
        placement = assignment_to_placement(spec, row, 3)
        fixed = RobustnessTerm(
            policy=make_policy("restart"),
            model=NodeFailureModel(placement, rate=0.05),
        )
        batch = VectorizedScorer(spec, 3, robustness=fixed).score_assignments(
            [row]
        )
        want = score_placement(
            spec, placement, context=PlanningContext(robustness=fixed)
        )
        assert _rel_err(want.robust_penalty, batch.penalties[0]) <= (
            VECTORIZED_TOL
        )


class TestRobustSearchIdentity:
    @given(
        grid=search_grids(),
        policy=st.sampled_from(POLICIES),
        rate=st.sampled_from([0.01, 0.05, 0.3]),
        chunk_size=st.sampled_from([1, 7, 8192]),
    )
    @settings(max_examples=40, deadline=None)
    def test_winner_is_the_scalar_engines(
        self, grid, policy, rate, chunk_size
    ):
        # search_grids members are identical: tie-heavy landscapes
        spec, num_nodes, cores_per_node = grid
        term = _term(policy, rate)
        total = count_canonical_assignments(
            component_core_demands(spec), num_nodes, cores_per_node
        )
        try:
            scalar, evaluated = find_best_placement(
                spec,
                num_nodes,
                cores_per_node,
                context=PlanningContext(robustness=term),
            )
        except PlacementError:
            with pytest.raises(PlacementError):
                find_best_placement_vectorized(
                    spec, num_nodes, cores_per_node,
                    chunk_size=chunk_size, robustness=term,
                )
            return
        result = find_best_placement_vectorized(
            spec,
            num_nodes,
            cores_per_node,
            chunk_size=chunk_size,
            robustness=term,
        )
        assert result.candidates == total == evaluated
        assert 1 <= result.rescored <= result.scored
        best = result.best
        assert best.placement == scalar.placement
        assert best.objective == scalar.objective
        assert best.robust_penalty == scalar.robust_penalty
        assert best.ensemble_makespan == scalar.ensemble_makespan
        assert best.member_indicators == scalar.member_indicators

    @pytest.mark.parametrize("policy", POLICIES)
    def test_engine_route_matches_scalar_route(self, policy):
        spec = _mixed_spec()
        context = PlanningContext(robustness=_term(policy, 0.1))
        scalar = find_best_placement(spec, 5, 32, context=context)
        routed = find_best_placement(
            spec, 5, 32, context=context.evolve(vectorized=True)
        )
        assert routed[1] == scalar[1]
        assert routed[0].placement == scalar[0].placement
        assert routed[0].utility == scalar[0].utility

    def test_wide_shortlist_keeps_the_first_strict_maximum(
        self, monkeypatch
    ):
        # a margin of 100% shortlists most of the space: re-scoring it
        # in enumeration order must still pick the scalar engine's
        # first strict maximum, ties in utility broken by makespan
        import repro.search.vectorized as vectorized_mod

        monkeypatch.setattr(vectorized_mod, "BOUND_SAFETY", 1.0)
        spec = EnsembleSpec(
            "ties",
            tuple(
                default_member(f"em{i}", num_analyses=1, n_steps=4)
                for i in range(3)
            ),
        )
        term = _term("retry", 0.05)
        result = find_best_placement_vectorized(
            spec, 4, 32, robustness=term, chunk_size=5
        )
        scalar, _ = find_best_placement(
            spec, 4, 32, context=PlanningContext(robustness=term)
        )
        assert result.rescored > 10
        assert result.best.placement == scalar.placement
        assert result.best.utility == scalar.utility


class TestDeclines:
    def test_component_level_model(self):
        term = RobustnessTerm(
            policy=make_policy("retry"), model=RandomFailureModel(rate=0.05)
        )
        with pytest.raises(VectorizedUnsupported, match="component-level"):
            VectorizedScorer(_mixed_spec(), 4, robustness=term)

    def test_builder_without_a_fixed_hazard(self):
        term = RobustnessTerm(
            policy=make_policy("retry"),
            model_builder=lambda p: NodeFailureModel(p, rate=0.05),
        )
        with pytest.raises(VectorizedUnsupported, match="per placement"):
            VectorizedScorer(_mixed_spec(), 4, robustness=term)

    def test_probed_policy(self):
        class Pause(RecoveryPolicy):
            name = "pause"

            def on_crash(self, ctx, attempt):
                return RecoveryAction(mode="retry", delay=1.0)

        term = RobustnessTerm(
            policy=make_policy("degrade"), model_builder=node_crash_builder(0.1)
        )
        term.policy.fallback = Pause()
        with pytest.raises(VectorizedUnsupported, match="probed"):
            VectorizedScorer(_mixed_spec(), 4, robustness=term)


class TestPopulationMemo:
    def test_warm_cache_assesses_no_population_twice(self):
        spec = _mixed_spec()
        cache = StageCache()
        first = VectorizedScorer(spec, 4, cache=cache)
        rows = np.asarray(
            list(
                iter_canonical_assignments(
                    component_core_demands(spec), 4, 32
                )
            )
        )
        cold = first.score_chunk(rows)
        assert first.assessed_codes > 0
        misses = cache.stats()["node_misses"]
        second = VectorizedScorer(spec, 4, cache=cache)
        warm = second.score_chunk(rows)
        assert second.assessed_codes == 0
        assert cache.stats()["node_misses"] == misses
        assert np.array_equal(cold.objectives, warm.objectives)

    def test_mismatched_cache_is_ignored(self):
        from repro.platform.specs import make_cori_like_cluster

        cluster = make_cori_like_cluster(4, contention_enabled=False)
        cache = StageCache()  # the default platform, not ``cluster``'s
        spec = _mixed_spec()
        scorer = VectorizedScorer(spec, 4, cluster=cluster, cache=cache)
        scorer.score_assignments([_some_row(spec, 4)])
        assert scorer.assessed_codes > 0
        assert cache.stats()["node_misses"] == 0
