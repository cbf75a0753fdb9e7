"""The vectorized batch kernel returns exactly what the scalar paths do.

Covers :mod:`repro.search.vectorized` against the scalar engine on
three contracts:

- **stream identity** — chunked array enumeration concatenates to the
  exact canonical assignment stream, for any chunk size, and the
  closed-form :class:`CompletionCounter` sizes it without enumerating;
- **score agreement** — :meth:`VectorizedScorer.score_chunk` matches
  :func:`~repro.scheduler.objectives.score_placement` within the
  oracle's ``vectorized`` tolerance (1e-9 relative) on every
  enumerated candidate;
- **search identity** — branch-and-bound never prunes the true
  optimum: :func:`find_best_placement_vectorized` returns the scalar
  engine's winner bit for bit, with the whole canonical space
  accounted for, and the batch argmax helpers reproduce the serial
  loop's strict ``>`` tie-breaking on tie-heavy grids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dtl.pfs import ParallelFilesystemDTL
from repro.platform.cluster import Cluster
from repro.platform.network import DragonflyNetwork
from repro.platform.specs import cori_like_node
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.scheduler.policies import ExhaustiveSearchPolicy
from repro.search import find_best_placement
from repro.search.canonical import (
    CompletionCounter,
    assignment_to_placement,
    component_core_demands,
    count_canonical_assignments,
    iter_assignment_chunks,
    iter_canonical_assignments,
)
from repro.search.vectorized import (
    VectorizedScorer,
    VectorizedUnsupported,
    argmax_batch,
    find_best_placement_vectorized,
)
from repro.util.errors import PlacementError
from tests.strategies import search_grids

# the oracle's ``vectorized`` tier tolerance (see DEFAULT_TOLERANCES)
VECTORIZED_TOL = 1e-9

CHUNK_SIZES = st.sampled_from([1, 3, 17, 8192])


def _tie_heavy_spec(num_members: int = 3) -> EnsembleSpec:
    """Identical members: many placements score exactly the same."""
    return EnsembleSpec(
        "ties",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=4)
            for i in range(num_members)
        ),
    )


def _rel_err(ref: float, cand: float) -> float:
    if ref == cand:
        return 0.0
    return abs(ref - cand) / max(abs(ref), abs(cand))


class TestChunkedEnumeration:
    @given(grid=search_grids(), chunk_size=CHUNK_SIZES)
    @settings(max_examples=30, deadline=None)
    def test_chunks_concatenate_to_canonical_stream(self, grid, chunk_size):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        reference = list(
            iter_canonical_assignments(cores, num_nodes, cores_per_node)
        )
        chunks = list(
            iter_assignment_chunks(
                cores, num_nodes, cores_per_node, chunk_size=chunk_size
            )
        )
        assert all(c.shape[0] <= chunk_size for c in chunks)
        if not reference:
            assert chunks == []
            return
        stacked = np.concatenate(chunks, axis=0)
        assert stacked.shape == (len(reference), len(cores))
        assert [tuple(row) for row in stacked.tolist()] == reference

    @given(grid=search_grids())
    @settings(max_examples=30, deadline=None)
    def test_completion_counter_totals_the_space(self, grid):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        counter = CompletionCounter(cores, num_nodes, cores_per_node)
        assert counter.total() == count_canonical_assignments(
            cores, num_nodes, cores_per_node
        )


class TestScoreAgreement:
    @given(grid=search_grids())
    @settings(max_examples=15, deadline=None)
    def test_chunk_scores_match_scalar_scorer(self, grid):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        assignments = list(
            iter_canonical_assignments(cores, num_nodes, cores_per_node)
        )[:200]
        if not assignments:
            return
        scorer = VectorizedScorer(spec, num_nodes)
        # a search budget above the physical node capacity (cori: 32
        # cores) can enumerate candidates both paths refuse to score
        overloaded = any(
            max(
                sum(c for c, n in zip(cores, row) if n == node)
                for node in set(row)
            )
            > 32
            for row in assignments
        )
        if overloaded:
            with pytest.raises(PlacementError):
                scorer.score_chunk(np.asarray(assignments, dtype=np.int64))
            return
        batch = scorer.score_chunk(np.asarray(assignments, dtype=np.int64))
        for i, assignment in enumerate(assignments):
            scalar = score_placement(
                spec, assignment_to_placement(spec, assignment, num_nodes)
            )
            assert (
                _rel_err(scalar.objective, float(batch.objectives[i]))
                <= VECTORIZED_TOL
            )
            assert (
                _rel_err(
                    scalar.ensemble_makespan, float(batch.makespans[i])
                )
                <= VECTORIZED_TOL
            )
            for ref, cand in zip(
                scalar.member_indicators, batch.indicators[i]
            ):
                assert _rel_err(ref, float(cand)) <= VECTORIZED_TOL

    def test_score_assignments_validates_oversubscription(self):
        spec = _tie_heavy_spec(2)
        scorer = VectorizedScorer(spec, 2)
        # every component on node 0: 2 x (16 + 8) = 48 > 32 cores
        with pytest.raises(PlacementError):
            scorer.score_assignments([[0, 0, 0, 0]])

    def test_score_chunk_rejects_bad_shapes_and_labels(self):
        spec = _tie_heavy_spec(2)
        scorer = VectorizedScorer(spec, 3)
        with pytest.raises(PlacementError):
            scorer.score_chunk(np.zeros((2, 9), dtype=np.int64))
        with pytest.raises(PlacementError):
            scorer.score_assignments([[0, 1, 2, 3]])  # label 3 >= 3


class _SubclassedNetwork(DragonflyNetwork):
    """A model the kernel tables were not derived for."""


class TestUnsupportedContexts:
    def test_subclassed_network_raises(self):
        # the hop kernel replicates DragonflyNetwork exactly; any
        # subclass may override hops/latency, so the strict type check
        # must refuse it
        cluster = Cluster(
            node_spec=cori_like_node(),
            num_nodes=4,
            network=_SubclassedNetwork(),
        )
        with pytest.raises(VectorizedUnsupported):
            VectorizedScorer(_tie_heavy_spec(2), 4, cluster=cluster)

    def test_non_default_dtl_raises(self):
        with pytest.raises(VectorizedUnsupported):
            VectorizedScorer(
                _tie_heavy_spec(2), 4, dtl=ParallelFilesystemDTL()
            )

    def test_engine_falls_back_to_scalar(self):
        # a space large enough to route through the kernel, but an
        # unsupported DTL: a vectorized search must fall back to
        # the scalar path and still return the scalar winner
        spec = EnsembleSpec(
            "fallback",
            tuple(
                default_member(f"em{i}", num_analyses=2, n_steps=4)
                for i in range(3)
            ),
        )
        from repro.search.vectorized import MIN_VECTORIZED_CANDIDATES

        cores = component_core_demands(spec)
        assert (
            count_canonical_assignments(cores, 8, 32)
            >= MIN_VECTORIZED_CANDIDATES
        )
        dtl = ParallelFilesystemDTL()
        vectorized = find_best_placement(
            spec, 8, 32, context=PlanningContext(dtl=dtl, vectorized=True)
        )
        scalar = find_best_placement(
            spec, 8, 32, context=PlanningContext(dtl=dtl)
        )
        assert vectorized[0].placement == scalar[0].placement
        assert vectorized[0].objective == scalar[0].objective
        assert vectorized[1] == scalar[1]


class TestBranchAndBound:
    @given(grid=search_grids(), chunk_size=CHUNK_SIZES)
    @settings(max_examples=15, deadline=None)
    def test_never_prunes_the_optimum(self, grid, chunk_size):
        spec, num_nodes, cores_per_node = grid
        cores = component_core_demands(spec)
        total = count_canonical_assignments(
            cores, num_nodes, cores_per_node
        )
        if total == 0:
            with pytest.raises(PlacementError):
                find_best_placement_vectorized(
                    spec, num_nodes, cores_per_node, chunk_size=chunk_size
                )
            return
        try:
            scalar, evaluated = find_best_placement(
                spec, num_nodes, cores_per_node
            )
        except PlacementError:
            # search budget above physical capacity: the scalar engine
            # refuses the grid, and the kernel must refuse it too
            with pytest.raises(PlacementError):
                find_best_placement_vectorized(
                    spec, num_nodes, cores_per_node, chunk_size=chunk_size
                )
            return
        result = find_best_placement_vectorized(
            spec, num_nodes, cores_per_node, chunk_size=chunk_size
        )
        assert result.scored + result.pruned == total == evaluated
        assert result.best.placement == scalar.placement
        assert result.best.objective == scalar.objective
        assert result.best.ensemble_makespan == scalar.ensemble_makespan
        assert result.best.member_indicators == scalar.member_indicators

    def test_tie_heavy_grid_keeps_first_optimum(self):
        # identical members make the objective landscape massively
        # degenerate; the B&B winner must still be the serial loop's
        # first strict optimum (pruning is strict-< only)
        spec = _tie_heavy_spec(3)
        result = find_best_placement_vectorized(spec, 4, 32, chunk_size=64)
        scalar, evaluated = find_best_placement(spec, 4, 32)
        assert result.scored + result.pruned == evaluated
        assert result.best.placement == scalar.placement
        assert result.best.objective == scalar.objective

    def test_pruning_disabled_scores_everything(self):
        spec = _tie_heavy_spec(3)
        unpruned = find_best_placement_vectorized(spec, 4, 32, prune=False)
        pruned = find_best_placement_vectorized(spec, 4, 32)
        assert unpruned.pruned == 0
        assert unpruned.scored == pruned.scored + pruned.pruned
        assert unpruned.best.placement == pruned.best.placement
        assert unpruned.best.objective == pruned.best.objective

    def test_engine_routes_large_spaces_through_the_kernel(self):
        # ~10k canonical candidates: above MIN_VECTORIZED_CANDIDATES,
        # so a vectorized search actually takes the batch path — and must
        # return the scalar engine's exact result
        spec = EnsembleSpec(
            "routed",
            tuple(
                default_member(f"em{i}", num_analyses=2, n_steps=4)
                for i in range(3)
            ),
        )
        scalar, n_scalar = find_best_placement(spec, 8, 32)
        fast, n_fast = find_best_placement(
            spec, 8, 32, context=PlanningContext(vectorized=True)
        )
        assert n_fast == n_scalar
        assert fast.placement == scalar.placement
        assert fast.objective == scalar.objective
        assert fast.ensemble_makespan == scalar.ensemble_makespan

    def test_exhaustive_policy_vectorized_same_placement(self):
        spec = _tie_heavy_spec(3)
        plain = ExhaustiveSearchPolicy()
        fast = ExhaustiveSearchPolicy(vectorized=True)
        assert fast.place(spec, 4, 32) == plain.place(spec, 4, 32)
        assert fast.evaluated == plain.evaluated


class TestBatchArgmax:
    def test_argmax_batch_matches_serial_loop_on_ties(self):
        rng = np.random.default_rng(7)
        objectives = rng.choice([0.25, 0.5, 0.75], size=200)
        makespans = rng.choice([1.0, 2.0, 3.0], size=200)
        best = None
        best_index = -1
        for i, key in enumerate(zip(objectives, -makespans)):
            if best is None or key > best:
                best = key
                best_index = i
        assert argmax_batch(objectives, makespans) == best_index

    def test_argmax_batch_on_real_tie_heavy_scores(self):
        spec = _tie_heavy_spec(3)
        cores = component_core_demands(spec)
        rows = np.asarray(
            list(iter_canonical_assignments(cores, 4, 32)), dtype=np.int64
        )
        batch = VectorizedScorer(spec, 4).score_chunk(rows)
        # the landscape really is degenerate, else the test is vacuous
        assert len(np.unique(batch.objectives)) < rows.shape[0]
        serial_best = None
        serial_index = -1
        for i in range(rows.shape[0]):
            key = (batch.objectives[i], -batch.makespans[i])
            if serial_best is None or key > serial_best:
                serial_best = key
                serial_index = i
        assert (
            argmax_batch(batch.objectives, batch.makespans) == serial_index
        )

    def test_argmax_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            argmax_batch(np.empty(0), np.empty(0))


class TestOracleTier:
    def test_oracle_runs_the_vectorized_tier(self):
        from repro.configs.base import build_spec
        from repro.configs.table2 import TABLE2_CONFIGS
        from repro.verify.oracles import run_differential_oracle

        config = TABLE2_CONFIGS["C1.2"]
        report = run_differential_oracle(
            build_spec(config, n_steps=4),
            config.placement(),
            scenario="vectorized-tier",
        )
        vectorized = [
            c for c in report.checks if c.paths == "score-vs-vectorized"
        ]
        assert len(vectorized) >= 3  # objective, makespan, indicators
        assert all(c.tolerance == VECTORIZED_TOL for c in vectorized)
        assert all(c.ok for c in vectorized)
        assert report.passed
