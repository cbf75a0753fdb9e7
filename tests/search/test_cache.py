"""StageCache bit-identity: cached paths return the predictor's floats.

The cache's contract is exact equality with
:func:`repro.runtime.analytic.predict_member_stages` and
:func:`repro.scheduler.objectives.score_placement` — asserted here with
``==``, never ``approx``, across full enumerations, warm re-use, delta
(incremental) evaluation, and robustness-weighted scoring.
"""

from __future__ import annotations

import pytest

from repro.configs.generator import enumerate_placements
from repro.dtl.pfs import ParallelFilesystemDTL
from repro.faults.analytic import RobustnessTerm
from repro.faults.models import RandomFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.platform.specs import make_cori_like_cluster, small_test_cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
import repro.search.cache as cache_mod
from repro.search.cache import StageCache
from repro.search.canonical import component_core_demands
from repro.util.errors import PlacementError


class TestPredictBitIdentity:
    def test_predict_matches_predictor_on_full_enumeration(
        self, two_member_spec
    ):
        cache = StageCache()
        for placement in enumerate_placements(two_member_spec, 3, 32):
            assert cache.predict(
                two_member_spec, placement
            ) == predict_member_stages(two_member_spec, placement)

    def test_warm_cache_returns_identical_stages(self, two_member_spec):
        cache = StageCache()
        placements = list(enumerate_placements(two_member_spec, 3, 32))
        cold = [cache.predict(two_member_spec, p) for p in placements]
        misses_after_cold = cache.stage_misses
        warm = [cache.predict(two_member_spec, p) for p in placements]
        assert warm == cold
        # the second pass is all hits — nothing was recomputed
        assert cache.stage_misses == misses_after_cold
        assert cache.stage_hits > 0

    def test_explicit_context_matches_predictor(self, two_member_spec):
        cluster = make_cori_like_cluster(2)
        dtl = ParallelFilesystemDTL()
        cache = StageCache(cluster=cluster, dtl=dtl)
        placement = EnsemblePlacement(
            2, (MemberPlacement(0, (1,)), MemberPlacement(1, (0,)))
        )
        assert cache.predict(
            two_member_spec, placement
        ) == predict_member_stages(
            two_member_spec, placement, cluster=cluster, dtl=dtl
        )

    def test_oversubscription_raises(self, two_member_spec):
        cache = StageCache()
        everything_on_one_node = EnsemblePlacement(
            1, (MemberPlacement(0, (0,)), MemberPlacement(0, (0,)))
        )
        with pytest.raises(PlacementError):
            cache.predict(two_member_spec, everything_on_one_node)


class TestScorePlacementCachedPath:
    def test_cached_score_is_exact(self, two_member_spec):
        cache = StageCache()
        for placement in enumerate_placements(two_member_spec, 3, 32):
            cached = score_placement(
                two_member_spec, placement,
                context=PlanningContext(cache=cache),
            )
            plain = score_placement(two_member_spec, placement)
            assert cached.objective == plain.objective
            assert cached.ensemble_makespan == plain.ensemble_makespan
            assert cached.member_indicators == plain.member_indicators
            assert cached.robust_penalty == plain.robust_penalty

    def test_shared_cache_reused_across_candidates(self, two_member_spec):
        # a second pass over the same candidates through one shared
        # cache predicts nothing new and returns the same floats
        context = PlanningContext(cache=StageCache())
        placements = list(enumerate_placements(two_member_spec, 3, 32))
        first = [
            score_placement(two_member_spec, p, context=context)
            for p in placements
        ]
        misses = context.cache.stage_misses
        second = [
            score_placement(two_member_spec, p, context=context)
            for p in placements
        ]
        assert context.cache.stage_misses == misses
        for warm, cold in zip(second, first):
            assert warm.placement == cold.placement
            assert warm.objective == cold.objective
            assert warm.ensemble_makespan == cold.ensemble_makespan
            assert warm.member_indicators == cold.member_indicators

    def test_robust_scores_with_shared_cache_equal_uncached(
        self, two_member_spec
    ):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(),
            model=RandomFailureModel(rate=0.01, seed=0),
        )
        shared = PlanningContext(robustness=term, cache=StageCache())
        plain = PlanningContext(robustness=term)
        for placement in enumerate_placements(two_member_spec, 2, 32):
            cached = score_placement(
                two_member_spec, placement, context=shared
            )
            direct = score_placement(
                two_member_spec, placement, context=plain
            )
            assert cached.objective == direct.objective
            assert cached.member_indicators == direct.member_indicators
            assert cached.robust_penalty == direct.robust_penalty

    def test_cached_score_with_robustness_is_exact(
        self, two_member_spec, colocated_placement
    ):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(),
            model=RandomFailureModel(rate=0.01, seed=0),
        )
        cache = StageCache()
        cached = score_placement(
            two_member_spec, colocated_placement,
            context=PlanningContext(robustness=term, cache=cache),
        )
        plain = score_placement(
            two_member_spec, colocated_placement,
            context=PlanningContext(robustness=term),
        )
        assert cached.robust_penalty == plain.robust_penalty
        assert cached.utility == plain.utility

    def test_mismatched_cache_is_ignored_not_wrong(
        self, two_member_spec, colocated_placement
    ):
        # a default-context cache offered alongside a different cluster
        # must not poison the score: the result is the plain one
        cache = StageCache()
        other = make_cori_like_cluster(2, contention_enabled=False)
        assert not cache.matches(other, None)
        scored = score_placement(
            two_member_spec, colocated_placement,
            context=PlanningContext(cluster=other, cache=cache),
        )
        plain = score_placement(
            two_member_spec, colocated_placement,
            context=PlanningContext(cluster=other),
        )
        assert scored.objective == plain.objective
        assert scored.ensemble_makespan == plain.ensemble_makespan
        # and nothing was cached through the mismatch
        assert cache.stage_misses == 0

    def test_matches_default_context(self):
        cache = StageCache()
        assert cache.matches(None, None)
        assert cache.matches(make_cori_like_cluster(2), None)
        assert not cache.matches(None, ParallelFilesystemDTL())


class TestDeltaEvaluation:
    def _flats(self, spec, num_nodes, cores_per_node):
        from repro.search.canonical import iter_canonical_assignments

        cores = component_core_demands(spec)
        return [
            list(a)
            for a in iter_canonical_assignments(
                cores, num_nodes, cores_per_node
            )
        ]

    def test_single_move_delta_equals_fresh(self, two_member_spec):
        cache = StageCache()
        flats = self._flats(two_member_spec, 3, 32)
        # walk consecutive canonical assignments; when they differ by
        # relocating components between exactly two nodes, delta-update
        for prev_flat, next_flat in zip(flats, flats[1:]):
            changed = frozenset(
                {a for a, b in zip(prev_flat, next_flat) if a != b}
                | {b for a, b in zip(prev_flat, next_flat) if a != b}
            )
            if not changed or len(changed) > 2:
                continue
            previous = cache.evaluate_flat(two_member_spec, prev_flat, 3)
            delta = cache.evaluate_flat(
                two_member_spec, next_flat, 3,
                changed_nodes=changed, previous=previous,
            )
            # non-delta evaluation on the same cache: signatures use
            # the same interning, so everything must agree exactly
            fresh = cache.evaluate_flat(two_member_spec, next_flat, 3)
            assert delta.indicators == fresh.indicators
            assert delta.makespans == fresh.makespans
            assert delta.sigs == fresh.sigs
            assert delta.worst_makespan == fresh.worst_makespan
            # and against a cold cache, the numeric terms still match
            cold = StageCache().evaluate_flat(
                two_member_spec, next_flat, 3
            )
            assert delta.indicators == cold.indicators
            assert delta.makespans == cold.makespans

    def test_untouched_member_carries_over_without_recompute(
        self, two_member_spec
    ):
        cache = StageCache()
        prev_flat = [0, 0, 1, 1]  # em1 on node 0, em2 on node 1
        next_flat = [0, 0, 2, 2]  # em2 relocated wholesale to node 2
        previous = cache.evaluate_flat(two_member_spec, prev_flat, 3)
        misses_before = cache.stage_misses
        delta = cache.evaluate_flat(
            two_member_spec, next_flat, 3,
            changed_nodes=frozenset({1, 2}), previous=previous,
        )
        # em1 never touched nodes 1 or 2: its terms are the same
        # objects, carried over, not recomputed
        assert delta.stages[0] is previous.stages[0]
        assert delta.indicators[0] == previous.indicators[0]
        # em2's new neighborhood (alone on a node) is the same local
        # signature as before, so even its re-signing hits the cache
        assert cache.stage_misses == misses_before


class TestTrim:
    def _spec(self, natoms: int):
        from repro.runtime.spec import EnsembleSpec, default_member

        return EnsembleSpec(
            "trim", (default_member("em1", n_steps=4, natoms=natoms),)
        )

    def _placement(self):
        return EnsemblePlacement(2, (MemberPlacement(0, (1,)),))

    def test_within_bounds_nothing_is_dropped(self):
        cache = StageCache()
        cache.predict(self._spec(250_000), self._placement())
        entries = cache.entries()
        assert not cache.trim()
        assert cache.entries() == entries

    def test_spec_identity_tables_drop_past_their_bound(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "TRIM_MAX_SPECS", 2)
        cache = StageCache()
        for natoms in (250_000, 252_000, 254_000):
            cache.predict(self._spec(natoms), self._placement())
        entries = cache.entries()
        assert cache.trim()
        assert not cache._layouts and not cache._model_keys
        assert cache.entries() == entries  # content memo kept

    def test_content_tables_drop_past_their_bound_counters_kept(
        self, monkeypatch
    ):
        monkeypatch.setattr(cache_mod, "TRIM_MAX_ENTRIES", 1)
        cache = StageCache()
        spec = self._spec(250_000)
        cache.predict(spec, self._placement())
        cache.predict(spec, self._placement())
        stats = cache.stats()
        assert cache.trim()
        assert cache.entries() == 0
        assert cache.stats() == stats
        # forgetting only costs a recomputation of the same floats
        again = cache.predict(spec, self._placement())
        assert again == predict_member_stages(spec, self._placement())
        assert cache.stats()["stage_misses"] == stats["stage_misses"] + 1

    def test_service_workers_trim_between_jobs(self, monkeypatch):
        from repro.service.schemas import PlacementRequest
        from repro.service.workers import PlacementService

        calls = []
        original = StageCache.trim

        def counting_trim(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(StageCache, "trim", counting_trim)
        with PlacementService(workers=1) as service:
            for n_steps in (2, 3):
                request = PlacementRequest(
                    kind="search",
                    spec=self._spec(250_000 + n_steps),
                    num_nodes=2,
                )
                service.wait(service.submit(request).id, timeout=30.0)
        assert len(calls) == 2
        assert calls[0] is calls[1] is service._stage_caches[0]
