"""The engine's vectorized/scalar routing is observable, not silent.

A ``vectorized`` :func:`find_best_placement` may legitimately run the
scalar path — small canonical space, a robustness term the kernel does
not price, unvectorizable context. Each of those decisions is now recorded:
:func:`last_search_routing` carries the structured reason for the most
recent search and :func:`search_counters` tallies requests, uses, and
fallbacks process-wide. These tests pin the exact reason strings the
service stats and the benchmarks surface.
"""

import pytest

import repro.search.vectorized as vectorized_mod
from repro.faults.analytic import RobustnessTerm, node_crash_builder
from repro.faults.models import NodeFailureModel, RandomFailureModel
from repro.faults.recovery import (
    RecoveryAction,
    RecoveryPolicy,
    RetryBackoffPolicy,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.context import PlanningContext
from repro.search.engine import (
    find_best_placement,
    last_search_routing,
    reset_search_counters,
    search_counters,
)
from repro.search.vectorized import VectorizedUnsupported


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_search_counters()
    yield
    reset_search_counters()


VECTORIZED = PlanningContext(vectorized=True)


def _spec(n_members: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        "route",
        tuple(
            default_member(f"em{i}", num_analyses=1, n_steps=4)
            for i in range(n_members)
        ),
    )


class TestScalarOnly:
    def test_unrequested_search_records_nothing_vectorized(self):
        find_best_placement(_spec(), 2, 32)
        routing = last_search_routing()
        assert routing == {
            "vectorized_requested": False,
            "vectorized_used": False,
            "fallback_reason": None,
        }
        counters = search_counters()
        assert counters["searches"] == 1
        assert counters["vectorized_requested"] == 0
        assert counters["vectorized_fallbacks"] == 0


class TestFallbackReasons:
    def test_below_threshold(self):
        find_best_placement(_spec(), 2, 32, context=VECTORIZED)
        routing = last_search_routing()
        assert routing["vectorized_requested"]
        assert not routing["vectorized_used"]
        assert routing["fallback_reason"].startswith(
            "canonical space below threshold ("
        )
        assert "candidates)" in routing["fallback_reason"]
        counters = search_counters()
        assert counters["vectorized_requested"] == 1
        assert counters["vectorized_fallbacks"] == 1
        assert counters["vectorized_used"] == 0

    def test_component_level_model_records_its_reason(self):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(), model=RandomFailureModel(rate=0.05)
        )
        find_best_placement(
            _spec(3), 4, 32, context=VECTORIZED.evolve(robustness=term)
        )
        assert last_search_routing()["fallback_reason"] == (
            "context not vectorizable: robustness model is component-level "
            "(per-kind surrogate terms have no columns)"
        )
        assert search_counters()["vectorized_fallbacks"] == 1

    def test_placement_dependent_builder_records_its_reason(self):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(),
            model_builder=lambda placement: NodeFailureModel(
                placement, rate=0.05
            ),
        )
        find_best_placement(
            _spec(3), 4, 32, context=VECTORIZED.evolve(robustness=term)
        )
        assert last_search_routing()["fallback_reason"] == (
            "context not vectorizable: robustness model is built per "
            "placement (no fixed hazard)"
        )

    def test_probed_policy_records_its_reason(self):
        class AlwaysRetry(RecoveryPolicy):
            name = "always-retry"

            def on_crash(self, ctx, attempt):
                return RecoveryAction(mode="retry", delay=0.25)

        term = RobustnessTerm(
            policy=AlwaysRetry(), model_builder=node_crash_builder(0.05)
        )
        find_best_placement(
            _spec(3), 4, 32, context=VECTORIZED.evolve(robustness=term)
        )
        assert last_search_routing()["fallback_reason"] == (
            "context not vectorizable: recovery policy AlwaysRetry is "
            "probed, not priced in closed form"
        )

    def test_unvectorizable_context(self, monkeypatch):
        def raise_unsupported(*args, **kwargs):
            raise VectorizedUnsupported("custom component model")

        monkeypatch.setattr(vectorized_mod, "MIN_VECTORIZED_CANDIDATES", 1)
        monkeypatch.setattr(
            vectorized_mod,
            "find_best_placement_vectorized",
            raise_unsupported,
        )
        find_best_placement(_spec(), 2, 32, context=VECTORIZED)
        assert (
            last_search_routing()["fallback_reason"]
            == "context not vectorizable: custom component model"
        )
        assert search_counters()["vectorized_fallbacks"] == 1


class TestVectorizedUsed:
    def test_success_path_recorded(self, monkeypatch):
        monkeypatch.setattr(vectorized_mod, "MIN_VECTORIZED_CANDIDATES", 1)
        scalar_best, scalar_n = find_best_placement(_spec(), 2, 32)
        best, n = find_best_placement(_spec(), 2, 32, context=VECTORIZED)
        routing = last_search_routing()
        assert routing["vectorized_used"]
        assert routing["fallback_reason"] is None
        assert best.objective == scalar_best.objective
        assert n == scalar_n
        counters = search_counters()
        assert counters["vectorized_used"] == 1
        assert counters["vectorized_fallbacks"] == 0

    def test_node_level_robust_search_uses_the_kernel(self):
        term = RobustnessTerm(
            policy=RetryBackoffPolicy(), model_builder=node_crash_builder(0.05)
        )
        robust = VECTORIZED.evolve(robustness=term)
        scalar, scalar_n = find_best_placement(
            _spec(3), 4, 32, context=robust.evolve(vectorized=False)
        )
        best, n = find_best_placement(_spec(3), 4, 32, context=robust)
        routing = last_search_routing()
        assert routing["vectorized_used"]
        assert routing["fallback_reason"] is None
        assert search_counters()["vectorized_used"] == 1
        assert best.placement == scalar.placement
        assert best.robust_penalty == scalar.robust_penalty
        assert n == scalar_n

    def test_counters_reset(self):
        find_best_placement(_spec(), 2, 32)
        assert search_counters()["searches"] == 1
        reset_search_counters()
        counters = search_counters()
        assert all(value == 0 for value in counters.values())
