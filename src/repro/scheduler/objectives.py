"""Scoring candidate placements.

A placement's quality is summarized by a :class:`PlacementScore`: the
paper's objective F over the final-stage indicators (primary), plus the
predicted ensemble makespan and node count as diagnostics. Scores are
computed through :func:`repro.runtime.analytic.predict_member_stages`,
so evaluating a candidate costs microseconds — cheap enough for search.

When a :class:`~repro.faults.analytic.RobustnessTerm` is supplied, the
analytic robustness surrogate prices the placement's expected failure
cost and the score's search key becomes
``utility = F(P) - weight * (E[inflation] - 1)`` — still closed-form,
so robustness rides inside the search loop instead of re-ranking a
shortlist afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.indicators import (
    FINAL_STAGE_ORDER,
    IndicatorStage,
    MemberMeasurement,
    apply_stages,
)
from repro.scheduler.context import DEFAULT_CONTEXT, PlanningContext
from repro.core.insitu import member_makespan
from repro.core.objective import objective_function
from repro.core.stages import MemberStages
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec

# FINAL_STAGE_ORDER lives in repro.core.indicators (so the search
# engine's cache can use it without importing the scheduler); it stays
# re-exported here for existing callers.
__all__ = [
    "FINAL_STAGE_ORDER",
    "PlacementScore",
    "score_placement",
]


@dataclass(frozen=True, eq=False)
class PlacementScore:
    """Quality summary of one candidate placement.

    Ordering: scores compare by :attr:`utility` (the objective minus
    the robustness penalty; higher better), then by fewer nodes, then
    by lower makespan — so ``max(scores)`` is the scheduler's
    preference. Without a robustness term the penalty is 0 and the
    ordering is the classic failure-free one.

    Equality agrees with the ordering (both compare :meth:`_key`), so
    the comparison set is totally ordered: ``a <= b and b <= a``
    implies ``a == b``, as :func:`functools.total_ordering` would
    require. Two placements that tie on (utility, nodes, makespan)
    compare equal even if the placements themselves differ.
    """

    placement: EnsemblePlacement
    objective: float  # F(P^{U,A,P}), higher is better
    ensemble_makespan: float
    num_nodes: int
    member_indicators: Tuple[float, ...]
    #: weight * (E[inflation] - 1) from the robustness surrogate
    #: (0 when scored without a robustness term).
    robust_penalty: float = 0.0

    @property
    def utility(self) -> float:
        """The search target: objective minus the robustness penalty."""
        return self.objective - self.robust_penalty

    def _key(self) -> Tuple[float, int, float]:
        return (self.utility, -self.num_nodes, -self.ensemble_makespan)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementScore):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, PlacementScore):
            return NotImplemented
        return self._key() != other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __lt__(self, other: "PlacementScore") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "PlacementScore") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "PlacementScore") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "PlacementScore") -> bool:
        return self._key() >= other._key()


def score_placement(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    *,
    stages: Optional[Dict[str, MemberStages]] = None,
    context: Optional[PlanningContext] = None,
) -> PlacementScore:
    """Score one placement via the analytic predictor.

    ``context`` (a :class:`~repro.scheduler.context.PlanningContext`)
    carries the platform, staging tier, robustness term and stage
    cache; omitted, the Cori-like defaults apply.

    With a ``robustness`` term the score additionally carries
    ``robust_penalty = weight * (E[inflation] - 1)`` from the analytic
    surrogate, and the score's ordering key becomes
    ``objective - robust_penalty`` — both terms are closed-form, so
    the combined evaluation still costs microseconds. Callers that
    already hold the :func:`~repro.runtime.analytic
    .predict_member_stages` result for this exact (spec, placement,
    cluster, dtl) can pass it as ``stages`` to skip re-predicting.

    A :class:`~repro.search.cache.StageCache` in the context memoizes
    stage prediction and indicator terms across calls — members whose
    local co-location pattern repeats between candidates are never
    re-predicted. The cached path produces bit-identical scores; a
    cache whose platform context does not match ``(cluster, dtl)`` is
    ignored.
    """
    context = context or DEFAULT_CONTEXT
    cluster = context.cluster
    dtl = context.dtl
    robustness = context.robustness
    cache = context.cache
    if cache is not None and stages is None and cache.matches(cluster, dtl):
        evaluation = cache.member_terms(spec, placement)
        penalty = 0.0
        if robustness is not None:
            if cluster is None:
                cluster = make_cori_like_cluster(placement.num_nodes)
            penalty = robustness.penalty(
                spec,
                placement,
                cluster=cluster,
                dtl=dtl,
                stages=evaluation.stages_by_name(spec),
            )
        return PlacementScore(
            placement=placement,
            objective=objective_function(evaluation.indicators),
            ensemble_makespan=evaluation.worst_makespan,
            num_nodes=placement.num_nodes,
            member_indicators=tuple(evaluation.indicators),
            robust_penalty=penalty,
        )
    if cluster is None:
        cluster = make_cori_like_cluster(placement.num_nodes)
    if stages is None:
        stages = predict_member_stages(
            spec, placement, cluster=cluster, dtl=dtl
        )

    indicators = []
    worst_makespan = 0.0
    for member_spec, mp in zip(spec.members, placement.members):
        member_stages = stages[member_spec.name]
        measurement = MemberMeasurement(
            name=member_spec.name,
            stages=member_stages,
            total_cores=member_spec.total_cores,
            placement=mp.to_placement_sets(),
        )
        indicators.append(
            apply_stages(measurement, FINAL_STAGE_ORDER, placement.num_nodes)
        )
        worst_makespan = max(
            worst_makespan,
            member_makespan(member_stages, member_spec.n_steps),
        )
    penalty = 0.0
    if robustness is not None:
        # reuse this call's stage prediction — the surrogate needs the
        # same (spec, placement, cluster, dtl) stages
        penalty = robustness.penalty(
            spec, placement, cluster=cluster, dtl=dtl, stages=stages
        )
    return PlacementScore(
        placement=placement,
        objective=objective_function(indicators),
        ensemble_makespan=worst_makespan,
        num_nodes=placement.num_nodes,
        member_indicators=tuple(indicators),
        robust_penalty=penalty,
    )
