"""Robust placement scoring: F(P) evaluated under a failure model.

The analytic scorer (:mod:`repro.scheduler.objectives`) ranks
placements by the ideal, failure-free F(P^{U,A,P}). This module ranks
them by *robust* F(P): the indicator objective measured from
discrete-event executions with fault injection enabled, averaged over
independent fault-schedule draws. A placement that looks optimal in
steady state can lose its edge once crashes and stragglers stretch its
stages — co-location, for instance, couples a member's fate to fewer
nodes but concentrates the blast radius of a straggling simulation.

Because robust scores come from full DES runs they cost milliseconds,
not microseconds — use them to re-rank a shortlist (e.g. the paper's
C1/C2 candidates or a policy's top choices), not to drive inner-loop
search. For inner-loop robustness there are two cheaper routes:

- :func:`surrogate_score_placement` (or ``method="surrogate"`` on
  :func:`rank_placements_robust`) prices the same failure regime with
  the closed-form surrogate in :mod:`repro.faults.analytic` — the
  tests assert it reproduces the DES ranking of the paper's C1/C2
  placements at a >= 10x speedup;
- a :class:`~repro.faults.analytic.RobustnessTerm` handed to
  :func:`~repro.scheduler.objectives.score_placement`, the planner, or
  the annealer folds the surrogate penalty into the search objective
  itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.search.cache import StageCache

import numpy as np

from repro.dtl.base import DataTransportLayer
from repro.faults.analytic import surrogate_resilience
from repro.faults.models import FailureModel, FaultKind, RandomFailureModel
from repro.faults.recovery import RecoveryPolicy
from repro.monitoring.resilience import compute_resilience
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.executor import EnsembleExecutor
from repro.runtime.placement import EnsemblePlacement
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import DEFAULT_CONTEXT, PlanningContext
from repro.scheduler.objectives import FINAL_STAGE_ORDER, score_placement
from repro.util.errors import ValidationError
from repro.util.rng import derive_replica_seed
from repro.util.validation import require_positive_int

#: builds a fresh failure model for one trial's seed.
ModelFactory = Callable[[int], FailureModel]

#: valid ``method`` values for :func:`rank_placements_robust`.
RANK_METHODS: Tuple[str, ...] = ("des", "surrogate")

#: valid ``engine`` values for the DES method of
#: :func:`rank_placements_robust`.
RANK_ENGINES: Tuple[str, ...] = ("serial", "batched")


def crash_straggler_factory(
    rate: float,
    kinds: Tuple[FaultKind, ...] = (FaultKind.CRASH, FaultKind.STRAGGLER),
) -> ModelFactory:
    """The default model factory: crashes + stragglers at one rate.

    Parameters
    ----------
    rate:
        Per-site per-step fault probability (>= 0).
    kinds:
        Fault kinds drawn at each faulted site.

    Returns
    -------
    ModelFactory
        ``seed -> RandomFailureModel`` for independent trial draws.

    Examples
    --------
    >>> factory = crash_straggler_factory(0.05)
    >>> factory(3).rate
    0.05
    """
    return lambda seed: RandomFailureModel(rate=rate, kinds=kinds, seed=seed)


@dataclass(frozen=True)
class RobustScore:
    """Quality of one placement when failures are part of the contract.

    Ordering matches :class:`~repro.scheduler.objectives
    .PlacementScore`: robust objective first (higher better), then
    fewer nodes, then lower mean inflation. Surrogate-derived scores
    carry ``trials=0`` (no DES executions were run).

    Examples
    --------
    >>> from repro.runtime.placement import (EnsemblePlacement,
    ...                                      MemberPlacement)
    >>> pl = EnsemblePlacement(1, (MemberPlacement(0, (0,)),))
    >>> a = RobustScore("a", pl, 0.5, 0.6, 1.1, 0.2, 1, 3)
    >>> b = RobustScore("b", pl, 0.4, 0.6, 1.3, 0.2, 1, 3)
    >>> max(a, b).name
    'a'
    """

    name: str
    placement: EnsemblePlacement
    objective: float  # mean F(P^{U,A,P}) under failures
    ideal_objective: float  # failure-free DES F(P^{U,A,P})
    mean_inflation: float  # mean makespan inflation factor
    mean_goodput: float  # mean steps per virtual second
    num_nodes: int
    trials: int

    @property
    def degradation(self) -> float:
        """How much of the ideal objective failures eroded (>= 0)."""
        return self.ideal_objective - self.objective

    def _key(self) -> Tuple[float, int, float]:
        return (self.objective, -self.num_nodes, -self.mean_inflation)

    def __lt__(self, other: "RobustScore") -> bool:
        return self._key() < other._key()

    def __gt__(self, other: "RobustScore") -> bool:
        return self._key() > other._key()


def robust_score_placement(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    model_factory: ModelFactory,
    policy: RecoveryPolicy,
    trials: int = 3,
    base_seed: int = 0,
    timing_noise: float = 0.0,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    name: str = "",
    seed_label: str = "",
) -> RobustScore:
    """Score one placement by executing it under injected failures.

    Runs one failure-free DES execution (the ideal reference), then
    ``trials`` injected executions whose fault schedules come from
    ``model_factory(derive_replica_seed(base_seed, t, seed_label))``
    — with the default empty label that is literally
    ``base_seed + t``; the robust objective is the mean F(P^{U,A,P})
    over those trials.

    Parameters
    ----------
    spec / placement:
        The ensemble and the candidate placement.
    model_factory:
        ``seed -> FailureModel`` building one independent fault draw
        per trial (see :func:`crash_straggler_factory`).
    policy:
        Recovery policy applied to every injected crash.
    trials:
        Number of injected DES runs to average over (>= 1).
    base_seed / timing_noise / cluster / dtl:
        Forwarded to the executor.
    name:
        Label for the returned score (defaults to the spec name).
    seed_label:
        Forwarded to :func:`~repro.util.rng.derive_replica_seed`; a
        non-empty label (e.g. the candidate name) decorrelates this
        placement's fault draws from other candidates'.

    Returns
    -------
    RobustScore
        Mean robust objective, inflation, and goodput over the trials.

    Raises
    ------
    ValidationError
        If ``trials`` is not a positive integer.
    """
    require_positive_int("trials", trials)

    def executor(model: Optional[FailureModel]) -> EnsembleExecutor:
        return EnsembleExecutor(
            spec=spec,
            placement=placement,
            cluster=cluster,
            dtl=dtl,
            seed=base_seed,
            timing_noise=timing_noise,
            failure_model=model,
            recovery=policy,
        )

    baseline = executor(None).run()
    ideal = baseline.objective(FINAL_STAGE_ORDER)
    baseline_makespan = baseline.ensemble_makespan

    objectives: List[float] = []
    inflations: List[float] = []
    goodputs: List[float] = []
    for t in range(trials):
        seed = derive_replica_seed(base_seed, t, seed_label)
        result = executor(model_factory(seed)).run()
        objectives.append(result.objective(FINAL_STAGE_ORDER))
        metrics = compute_resilience(result, baseline_makespan)
        inflations.append(metrics.inflation)
        goodputs.append(metrics.goodput)

    return RobustScore(
        name=name or spec.name,
        placement=placement,
        objective=float(np.mean(objectives)),
        ideal_objective=ideal,
        mean_inflation=float(np.mean(inflations)),
        mean_goodput=float(np.mean(goodputs)),
        num_nodes=placement.num_nodes,
        trials=trials,
    )


def surrogate_score_placement(
    spec: EnsembleSpec,
    placement: EnsemblePlacement,
    model: FailureModel,
    policy: RecoveryPolicy,
    cluster: Optional[Cluster] = None,
    dtl: Optional[DataTransportLayer] = None,
    name: str = "",
    cache: Optional["StageCache"] = None,
) -> RobustScore:
    """Score one placement with the analytic surrogate — no DES runs.

    The robust objective is the analytic F(P^{U,A,P}) minus the
    surrogate's expected excess inflation ``E[inflation] - 1`` — the
    same penalty form a unit-weight
    :class:`~repro.faults.analytic.RobustnessTerm` applies inside the
    planner. Inflation comes straight from the surrogate; goodput is
    the nominal step count over the expected makespan. Costs
    microseconds per candidate where a DES trial set costs
    milliseconds, which is the >= 10x speedup the tests assert.

    Parameters
    ----------
    spec / placement:
        The ensemble and the candidate placement.
    model:
        Failure model with an analytic hazard profile (scheduled
        models raise).
    policy:
        Recovery policy priced by the surrogate.
    cluster / dtl:
        Platform overrides, as for the analytic predictor.
    name:
        Label for the returned score (defaults to the spec name).
    cache:
        Optional :class:`~repro.search.cache.StageCache`; when its
        context matches, stage predictions are memoized across
        candidates (bit-identical floats either way).

    Returns
    -------
    RobustScore
        Surrogate-derived score with ``trials=0``.

    Raises
    ------
    ValidationError
        If the model has no analytic hazard profile.
    """
    if cluster is None:
        cluster = make_cori_like_cluster(placement.num_nodes)
    if cache is not None and cache.matches(cluster, dtl):
        stages = cache.predict(spec, placement)
    else:
        stages = predict_member_stages(
            spec, placement, cluster=cluster, dtl=dtl
        )
    ideal = score_placement(
        spec,
        placement,
        stages=stages,
        context=PlanningContext(cluster=cluster, dtl=dtl),
    )
    report = surrogate_resilience(
        spec, placement, model, policy, cluster=cluster, dtl=dtl,
        stages=stages,
    )
    total_steps = sum(m.n_steps for m in spec.members)
    return RobustScore(
        name=name or spec.name,
        placement=placement,
        objective=ideal.objective - (report.expected_inflation - 1.0),
        ideal_objective=ideal.objective,
        mean_inflation=report.expected_inflation,
        mean_goodput=total_steps / report.expected_makespan,
        num_nodes=placement.num_nodes,
        trials=0,
    )


def rank_placements_robust(
    spec: EnsembleSpec,
    candidates: Dict[str, EnsemblePlacement],
    model_factory: ModelFactory,
    policy: RecoveryPolicy,
    trials: int = 3,
    base_seed: int = 0,
    timing_noise: float = 0.0,
    method: str = "des",
    *,
    engine: str = "serial",
    crn: bool = True,
    context: Optional[PlanningContext] = None,
) -> List[RobustScore]:
    """Score every candidate placement; best (highest robust F) first.

    Parameters
    ----------
    spec / candidates:
        The ensemble and the named candidate placements to rank.
    model_factory:
        ``seed -> FailureModel``. The DES method draws ``trials``
        independent models; the surrogate method prices the single
        representative model ``model_factory(base_seed)`` (its hazard
        profile is seed-independent for the rate-based models).
    policy:
        Recovery policy applied to crashes.
    trials / base_seed / timing_noise:
        DES-method controls (ignored by the surrogate method except
        for ``base_seed``).
    method:
        ``"des"`` executes injected trials per candidate;
        ``"surrogate"`` prices each candidate in closed form —
        same ranking on the paper's C1/C2 candidates, >= 10x faster.
    engine:
        DES-method execution strategy. ``"serial"`` re-simulates every
        fault replica; ``"batched"`` delegates to
        :func:`repro.faults.batched.rank_placements_batched` — one
        fault-free DES per candidate plus delta replay of the fault
        schedules, bit-identical scores for exactly-replayable
        recovery policies at >= 10x the speed (``BENCH_robust.json``).
        Ignored by the surrogate method.
    crn:
        Use common random numbers: every candidate's replica ``t``
        draws the same fault schedule (seeds ``base_seed + t``), so
        candidate comparisons are paired. ``False`` decorrelates
        candidates by hashing their names into the replica seeds.
        The default matches the historical serial behaviour exactly.
    context:
        Optional :class:`~repro.scheduler.context.PlanningContext`.
        Its ``cluster``/``dtl`` are threaded into every scoring call
        (DES, batched, and surrogate alike); its ``cache`` is the
        :class:`~repro.search.cache.StageCache` the surrogate method
        shares across candidates with matching local patterns (one
        for the context's platform is built when it is omitted or
        belongs to another platform; the DES method ignores it).

    Returns
    -------
    List[RobustScore]
        Candidates sorted best-first by robust objective.

    Raises
    ------
    ValidationError
        On an unknown ``method`` or ``engine``.
    """
    context = context or DEFAULT_CONTEXT
    cluster = context.cluster
    dtl = context.dtl
    if method not in RANK_METHODS:
        valid = ", ".join(repr(m) for m in RANK_METHODS)
        raise ValidationError(
            f"unknown ranking method {method!r}; valid methods: {valid}"
        )
    if engine not in RANK_ENGINES:
        valid = ", ".join(repr(e) for e in RANK_ENGINES)
        raise ValidationError(
            f"unknown ranking engine {engine!r}; valid engines: {valid}"
        )
    if method == "surrogate":
        model = model_factory(base_seed)
        cache = context.cache
        if cache is None or not cache.matches(cluster, dtl):
            from repro.search.cache import StageCache

            cache = StageCache(cluster, dtl)
        scores = [
            surrogate_score_placement(
                spec, placement, model, policy, cluster=cluster, dtl=dtl,
                name=name, cache=cache,
            )
            for name, placement in candidates.items()
        ]
        return sorted(scores, reverse=True)
    if engine == "batched":
        from repro.faults.batched import rank_placements_batched

        return rank_placements_batched(
            spec,
            candidates,
            model_factory,
            policy,
            trials=trials,
            base_seed=base_seed,
            timing_noise=timing_noise,
            crn=crn,
            cluster=cluster,
            dtl=dtl,
        )
    scores = [
        robust_score_placement(
            spec,
            placement,
            model_factory,
            policy,
            trials=trials,
            base_seed=base_seed,
            timing_noise=timing_noise,
            cluster=cluster,
            dtl=dtl,
            name=name,
            seed_label="" if crn else name,
        )
        for name, placement in candidates.items()
    ]
    return sorted(scores, reverse=True)
