"""Simulated-annealing placement search for large ensembles.

Exhaustive search grows as ``nodes^components``; the greedy policy is
fast but member-at-a-time. For large ensembles (many members, K > 1)
this module provides a classic annealer over the placement space:

- **state**: a feasible component-to-node assignment;
- **move**: relocate one uniformly chosen component to a random node
  with capacity (swap-free moves keep feasibility trivially);
- **energy**: ``-F(P^{U,A,P})`` via the analytic predictor — or, with
  a :class:`~repro.faults.analytic.RobustnessTerm`, the penalized
  ``-(F - weight * (E[inflation] - 1))`` so the annealer trades ideal
  objective against fault-domain fragility (node-level failure models
  make the penalty placement-dependent: co-location fuses domains);
- **schedule**: geometric cooling with per-temperature plateaus.

Deterministic given the seed. The tests verify it matches the
exhaustive optimum on paper-sized problems and beats greedy-breaking
adversarial starts on larger ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.objective import objective_function
from repro.faults.analytic import RobustnessTerm
from repro.platform.cluster import Cluster
from repro.platform.specs import make_cori_like_cluster
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.scheduler.policies import RandomPolicy, SchedulingPolicy
from repro.search.cache import FlatEvaluation, StageCache
from repro.util.errors import ValidationError
from repro.util.rng import RandomSource
from repro.util.validation import (
    require_in_range,
    require_positive,
    require_positive_int,
)


@dataclass
class AnnealingStats:
    """Diagnostics of one annealing run."""

    evaluations: int = 0
    accepted: int = 0
    improved: int = 0


class SimulatedAnnealingPolicy(SchedulingPolicy):
    """Anneal over feasible placements, maximizing F(P^{U,A,P}).

    Parameters
    ----------
    seed:
        RNG seed (controls the start state and the move sequence).
    initial_temperature:
        Temperature relative to the |F| scale of the start state.
    cooling:
        Geometric cooling factor per plateau (0 < cooling < 1).
    plateau:
        Moves attempted per temperature.
    min_temperature_ratio:
        Stop when T falls below this fraction of the initial T.
    robustness:
        Optional :class:`~repro.faults.analytic.RobustnessTerm`; when
        given, the annealer maximizes the penalized utility instead of
        the raw objective.
    incremental:
        Use delta evaluation (default): a move changes the residents
        of exactly two nodes, so only members touching those nodes are
        re-predicted; every other member's cached stage and indicator
        terms carry over. The trajectory is bit-identical to full
        re-scoring (same floats, same RNG draws, same placements) —
        set ``False`` to force the original score-everything path.
    cache:
        Optional :class:`~repro.search.cache.StageCache` to share
        across runs; a fresh default-context cache is built per
        ``place`` call when omitted or incompatible.
    robust_rank_top:
        When > 0, keep the ``robust_rank_top`` best *distinct*
        accepted states (the elite pool) and, after the anneal, re-rank
        them with DES-under-failures via
        :func:`~repro.scheduler.robust.rank_placements_robust` — the
        returned placement is the robust winner, not necessarily the
        analytic one. The annealing trajectory itself is untouched
        (elite bookkeeping consumes no RNG draws), so runs with and
        without refinement explore identical move sequences. The
        ranking is exposed on ``last_robust_ranking``.
    robust_model_factory / robust_policy:
        Failure model factory and recovery policy for the refinement
        pass; both required when ``robust_rank_top > 0``.
    robust_trials / robust_base_seed:
        Replicas per elite candidate and their base seed (common
        random numbers pair the draws across candidates).
    robust_engine:
        ``"batched"`` (default) replays fault replicas against one
        captured baseline per candidate; ``"serial"`` re-simulates.
    """

    name = "simulated-annealing"

    def __init__(
        self,
        seed: int = 0,
        initial_temperature: float = 1.0,
        cooling: float = 0.9,
        plateau: int = 100,
        min_temperature_ratio: float = 1e-3,
        robustness: Optional[RobustnessTerm] = None,
        incremental: bool = True,
        cache: Optional[StageCache] = None,
        robust_rank_top: int = 0,
        robust_model_factory=None,
        robust_policy=None,
        robust_trials: int = 4,
        robust_base_seed: int = 0,
        robust_engine: str = "batched",
    ) -> None:
        self.rng = RandomSource(seed, name="annealer")
        self.initial_temperature = require_positive(
            "initial_temperature", initial_temperature
        )
        self.cooling = require_in_range(
            "cooling", cooling, 0.0, 1.0, inclusive_low=False,
            inclusive_high=False,
        )
        self.plateau = require_positive_int("plateau", plateau)
        self.min_temperature_ratio = require_positive(
            "min_temperature_ratio", min_temperature_ratio
        )
        self.robustness = robustness
        self.incremental = bool(incremental)
        self.cache = cache
        if robust_rank_top:
            require_positive_int("robust_rank_top", robust_rank_top)
            if robust_model_factory is None or robust_policy is None:
                raise ValidationError(
                    "robust_rank_top > 0 requires robust_model_factory "
                    "and robust_policy"
                )
            from repro.scheduler.robust import RANK_ENGINES

            if robust_engine not in RANK_ENGINES:
                valid = ", ".join(repr(e) for e in RANK_ENGINES)
                raise ValidationError(
                    f"unknown robust_engine {robust_engine!r}; "
                    f"valid engines: {valid}"
                )
        self.robust_rank_top = int(robust_rank_top)
        self.robust_model_factory = robust_model_factory
        self.robust_policy = robust_policy
        self.robust_trials = require_positive_int(
            "robust_trials", robust_trials
        )
        self.robust_base_seed = robust_base_seed
        self.robust_engine = robust_engine
        #: RobustScore list from the last refinement pass (empty when
        #: refinement is off or ``place`` has not run yet).
        self.last_robust_ranking: List = []
        self.stats = AnnealingStats()
        self._elite: Dict[Tuple[int, ...], float] = {}

    # -- state helpers --------------------------------------------------------
    @staticmethod
    def _flatten(
        spec: EnsembleSpec, placement: EnsemblePlacement
    ) -> List[int]:
        nodes: List[int] = []
        for mp in placement.members:
            nodes.append(mp.simulation_node)
            nodes.extend(mp.analysis_nodes)
        return nodes

    @staticmethod
    def _unflatten(
        spec: EnsembleSpec, flat: List[int], num_nodes: int
    ) -> EnsemblePlacement:
        members: List[MemberPlacement] = []
        cursor = 0
        for member in spec.members:
            shape = 1 + member.num_couplings
            chunk = flat[cursor : cursor + shape]
            cursor += shape
            members.append(MemberPlacement(chunk[0], tuple(chunk[1:])))
        return EnsemblePlacement(num_nodes, tuple(members))

    @staticmethod
    def _demand(
        spec: EnsembleSpec, flat: List[int]
    ) -> Dict[int, int]:
        demand: Dict[int, int] = {}
        cursor = 0
        for member in spec.members:
            for cores in [member.simulation.cores] + [
                a.cores for a in member.analyses
            ]:
                node = flat[cursor]
                demand[node] = demand.get(node, 0) + cores
                cursor += 1
        return demand

    # -- elite pool -----------------------------------------------------------
    def _note_elite(self, utility: float, flat: List[int]) -> None:
        """Record an accepted state in the elite pool.

        Pure bookkeeping — no RNG draws — so enabling refinement never
        perturbs the annealing trajectory. Distinct states are keyed by
        their flat assignment; re-visits keep the max utility.
        """
        if not self.robust_rank_top:
            return
        key = tuple(flat)
        prev = self._elite.get(key)
        if prev is None or utility > prev:
            self._elite[key] = utility

    def _robust_refine(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        best_flat: List[int],
    ) -> EnsemblePlacement:
        """Re-rank the elite pool under injected failures; best wins.

        The analytic winner is always in the candidate set, so
        refinement can only replace it with a state that scores at
        least as well under the failure model.
        """
        best_placement = self._unflatten(spec, best_flat, num_nodes)
        if not self.robust_rank_top:
            self.last_robust_ranking = []
            return best_placement
        # deferred: scheduler.robust pulls in the executor stack, which
        # this module does not need on the pure-analytic path.
        from repro.scheduler.robust import rank_placements_robust

        pool = sorted(
            self._elite.items(), key=lambda item: item[1], reverse=True
        )[: self.robust_rank_top]
        candidates = {
            f"elite-{rank}": self._unflatten(spec, list(key), num_nodes)
            for rank, (key, _) in enumerate(pool)
        }
        best_key = tuple(best_flat)
        if best_key not in self._elite or all(
            key != best_key for key, _ in pool
        ):
            candidates["elite-best"] = best_placement
        self.last_robust_ranking = rank_placements_robust(
            spec,
            candidates,
            self.robust_model_factory,
            self.robust_policy,
            trials=self.robust_trials,
            base_seed=self.robust_base_seed,
            method="des",
            engine=self.robust_engine,
        )
        return self.last_robust_ranking[0].placement

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
        initial_placement: Optional[EnsemblePlacement] = None,
    ) -> EnsemblePlacement:
        """Anneal from a random feasible state, or warm-start.

        ``initial_placement`` seeds the anneal from a known-good state
        instead of a random one — the mid-run re-planner warm-starts
        from the ensemble's *current* placement so the search explores
        the neighbourhood of what is already running. Omitting it
        preserves the seeded random start bit for bit (the warm start
        skips the start-state RNG draw entirely, so the move sequence
        itself is still the seed's).
        """
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        self.stats = AnnealingStats()
        self._elite = {}
        gen = self.rng.generator

        if initial_placement is not None:
            if initial_placement.num_nodes != num_nodes:
                raise ValidationError(
                    f"initial_placement spans "
                    f"{initial_placement.num_nodes} nodes, expected "
                    f"{num_nodes}"
                )
            initial_placement.validate_against(spec, cores_per_node)
            start = initial_placement
        else:
            # start from a random feasible state (reusing the random
            # policy's retry logic, seeded from our stream)
            start = RandomPolicy(seed=int(gen.integers(0, 2**31))).place(
                spec, num_nodes, cores_per_node
            )
        flat = self._flatten(spec, start)
        component_cores: List[int] = []
        for member in spec.members:
            component_cores.append(member.simulation.cores)
            component_cores.extend(a.cores for a in member.analyses)

        if self.incremental:
            return self._anneal_incremental(
                spec, num_nodes, cores_per_node, gen, flat, component_cores
            )

        context = PlanningContext(robustness=self.robustness)
        current = score_placement(
            spec, self._unflatten(spec, flat, num_nodes), context=context
        )
        self.stats.evaluations += 1
        best_flat = list(flat)
        best = current
        self._note_elite(current.utility, flat)

        temperature = self.initial_temperature * max(
            abs(current.utility), 1e-9
        )
        floor = temperature * self.min_temperature_ratio

        demand = self._demand(spec, flat)
        while temperature > floor:
            for _ in range(self.plateau):
                idx = int(gen.integers(0, len(flat)))
                old_node = flat[idx]
                cores = component_cores[idx]
                options = [
                    n
                    for n in range(num_nodes)
                    if n != old_node
                    and demand.get(n, 0) + cores <= cores_per_node
                ]
                if not options:
                    continue
                new_node = int(gen.choice(options))
                flat[idx] = new_node
                demand[old_node] -= cores
                demand[new_node] = demand.get(new_node, 0) + cores

                candidate = score_placement(
                    spec,
                    self._unflatten(spec, flat, num_nodes),
                    context=context,
                )
                self.stats.evaluations += 1
                delta = candidate.utility - current.utility
                if delta >= 0 or gen.random() < math.exp(delta / temperature):
                    current = candidate
                    self.stats.accepted += 1
                    self._note_elite(candidate.utility, flat)
                    if candidate.utility > best.utility:
                        best = candidate
                        best_flat = list(flat)
                        self.stats.improved += 1
                else:
                    # revert the move
                    flat[idx] = old_node
                    demand[new_node] -= cores
                    demand[old_node] += cores
            temperature *= self.cooling

        return self._robust_refine(spec, num_nodes, best_flat)

    # -- incremental (delta-evaluation) annealing -----------------------------
    def _utility_of(
        self,
        spec: EnsembleSpec,
        evaluation: FlatEvaluation,
        flat: List[int],
        num_nodes: int,
        robust_cluster: Optional[Cluster],
    ) -> float:
        """The move-acceptance utility from a cached flat evaluation.

        Mirrors ``score_placement(...).utility`` exactly: same
        objective aggregation, and — with a robustness term — the same
        surrogate penalty over the same (cached, bit-identical) stage
        predictions.
        """
        objective = objective_function(evaluation.indicators)
        if self.robustness is None:
            return objective
        penalty = self.robustness.penalty(
            spec,
            self._unflatten(spec, flat, num_nodes),
            cluster=robust_cluster,
            stages=evaluation.stages_by_name(spec),
        )
        return objective - penalty

    def _anneal_incremental(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
        gen,
        flat: List[int],
        component_cores: List[int],
    ) -> EnsemblePlacement:
        """The same annealing schedule with changed-nodes-only rescoring.

        A move relocates one component from ``old_node`` to
        ``new_node``; only members with a component on either node need
        new signatures (and, on a cache miss, new predictions) — the
        rest of the evaluation carries over unchanged. Utilities,
        acceptance decisions, and RNG draws are bit-identical to the
        full path, which the parity tests assert move for move.
        """
        cache = self.cache
        if cache is None or not cache.matches(None, None):
            cache = StageCache()
        robust_cluster: Optional[Cluster] = None
        if self.robustness is not None:
            robust_cluster = make_cori_like_cluster(num_nodes)

        evaluation = cache.evaluate_flat(spec, flat, num_nodes)
        current_utility = self._utility_of(
            spec, evaluation, flat, num_nodes, robust_cluster
        )
        self.stats.evaluations += 1
        best_flat = list(flat)
        best_utility = current_utility
        self._note_elite(current_utility, flat)

        temperature = self.initial_temperature * max(
            abs(current_utility), 1e-9
        )
        floor = temperature * self.min_temperature_ratio

        demand = self._demand(spec, flat)
        while temperature > floor:
            for _ in range(self.plateau):
                idx = int(gen.integers(0, len(flat)))
                old_node = flat[idx]
                cores = component_cores[idx]
                options = [
                    n
                    for n in range(num_nodes)
                    if n != old_node
                    and demand.get(n, 0) + cores <= cores_per_node
                ]
                if not options:
                    continue
                new_node = int(gen.choice(options))
                flat[idx] = new_node
                demand[old_node] -= cores
                demand[new_node] = demand.get(new_node, 0) + cores

                candidate_eval = cache.evaluate_flat(
                    spec,
                    flat,
                    num_nodes,
                    changed_nodes=frozenset((old_node, new_node)),
                    previous=evaluation,
                )
                candidate_utility = self._utility_of(
                    spec, candidate_eval, flat, num_nodes, robust_cluster
                )
                self.stats.evaluations += 1
                delta = candidate_utility - current_utility
                if delta >= 0 or gen.random() < math.exp(delta / temperature):
                    evaluation = candidate_eval
                    current_utility = candidate_utility
                    self.stats.accepted += 1
                    self._note_elite(candidate_utility, flat)
                    if candidate_utility > best_utility:
                        best_utility = candidate_utility
                        best_flat = list(flat)
                        self.stats.improved += 1
                else:
                    # revert the move
                    flat[idx] = old_node
                    demand[new_node] -= cores
                    demand[old_node] += cores
            temperature *= self.cooling

        return self._robust_refine(spec, num_nodes, best_flat)
