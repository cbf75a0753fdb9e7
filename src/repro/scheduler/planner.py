"""The resource-constrained planner: cores + placement in one step.

Given an ensemble whose simulations are user-fixed (the §3.4
assumption), a node budget, and a placement policy, the planner:

1. chooses the analysis core count with the §3.4 heuristic (Eq. 4
   feasibility, maximize E) evaluated in the co-location-free baseline;
2. rebuilds the ensemble spec at that core count;
3. delegates placement to the policy;
4. returns a :class:`Plan` carrying the placement, its score, and the
   provisioning decision — ready to pass to
   :func:`repro.runtime.runner.run_ensemble`.

A :class:`~repro.faults.analytic.RobustnessTerm` makes the plan
failure-aware: the final score carries the surrogate's expected
inflation penalty and the returned plan's score orders by
``objective - penalty`` — so two node budgets (or two policies) can be
compared on their robust utility without any DES trials.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.components.analysis import EigenAnalysisModel
from repro.core.heuristic import CoreAllocationChoice, choose_analysis_cores
from repro.core.stages import MemberStages
from repro.platform.cluster import Cluster
from repro.runtime.analytic import predict_member_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.scheduler.context import DEFAULT_CONTEXT, PlanningContext
from repro.scheduler.objectives import PlacementScore, score_placement
from repro.scheduler.policies import GreedyIndicatorPolicy, SchedulingPolicy
from repro.util.errors import ConfigurationError, PlacementError
from repro.util.validation import require_positive_int

DEFAULT_CORE_COUNTS = (1, 2, 4, 8, 16, 32)


@dataclasses.dataclass(frozen=True)
class Plan:
    """A complete scheduling decision."""

    spec: EnsembleSpec
    placement: EnsemblePlacement
    score: PlacementScore
    analysis_cores: int
    core_choice: CoreAllocationChoice
    policy_name: str


class ResourceConstrainedPlanner:
    """Plans an ensemble run within a node budget.

    Parameters
    ----------
    policy:
        Placement policy (defaults to the indicator-guided greedy).
    core_counts:
        Candidate analysis core counts for the §3.4 heuristic.
    context:
        Optional :class:`~repro.scheduler.context.PlanningContext`
        scoping the final placement score: its ``robustness`` term
        makes the plan's score carry the surrogate's expected
        inflation penalty (and order by the penalized utility), its
        ``cache`` is shared across ``plan`` calls, and its
        ``cluster``/``dtl`` fix the platform the final score and the
        §3.4 core-count probes are predicted on.
    """

    def __init__(
        self,
        policy: Optional[SchedulingPolicy] = None,
        core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
        *,
        context: Optional[PlanningContext] = None,
    ) -> None:
        self.policy = policy or GreedyIndicatorPolicy()
        self.core_counts = list(core_counts)
        if not self.core_counts:
            raise ConfigurationError("core_counts must be non-empty")
        self.context = context or DEFAULT_CONTEXT
        #: probe predictions run by the most recent ``plan`` call —
        #: distinct core counts actually evaluated, after memoization
        self.probe_evaluations = 0

    def plan(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int = 32,
    ) -> Plan:
        """Produce a plan for ``spec`` over ``num_nodes`` nodes."""
        require_positive_int("num_nodes", num_nodes)
        require_positive_int("cores_per_node", cores_per_node)

        choice = self._choose_cores(spec, cores_per_node)
        sized_spec = self._respec_with_cores(spec, choice.cores)
        placement = self.policy.place(sized_spec, num_nodes, cores_per_node)
        placement = self._compact(placement)
        score = score_placement(sized_spec, placement, context=self.context)
        return Plan(
            spec=sized_spec,
            placement=placement,
            score=score,
            analysis_cores=choice.cores,
            core_choice=choice,
            policy_name=self.policy.name,
        )

    # -- internals ----------------------------------------------------------
    @staticmethod
    def _compact(placement: EnsemblePlacement) -> EnsemblePlacement:
        """Release unused nodes: renumber used nodes consecutively.

        A policy given a generous budget may leave nodes idle; the
        allocation actually requested should be only what is used —
        exactly the provisioning (P) layer's preference.
        """
        used = sorted(placement.used_nodes)
        relabel = {old: new for new, old in enumerate(used)}
        members = tuple(
            MemberPlacement(
                relabel[mp.simulation_node],
                tuple(relabel[n] for n in mp.analysis_nodes),
            )
            for mp in placement.members
        )
        return EnsemblePlacement(len(used), members)

    def _choose_cores(
        self, spec: EnsembleSpec, cores_per_node: int
    ) -> CoreAllocationChoice:
        """Run the §3.4 heuristic on the first member's coupling shape."""
        member = spec.members[0]
        counts = [
            c
            for c in self.core_counts
            if member.simulation.cores + member.num_couplings * c
            <= cores_per_node * 2  # sanity bound: member fits two nodes
        ]
        if not counts:
            raise PlacementError(
                "no candidate analysis core count fits the node size"
            )

        # the heuristic, its single-count fallback, and the full sweep
        # all probe through this closure, re-requesting the same core
        # counts — memoize per plan() call so each count is predicted
        # exactly once however many paths ask for it
        probe_stages: dict = {}
        self.probe_evaluations = 0

        def evaluate(cores: int) -> MemberStages:
            cached = probe_stages.get(cores)
            if cached is not None:
                return cached
            # §3.4 baseline: co-location-free — the simulation and each
            # analysis on dedicated nodes, so the sweep measures pure
            # component scaling, not contention.
            probe_member = self._resize_member(member, cores, n_steps=1)
            probe = EnsembleSpec("probe", (probe_member,))
            k = probe_member.num_couplings
            placement = EnsemblePlacement(
                k + 1,
                (MemberPlacement(0, tuple(range(1, k + 1))),),
            )
            stages = predict_member_stages(
                probe,
                placement,
                cluster=self._probe_cluster(k + 1),
                dtl=self.context.dtl,
            )[probe_member.name]
            probe_stages[cores] = stages
            self.probe_evaluations += 1
            return stages

        choice = choose_analysis_cores(evaluate, counts)
        if choice is None:
            # no count satisfies Eq. 4: fall back to the largest count
            # (closest to feasibility) rather than failing the plan
            sweep = choose_analysis_cores(evaluate, [max(counts)])
            if sweep is None:
                from repro.core.heuristic import sweep_analysis_cores

                points = sweep_analysis_cores(evaluate, counts)
                best = min(points, key=lambda p: p.sigma)
                return CoreAllocationChoice(
                    cores=best.cores, point=best, sweep=tuple(points)
                )
            return sweep
        return choice

    def _probe_cluster(self, num_nodes: int) -> Optional[Cluster]:
        """A fresh ``num_nodes`` allocation of the context's platform.

        None for the default platform (the predictor's own Cori-like
        default); otherwise the context's node, network and contention
        models on a private cluster, so a probe neither needs the
        context's cluster to be large enough nor resets its nodes.
        """
        cluster = self.context.cluster
        if cluster is None:
            return None
        return Cluster(
            node_spec=cluster.node_spec,
            num_nodes=num_nodes,
            network=cluster.network,
            contention=cluster.contention,
        )

    @staticmethod
    def _resize_member(
        member: MemberSpec, analysis_cores: int, n_steps: Optional[int] = None
    ) -> MemberSpec:
        analyses = []
        for ana in member.analyses:
            if isinstance(ana, EigenAnalysisModel):
                analyses.append(ana.with_cores(analysis_cores))
            else:  # pragma: no cover - custom analysis models keep cores
                analyses.append(ana)
        return MemberSpec(
            name=member.name,
            simulation=member.simulation,
            analyses=tuple(analyses),
            n_steps=n_steps if n_steps is not None else member.n_steps,
        )

    def _respec_with_cores(
        self, spec: EnsembleSpec, analysis_cores: int
    ) -> EnsembleSpec:
        return EnsembleSpec(
            spec.name,
            tuple(
                self._resize_member(m, analysis_cores) for m in spec.members
            ),
        )
