"""Placement policies: indicator-guided scheduling and baselines.

All policies implement :class:`SchedulingPolicy`: given an ensemble
spec, a node budget, and per-node core capacity, produce an
:class:`~repro.runtime.placement.EnsemblePlacement` (or raise
:class:`~repro.util.errors.PlacementError` if the budget cannot hold
the ensemble).

- :class:`ExhaustiveSearchPolicy` — scores every feasible placement;
  the optimum, tractable at the paper's problem sizes.
- :class:`GreedyIndicatorPolicy` — operationalizes the paper's
  conclusion ("schedule each ensemble member ... individually,
  worrying only about the co-location among ensemble components of
  each member"): members are placed one at a time, each choosing the
  member-local placement that maximizes the partial ensemble's
  F(P^{U,A,P}). Candidate count is per-member, not exponential.
- :class:`RoundRobinPolicy` — the classic spread-for-load-balance
  baseline (what a locality-unaware scheduler does).
- :class:`RandomPolicy` — seeded random feasible assignment.
"""

from __future__ import annotations

import abc
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.search.cache import StageCache

from repro.configs.generator import enumerate_placements
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import PlacementScore, score_placement
from repro.util.errors import PlacementError
from repro.util.rng import RandomSource
from repro.util.validation import require_positive_int


class SchedulingPolicy(abc.ABC):
    """Maps an ensemble onto a node budget."""

    #: human-readable policy name (for reports and benches)
    name: str = "abstract"

    @abc.abstractmethod
    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        """Produce a feasible placement or raise PlacementError."""

    # -- shared helpers ----------------------------------------------------
    @staticmethod
    def _component_cores(member: MemberSpec) -> List[int]:
        return [member.simulation.cores] + [a.cores for a in member.analyses]

    @staticmethod
    def _check_total_capacity(
        spec: EnsembleSpec, num_nodes: int, cores_per_node: int
    ) -> None:
        total = sum(m.total_cores for m in spec.members)
        if total > num_nodes * cores_per_node:
            raise PlacementError(
                f"ensemble needs {total} cores; budget is "
                f"{num_nodes} x {cores_per_node}"
            )


class ExhaustiveSearchPolicy(SchedulingPolicy):
    """Score every feasible placement; return the best.

    Runs through :func:`repro.search.engine.find_best_placement`: the
    canonical (symmetry-free) enumerator streams flat assignments into
    a memoized stage cache, so the search visits the same candidates
    in the same order and returns the same optimum as scoring every
    enumerated placement individually — just orders of magnitude
    faster (asserted in the search benchmarks).

    Parameters
    ----------
    cache:
        Optional :class:`~repro.search.cache.StageCache` shared across
        ``place`` calls (one is built per call when omitted).
    vectorized:
        Opt in to the numpy batch kernel with branch-and-bound
        (:mod:`repro.search.vectorized`). Falls back to the scalar
        path for tiny instances or unsupported contexts; the winner is
        re-scored through the scalar cache, so the returned placement
        and floats are the same either way.
    """

    name = "exhaustive"

    def __init__(
        self,
        cache: Optional["StageCache"] = None,
        vectorized: bool = False,
    ) -> None:
        self.evaluated = 0
        self.cache = cache
        self.vectorized = vectorized

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        from repro.search.engine import find_best_placement

        best, self.evaluated = find_best_placement(
            spec,
            num_nodes,
            cores_per_node,
            context=PlanningContext(
                cache=self.cache, vectorized=self.vectorized
            ),
        )
        return best.placement


class GreedyIndicatorPolicy(SchedulingPolicy):
    """Member-at-a-time placement maximizing the partial-ensemble F.

    For each member, candidate local placements are every assignment of
    its 1 + K components to nodes with remaining capacity, deduplicated
    by the multiset of unused-so-far nodes (untouched empty nodes are
    interchangeable). The member adopts the candidate whose addition
    maximizes F(P^{U,A,P}) of the members placed so far.
    """

    name = "greedy-indicator"

    def __init__(self) -> None:
        self.evaluated = 0

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        self.evaluated = 0

        placed: List[MemberPlacement] = []
        free: Dict[int, int] = {n: cores_per_node for n in range(num_nodes)}

        for i, member in enumerate(spec.members):
            candidates = self._member_candidates(
                member, free, cores_per_node
            )
            if not candidates:
                raise PlacementError(
                    f"cannot place member {member.name!r}: "
                    f"insufficient free cores"
                )
            # look-ahead: prefer candidates whose residual capacity can
            # still hold every remaining member (first-fit-decreasing
            # check); fall back to all candidates if none pass — a
            # failed FFD is pessimistic, not a proof of infeasibility.
            remaining = spec.members[i + 1 :]
            safe = [
                c
                for c in candidates
                if self._residual_feasible(member, c, free, remaining)
            ]
            if safe:
                candidates = safe
            partial_spec = EnsembleSpec(
                f"{spec.name}-partial-{i}", tuple(spec.members[: i + 1])
            )
            best: Optional[Tuple[PlacementScore, MemberPlacement]] = None
            for candidate in candidates:
                trial = EnsemblePlacement(
                    num_nodes, tuple(placed + [candidate])
                )
                score = score_placement(partial_spec, trial)
                self.evaluated += 1
                if best is None or score > best[0]:
                    best = (score, candidate)
            assert best is not None
            chosen = best[1]
            placed.append(chosen)
            free[chosen.simulation_node] -= member.simulation.cores
            for ana, node in zip(member.analyses, chosen.analysis_nodes):
                free[node] -= ana.cores

        return EnsemblePlacement(num_nodes, tuple(placed))

    def _residual_feasible(
        self,
        member: MemberSpec,
        candidate: MemberPlacement,
        free: Dict[int, int],
        remaining: Sequence[MemberSpec],
    ) -> bool:
        """Can the remaining members still fit after taking ``candidate``?

        First-fit-decreasing over the residual free map — a standard
        bin-packing heuristic: sufficient when it succeeds, inconclusive
        when it fails (hence only used as a preference filter).
        """
        residual = dict(free)
        residual[candidate.simulation_node] -= member.simulation.cores
        for ana, node in zip(member.analyses, candidate.analysis_nodes):
            residual[node] -= ana.cores
        if any(v < 0 for v in residual.values()):
            return False
        components = sorted(
            (
                cores
                for m in remaining
                for cores in self._component_cores(m)
            ),
            reverse=True,
        )
        for cores in components:
            target = None
            for node in sorted(residual, key=lambda n: residual[n]):
                if residual[node] >= cores:
                    target = node  # best-fit: tightest node that fits
                    break
            if target is None:
                return False
            residual[target] -= cores
        return True

    def _member_candidates(
        self,
        member: MemberSpec,
        free: Dict[int, int],
        cores_per_node: int,
    ) -> List[MemberPlacement]:
        cores = self._component_cores(member)
        nodes = sorted(free)
        candidates: List[MemberPlacement] = []
        seen: set = set()
        for assignment in itertools.product(nodes, repeat=len(cores)):
            demand: Dict[int, int] = {}
            ok = True
            for node, c in zip(assignment, cores):
                demand[node] = demand.get(node, 0) + c
                if demand[node] > free[node]:
                    ok = False
                    break
            if not ok:
                continue
            # dedup: untouched empty nodes are interchangeable — relabel
            # fresh (currently empty) nodes by order of first use
            fresh = {n for n in nodes if free[n] == cores_per_node}
            relabel: Dict[int, int] = {}
            sig = []
            counter = 0
            for node in assignment:
                if node in fresh:
                    if node not in relabel:
                        relabel[node] = counter
                        counter += 1
                    sig.append(("fresh", relabel[node]))
                else:
                    sig.append(("used", node))
            key = tuple(sig)
            if key in seen:
                continue
            seen.add(key)
            candidates.append(
                MemberPlacement(assignment[0], tuple(assignment[1:]))
            )
        return candidates


class RoundRobinPolicy(SchedulingPolicy):
    """Spread components across nodes round-robin (locality-unaware)."""

    name = "round-robin"

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        free = {n: cores_per_node for n in range(num_nodes)}
        next_node = 0
        placed: List[MemberPlacement] = []

        def take(cores: int) -> int:
            nonlocal next_node
            for _ in range(num_nodes):
                node = next_node % num_nodes
                next_node += 1
                if free[node] >= cores:
                    free[node] -= cores
                    return node
            # second pass: any node with room (round robin was too strict)
            for node in sorted(free):
                if free[node] >= cores:
                    free[node] -= cores
                    return node
            raise PlacementError(
                f"round-robin cannot fit a {cores}-core component"
            )

        for member in spec.members:
            sim_node = take(member.simulation.cores)
            ana_nodes = tuple(take(a.cores) for a in member.analyses)
            placed.append(MemberPlacement(sim_node, ana_nodes))
        return EnsemblePlacement(num_nodes, tuple(placed))


class RandomPolicy(SchedulingPolicy):
    """Uniformly random feasible assignment (seeded)."""

    name = "random"

    def __init__(self, seed: int = 0, max_attempts: int = 10_000) -> None:
        self.rng = RandomSource(seed, name="random-policy")
        self.max_attempts = require_positive_int("max_attempts", max_attempts)

    def place(
        self,
        spec: EnsembleSpec,
        num_nodes: int,
        cores_per_node: int,
    ) -> EnsemblePlacement:
        require_positive_int("num_nodes", num_nodes)
        self._check_total_capacity(spec, num_nodes, cores_per_node)
        gen = self.rng.generator
        for _ in range(self.max_attempts):
            free = {n: cores_per_node for n in range(num_nodes)}
            placed: List[MemberPlacement] = []
            ok = True
            for member in spec.members:
                assignment: List[int] = []
                for cores in self._component_cores(member):
                    options = [n for n, f in free.items() if f >= cores]
                    if not options:
                        ok = False
                        break
                    node = int(gen.choice(options))
                    free[node] -= cores
                    assignment.append(node)
                if not ok:
                    break
                placed.append(
                    MemberPlacement(assignment[0], tuple(assignment[1:]))
                )
            if ok:
                return EnsemblePlacement(num_nodes, tuple(placed))
        raise PlacementError(
            f"random policy found no feasible placement in "
            f"{self.max_attempts} attempts"
        )
