"""Memoized stage prediction for placement search.

:func:`repro.runtime.analytic.predict_member_stages` re-derives every
member's steady state from scratch for each candidate placement —
allocate the whole ensemble on a fresh cluster, assess contention on
every node, evaluate every DTL coupling. During a search almost all of
that work repeats: a member's stages depend only on its **local
co-location signature** — what shares its nodes (in allocation order),
how its own components are arranged, and how far each remote coupling
travels — not on where unrelated members sit. The :class:`StageCache`
exploits this at two levels:

- **node level** — contention assessments are cached per ordered
  resident list, so every node population pattern is assessed once per
  search instead of once per candidate;
- **member level** — assembled :class:`~repro.core.stages
  .MemberStages` and the derived indicator/makespan terms are cached
  per member signature, so a member whose neighborhood is unchanged
  between candidates costs two dictionary lookups.

Bit-identity with the uncached path is structural, not approximate:
cache misses run the *same* code (`Node.assess`, :func:`repro.runtime
.effective.member_effective_stages`, :func:`~repro.core.indicators
.apply_stages`) on the same inputs, so hits return the very floats the
full predictor would have produced. The tests assert this equality
exactly (``==``, not ``approx``).

Signatures identify components by a content fingerprint (model type,
cores, solo compute time, payload, workload profile minus its name),
so two identically-shaped members share cache entries, and couplings
carry their dragonfly hop count, so relabeling-equivalent placements
hit the same entries while topologically distinct ones do not.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.indicators import (
    FINAL_STAGE_ORDER,
    MemberMeasurement,
    apply_stages,
)
from repro.core.insitu import member_makespan
from repro.core.stages import AnalysisStages, MemberStages, SimulationStages
from repro.dtl.base import DataTransportLayer
from repro.dtl.burstbuffer import BurstBufferDTL
from repro.dtl.dimes import InMemoryStagingDTL
from repro.dtl.pfs import ParallelFilesystemDTL
from repro.platform.cluster import Cluster
from repro.platform.contention import ContentionAssessment, ContentionModel
from repro.platform.node import Node
from repro.platform.specs import cori_like_network, cori_like_node
from repro.runtime.effective import member_effective_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec
from repro.util.errors import PlacementError

#: DTL types whose staging costs depend on node pairs only through the
#: dragonfly hop count (or not at all) — for these, signatures use hop
#: distances and cache entries transfer between relabeled placements.
_HOP_DETERMINED_DTLS = (
    InMemoryStagingDTL,
    ParallelFilesystemDTL,
    BurstBufferDTL,
)

Signature = Tuple

#: :meth:`StageCache.trim` bounds. Spec-identity tables (one entry per
#: spec or component model seen, each pinning its spec) are cheap to
#: rebuild and are dropped past ``TRIM_MAX_SPECS`` specs; the content
#: memo tables, which carry hits across jobs, past ``TRIM_MAX_ENTRIES``
#: entries in total.
TRIM_MAX_SPECS = 32
TRIM_MAX_ENTRIES = 20_000


class StageCache:
    """Shared memo of stage predictions for one platform context.

    A cache is bound to a platform context: a node/network/contention
    description and a DTL cost model (Cori-like defaults when omitted,
    matching :func:`~repro.runtime.analytic.predict_member_stages`'s
    own defaults). It may be shared freely across placements, node
    budgets, and ensemble specs evaluated under that context — entries
    are keyed by content fingerprints, never by object identity.

    Parameters
    ----------
    cluster:
        Platform template (node spec, network, contention model). Only
        these are read; the cluster's live allocation state is never
        touched. Defaults to the Cori-like platform.
    dtl:
        Staging cost model. Defaults to the DIMES-like in-memory tier
        wired to the context's network and memory bandwidth.
    """

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        dtl: Optional[DataTransportLayer] = None,
    ) -> None:
        self._default_context = cluster is None and dtl is None
        if cluster is None:
            self._node_spec = cori_like_node()
            self._network = cori_like_network()
            self._contention = ContentionModel(
                core_freq_hz=self._node_spec.core_freq_hz,
                memory_bandwidth=self._node_spec.memory_bandwidth,
            )
        else:
            self._node_spec = cluster.node_spec
            self._network = cluster.network
            self._contention = cluster.contention
        if dtl is None:
            dtl = InMemoryStagingDTL(
                network=self._network,
                memory_bandwidth=self._node_spec.memory_bandwidth,
            )
        self.dtl = dtl
        self._hop_keyed = isinstance(dtl, _HOP_DETERMINED_DTLS)

        # content fingerprint interning
        self._class_ids: Dict[Tuple, int] = {}
        self._model_keys: Dict[int, Tuple[object, int]] = {}
        self._node_sig_ids: Dict[Tuple[int, ...], int] = {}
        self._layouts: Dict[
            int, Tuple[object, List[object], List[int], List[int]]
        ] = {}
        self._hops: Dict[Tuple[int, int], int] = {}

        # memo tables
        self._node_assessments: Dict[
            Tuple[int, ...], List[ContentionAssessment]
        ] = {}
        self._member_stages: Dict[Signature, MemberStages] = {}
        self._member_terms: Dict[Tuple, Tuple[float, float]] = {}
        # the batch kernel's node populations: per-position dilations
        # keyed by the residents' (cores, profile) content, in order
        self._population_dilations: Dict[Tuple, Tuple[float, ...]] = {}

        # diagnostics
        self.stage_hits = 0
        self.stage_misses = 0
        self.node_hits = 0
        self.node_misses = 0

    # -- context compatibility ----------------------------------------------
    def matches(
        self,
        cluster: Optional[Cluster],
        dtl: Optional[DataTransportLayer],
    ) -> bool:
        """True iff this cache's context reproduces ``(cluster, dtl)``.

        Callers holding a cache pass it alongside their usual
        ``cluster`` / ``dtl`` arguments; a mismatched cache is simply
        ignored (correctness first), never consulted.
        """
        if cluster is not None:
            if cluster.node_spec != self._node_spec:
                return False
            if cluster.network.spec != self._network.spec:
                return False
            c = cluster.contention
            if (
                c.core_freq_hz != self._contention.core_freq_hz
                or c.memory_bandwidth != self._contention.memory_bandwidth
                or c.enabled != self._contention.enabled
            ):
                return False
        elif not self._default_cluster_context():
            return False
        if dtl is None:
            return self._is_default_dtl()
        if dtl is self.dtl:
            return True
        if isinstance(self.dtl, InMemoryStagingDTL) and isinstance(
            dtl, InMemoryStagingDTL
        ):
            a, b = self.dtl, dtl
            return (
                a.network.spec == b.network.spec
                and a.memory_bandwidth == b.memory_bandwidth
                and a.marshal_bandwidth == b.marshal_bandwidth
                and a.service_latency == b.service_latency
                and a.service_bandwidth == b.service_bandwidth
                and a.producer_progress_tax == b.producer_progress_tax
            )
        return False

    def _default_cluster_context(self) -> bool:
        default = cori_like_node()
        return (
            self._node_spec == default
            and self._network.spec == cori_like_network().spec
            and self._contention.enabled
            and self._contention.core_freq_hz == default.core_freq_hz
            and self._contention.memory_bandwidth == default.memory_bandwidth
        )

    def _is_default_dtl(self) -> bool:
        if not isinstance(self.dtl, InMemoryStagingDTL):
            return False
        reference = InMemoryStagingDTL(
            network=self._network,
            memory_bandwidth=self._node_spec.memory_bandwidth,
        )
        a, b = self.dtl, reference
        return (
            a.network.spec == b.network.spec
            and a.memory_bandwidth == b.memory_bandwidth
            and a.marshal_bandwidth == b.marshal_bandwidth
            and a.service_latency == b.service_latency
            and a.service_bandwidth == b.service_bandwidth
            and a.producer_progress_tax == b.producer_progress_tax
        )

    # -- fingerprints --------------------------------------------------------
    def _class_of(self, model: object) -> int:
        """Intern a component model's content fingerprint to an id."""
        entry = self._model_keys.get(id(model))
        if entry is not None and entry[0] is model:
            return entry[1]
        profile = model.profile  # type: ignore[attr-defined]
        key = (
            type(model).__qualname__,
            model.cores,  # type: ignore[attr-defined]
            model.solo_compute_time(),  # type: ignore[attr-defined]
            model.payload_bytes(),  # type: ignore[attr-defined]
            profile.working_set_bytes,
            profile.llc_refs_per_instr,
            profile.solo_llc_miss_ratio,
            profile.max_llc_miss_ratio,
            profile.contention_exponent,
            profile.base_cpi,
            profile.instructions_per_unit,
            profile.miss_penalty_cycles,
        )
        class_id = self._class_ids.setdefault(key, len(self._class_ids))
        self._model_keys[id(model)] = (model, class_id)
        return class_id

    # -- node assessments ----------------------------------------------------
    def _assess_node(
        self, node_sig: Tuple[int, ...], residents: Sequence[object]
    ) -> List[ContentionAssessment]:
        """Assessments of ``residents`` (in allocation order) on one node."""
        cached = self._node_assessments.get(node_sig)
        if cached is not None:
            self.node_hits += 1
            return cached
        self.node_misses += 1
        node = Node(0, self._node_spec)
        names: List[str] = []
        for model in residents:
            node.allocate(model.name, model.cores, model.profile)  # type: ignore[attr-defined]
            names.append(model.name)  # type: ignore[attr-defined]
        merged = node.assess(self._contention)
        out = [merged[name] for name in names]
        self._node_assessments[node_sig] = out
        return out

    def population_dilations(
        self,
        population: Tuple,
        assess: Callable[[], Tuple[float, ...]],
    ) -> Tuple[float, ...]:
        """Memoized per-position dilations of one node population.

        ``population`` is the residents' content keys in allocation
        order (what :class:`~repro.search.vectorized.VectorizedScorer`
        codes a node by); ``assess`` computes the dilations on a miss.
        Hits and misses count as node-level lookups.
        """
        cached = self._population_dilations.get(population)
        if cached is not None:
            self.node_hits += 1
            return cached
        self.node_misses += 1
        cached = assess()
        self._population_dilations[population] = cached
        return cached

    # -- flat-assignment evaluation ------------------------------------------
    def _flat_layout(
        self, spec: EnsembleSpec
    ) -> Tuple[List[object], List[int], List[int]]:
        """(flat component models, their class ids, member start offsets)."""
        entry = self._layouts.get(id(spec))
        if entry is not None and entry[0] is spec:
            return entry[1], entry[2], entry[3]
        models: List[object] = []
        classes: List[int] = []
        offsets: List[int] = []
        for member in spec.members:
            offsets.append(len(models))
            models.append(member.simulation)
            classes.append(self._class_of(member.simulation))
            for ana in member.analyses:
                models.append(ana)
                classes.append(self._class_of(ana))
        self._layouts[id(spec)] = (spec, models, classes, offsets)
        return models, classes, offsets

    def _hops_between(self, src: int, dst: int) -> int:
        key = (src, dst)
        cached = self._hops.get(key)
        if cached is None:
            cached = self._network.hops(src, dst)
            self._hops[key] = cached
        return cached

    def evaluate_flat(
        self,
        spec: EnsembleSpec,
        flat: Sequence[int],
        num_nodes: int,
        changed_nodes: Optional[frozenset] = None,
        previous: Optional["FlatEvaluation"] = None,
    ) -> "FlatEvaluation":
        """Evaluate a flat component-to-node assignment through the cache.

        With ``previous`` and ``changed_nodes`` given (delta mode), only
        members touching a changed node are re-signed; every other
        member's signature — and therefore its stage and indicator
        terms — carries over from ``previous`` unchanged. The result is
        identical either way; delta mode just skips provably unchanged
        work.
        """
        models, classes, offsets = self._flat_layout(spec)
        if len(flat) != len(models):
            raise PlacementError(
                f"flat assignment has {len(flat)} entries, spec has "
                f"{len(models)} components"
            )

        residents: Dict[int, List[int]] = {}
        demand: Dict[int, int] = {}
        for idx, node in enumerate(flat):
            residents.setdefault(node, []).append(idx)
            demand[node] = demand.get(node, 0) + models[idx].cores  # type: ignore[attr-defined]
        overloaded = {
            n: c for n, c in demand.items() if c > self._node_spec.cores
        }
        if overloaded:
            raise PlacementError(
                f"nodes oversubscribed (capacity {self._node_spec.cores}): "
                f"{overloaded}"
            )
        node_sigs: Dict[int, Tuple[int, ...]] = {
            n: tuple(classes[i] for i in idxs)
            for n, idxs in residents.items()
        }
        sig_ids = self._node_sig_ids
        node_sig_ids: Dict[int, int] = {}
        for n, sig in node_sigs.items():
            interned = sig_ids.get(sig)
            if interned is None:
                interned = len(sig_ids)
                sig_ids[sig] = interned
            node_sig_ids[n] = interned
        position: Dict[int, int] = {}
        for idxs in residents.values():
            for pos, idx in enumerate(idxs):
                position[idx] = pos

        sigs: List[Signature] = []
        stages_list: List[MemberStages] = []
        indicators: List[float] = []
        makespans: List[float] = []
        for j, member in enumerate(spec.members):
            start = offsets[j]
            shape = 1 + member.num_couplings
            comp_nodes = tuple(flat[start : start + shape])
            if (
                previous is not None
                and changed_nodes is not None
                and not any(n in changed_nodes for n in comp_nodes)
            ):
                sigs.append(previous.sigs[j])
                stages_list.append(previous.stages[j])
                indicators.append(previous.indicators[j])
                makespans.append(previous.makespans[j])
                continue
            sig = self._member_signature(
                comp_nodes, node_sig_ids, position, start, shape
            )
            stages = self._stages_for(
                sig, member, comp_nodes, start, residents, models,
                node_sigs, position,
            )
            indicator, makespan = self._terms_for(
                sig, member, comp_nodes, stages, num_nodes
            )
            sigs.append(sig)
            stages_list.append(stages)
            indicators.append(indicator)
            makespans.append(makespan)
        return FlatEvaluation(
            sigs=sigs,
            stages=stages_list,
            indicators=indicators,
            makespans=makespans,
        )

    def _member_signature(
        self,
        comp_nodes: Tuple[int, ...],
        node_sig_ids: Dict[int, int],
        position: Dict[int, int],
        start: int,
        shape: int,
    ) -> Signature:
        relabel: Dict[int, int] = {}
        local: List[int] = []
        for node in comp_nodes:
            if node not in relabel:
                relabel[node] = len(relabel)
            local.append(relabel[node])
        neighborhoods = tuple(
            node_sig_ids[node] for node in relabel  # first-use order
        )
        positions = tuple(position[start + k] for k in range(shape))
        sim_node = comp_nodes[0]
        if self._hop_keyed:
            coupling_key = tuple(
                0 if node == sim_node else self._hops_between(sim_node, node)
                for node in comp_nodes[1:]
            )
        else:
            coupling_key = ("raw", sim_node) + comp_nodes[1:]
        return (tuple(local), neighborhoods, positions, coupling_key)

    def _stages_for(
        self,
        sig: Signature,
        member,
        comp_nodes: Tuple[int, ...],
        start: int,
        residents: Dict[int, List[int]],
        models: List[object],
        node_sigs: Dict[int, Tuple[int, ...]],
        position: Dict[int, int],
    ) -> MemberStages:
        cached = self._member_stages.get(sig)
        if cached is not None:
            self.stage_hits += 1
            return cached
        self.stage_misses += 1
        assessments: Dict[str, ContentionAssessment] = {}
        component_models = [member.simulation] + list(member.analyses)
        for k, (model, node) in enumerate(zip(component_models, comp_nodes)):
            per_node = self._assess_node(
                node_sigs[node], [models[i] for i in residents[node]]
            )
            assessments[model.name] = per_node[position[start + k]]
        mp = MemberPlacement(comp_nodes[0], tuple(comp_nodes[1:]))
        effective = member_effective_stages(member, mp, assessments, self.dtl)
        stages = MemberStages(
            simulation=SimulationStages(
                compute=effective.simulation.compute_time,
                write=effective.simulation.io_time,
            ),
            analyses=tuple(
                AnalysisStages(read=a.io_time, analyze=a.compute_time)
                for a in effective.analyses
            ),
        )
        self._member_stages[sig] = stages
        return stages

    def _terms_for(
        self,
        sig: Signature,
        member,
        comp_nodes: Tuple[int, ...],
        stages: MemberStages,
        num_nodes: int,
    ) -> Tuple[float, float]:
        key = (sig, member.n_steps, num_nodes)
        cached = self._member_terms.get(key)
        if cached is not None:
            return cached
        mp = MemberPlacement(comp_nodes[0], tuple(comp_nodes[1:]))
        measurement = MemberMeasurement(
            name=member.name,
            stages=stages,
            total_cores=member.total_cores,
            placement=mp.to_placement_sets(),
        )
        indicator = apply_stages(measurement, FINAL_STAGE_ORDER, num_nodes)
        makespan = member_makespan(stages, member.n_steps)
        self._member_terms[key] = (indicator, makespan)
        return (indicator, makespan)

    # -- memory bound -----------------------------------------------------------
    def entries(self) -> int:
        """Entries held in the content memo tables."""
        return (
            len(self._class_ids)
            + len(self._node_sig_ids)
            + len(self._hops)
            + len(self._node_assessments)
            + len(self._member_stages)
            + len(self._member_terms)
            + len(self._population_dilations)
        )

    def trim(self) -> bool:
        """Drop memo tables past their bound; True if any were dropped.

        Meant for the gaps between searches (a service worker calls it
        after every job), never during one. Dropping only forgets: a
        later lookup recomputes the same floats. The hit/miss counters
        are kept, so their deltas stay meaningful.
        """
        if self.entries() > TRIM_MAX_ENTRIES:
            for table in (
                self._class_ids,
                self._model_keys,
                self._node_sig_ids,
                self._layouts,
                self._hops,
                self._node_assessments,
                self._member_stages,
                self._member_terms,
                self._population_dilations,
            ):
                table.clear()
            return True
        if len(self._layouts) > TRIM_MAX_SPECS:
            self._layouts.clear()
            self._model_keys.clear()
            return True
        return False

    # -- placement-level API --------------------------------------------------
    @staticmethod
    def _flatten(placement: EnsemblePlacement) -> List[int]:
        flat: List[int] = []
        for mp in placement.members:
            flat.append(mp.simulation_node)
            flat.extend(mp.analysis_nodes)
        return flat

    def predict(
        self, spec: EnsembleSpec, placement: EnsemblePlacement
    ) -> Dict[str, MemberStages]:
        """Memoized drop-in for :func:`~repro.runtime.analytic
        .predict_member_stages` under this cache's context."""
        evaluation = self.evaluate_flat(
            spec, self._flatten(placement), placement.num_nodes
        )
        return {
            member.name: stages
            for member, stages in zip(spec.members, evaluation.stages)
        }

    def member_terms(
        self, spec: EnsembleSpec, placement: EnsemblePlacement
    ) -> "FlatEvaluation":
        """Cached per-member indicator/makespan terms for a placement."""
        return self.evaluate_flat(
            spec, self._flatten(placement), placement.num_nodes
        )

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters (stage = member level, node = assessments).

        The public statistics surface: the placement service aggregates
        these per-worker dicts into its ``GET /stats`` payload, and
        ``scripts/bench_search.py`` records them per benchmark row.
        """
        return {
            "stage_hits": self.stage_hits,
            "stage_misses": self.stage_misses,
            "node_hits": self.node_hits,
            "node_misses": self.node_misses,
        }


class FlatEvaluation:
    """Per-member evaluation of one flat assignment (cache-backed).

    Holds parallel lists over members: signature, stages, final-stage
    indicator, and makespan. Annealing keeps the previous evaluation
    and passes it back with the moved nodes to get delta updates.
    """

    __slots__ = ("sigs", "stages", "indicators", "makespans")

    def __init__(
        self,
        sigs: List[Signature],
        stages: List[MemberStages],
        indicators: List[float],
        makespans: List[float],
    ) -> None:
        self.sigs = sigs
        self.stages = stages
        self.indicators = indicators
        self.makespans = makespans

    def stages_by_name(self, spec: EnsembleSpec) -> Dict[str, MemberStages]:
        return {
            member.name: stages
            for member, stages in zip(spec.members, self.stages)
        }

    @property
    def worst_makespan(self) -> float:
        worst = 0.0
        for m in self.makespans:
            worst = max(worst, m)
        return worst
