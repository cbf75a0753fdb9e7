"""Seeded request mixes for the placement-service benchmark.

Each workload turns a seed into a warm-up list and a long timed
sequence of :class:`~repro.service.schemas.PlacementRequest` objects.
The server only ever sees these generated requests.

Sequences are built in *blocks*: every block holds each request shape
of the workload once, in a seeded order, with seeded parameters that
change the answer (atom counts, step counts, failure rates, drift) but
not the shape's size class. A timed window then always sees the same
size mix whatever the seed, which keeps throughput and tail latency
comparable across seeds while the individual requests stay distinct.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.configs.generator import enumerate_placements
from repro.coschedule.scenarios import canonical_mixed_deadline_stream
from repro.runtime.placement import pack_members_per_node
from repro.runtime.spec import EnsembleSpec, default_member
from repro.search.canonical import (
    component_core_demands,
    count_canonical_assignments,
)
from repro.search.vectorized import MIN_VECTORIZED_CANDIDATES
from repro.service.schemas import (
    CoscheduleOptions,
    PlacementRequest,
    RescheduleOptions,
)

CORES_PER_NODE = 32

#: Atom counts the timed requests draw from. Warm-up requests use
#: ``WARMUP_NATOMS``, outside this range, so they never share a digest
#: (or a StageCache entry) with a timed request.
NATOMS = tuple(range(260_000, 300_001, 2_000))
WARMUP_NATOMS = 180_000

#: Branch-and-bound prunes far less below about 240k atoms on the
#: 4-member, 2-analysis spaces (this shape: 0.5 s at 200k, 0.05 s at
#: 280k). Every ``search`` block holds one search of this shape at this
#: atom count, so each window has the same share of that regime.
CLIFF_SHAPE = (4, 2, 5)
CLIFF_NATOMS = 200_000

#: Largest canonical space a ``search`` request may have.
MAX_SEARCH_CANDIDATES = 700_000

#: Scalar 4-member, 1-analysis searches of about 0.13 s, given a second
#: slot in every ``search`` block. With one slot each, the latency p90
#: fell on the edge between them and 4x1x5 (about 0.1 s) and read 98 or
#: 148 ms from run to run; with two it falls inside their spread.
P90_SEARCH_SHAPES = ((4, 1, 6), (4, 1, 8))


@dataclass(frozen=True)
class Item:
    """One submission of a sequence.

    ``label`` is the kind the latency is reported under; ``source`` is
    the sequence index of the earlier submission this one repeats (it
    has finished by then, so a repeat is always a result-cache hit).
    """

    request: PlacementRequest
    label: str
    source: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: Tuple[Item, ...]
    items: Tuple[Item, ...]


def _spec(members: int, analyses: int, natoms: int,
          n_steps: int) -> EnsembleSpec:
    return EnsembleSpec(
        "bench",
        tuple(
            default_member(
                f"em{i + 1}",
                num_analyses=analyses,
                n_steps=n_steps,
                natoms=natoms,
            )
            for i in range(members)
        ),
    )


def canonical_count(request: PlacementRequest) -> int:
    """Size of a request's canonical search space."""
    return count_canonical_assignments(
        component_core_demands(request.spec),
        request.num_nodes,
        request.cores_per_node,
    )


def _search_shapes() -> List[Tuple[int, int, int]]:
    shapes = []
    for members in (2, 3, 4):
        for analyses in (1, 2):
            for nodes in range(4, 9):
                spec = _spec(members, analyses, 250_000, 8)
                count = count_canonical_assignments(
                    component_core_demands(spec), nodes, CORES_PER_NODE
                )
                if count <= MAX_SEARCH_CANDIDATES:
                    shapes.append((members, analyses, nodes))
    return shapes


# (members, analyses, nodes): robust spaces stay <= ~1.6k candidates.
# The 4-member shapes are several times slower than the rest (4x1x4
# about 0.16 s, 4x1x6 about 0.4 s, the others under 0.06 s). 4x1x6 is
# 1 of the block's 17 slots and stays above the latency p90; 4x1x4
# fills 2, so the p90 falls inside their spread, not at the edge of
# the fast shapes below a gap.
ROBUST_SHAPES = (
    (2, 1, 4), (2, 1, 6), (2, 2, 4), (2, 2, 5), (2, 2, 6),
    (3, 1, 4), (3, 1, 5), (3, 1, 6), (4, 1, 4), (4, 1, 4), (4, 1, 6),
)
# (members, analyses, nodes, candidates) for surrogate rank requests
RANK_SHAPES = ((2, 1, 4, 4), (2, 2, 4, 6), (3, 1, 4, 8), (3, 2, 4, 8),
               (4, 1, 6, 12), (4, 1, 6, 16))
# (members, nodes, candidates) for DES rank requests
RANK_DES_SHAPES = ((2, 2, 3), (2, 3, 3), (2, 4, 4))
# (members, drift kind) for reschedule requests: the slowest jobs of the
# workload, 2 of the block's 8 slots and of one size, so the latency p90
# falls inside their spread rather than at the edge of a larger shape
RESCHEDULE_SHAPES = ((2, "step"), (2, "ramp"))
# (cluster nodes, stream length) for coschedule requests
COSCHEDULE_SHAPES = ((4, 2), (5, 3), (6, 4))


def _candidates(spec: EnsembleSpec, nodes: int, count: int) -> dict:
    pool = []
    for placement in enumerate_placements(spec, nodes, CORES_PER_NODE):
        pool.append(placement)
        if len(pool) == count:
            break
    return {f"c{i}": p for i, p in enumerate(pool)}


def _natoms(rng: random.Random, warmup: bool) -> int:
    return WARMUP_NATOMS if warmup else rng.choice(NATOMS)


def _search(rng, shape, warmup=False, natoms=None) -> Item:
    members, analyses, nodes = shape
    spec = _spec(members, analyses, natoms or _natoms(rng, warmup),
                 rng.choice((6, 8, 10)))
    return Item(
        PlacementRequest(kind="search", spec=spec, num_nodes=nodes,
                         base_seed=rng.randrange(1 << 30)),
        "search",
    )


def _cliff_search(rng, shape, warmup=False) -> Item:
    return _search(rng, shape, warmup, natoms=CLIFF_NATOMS)


def _robust_search(rng, shape, warmup=False) -> Item:
    members, analyses, nodes = shape
    spec = _spec(members, analyses, _natoms(rng, warmup), 8)
    return Item(
        PlacementRequest(
            kind="search", spec=spec, num_nodes=nodes,
            robust_rate=rng.choice((0.02, 0.05, 0.1)),
            policy=rng.choice(("retry", "restart", "degrade")),
            base_seed=rng.randrange(1 << 30),
        ),
        "robust_search",
    )


def _rank(rng, shape, warmup=False) -> Item:
    members, analyses, nodes, count = shape
    spec = _spec(members, analyses, _natoms(rng, warmup), 8)
    return Item(
        PlacementRequest(
            kind="rank", spec=spec, num_nodes=nodes,
            candidates=_candidates(spec, nodes, count),
            robust_rate=rng.choice((0.02, 0.05, 0.1)),
            base_seed=rng.randrange(1 << 30),
        ),
        "rank",
    )


def _rank_des(rng, shape, warmup=False) -> Item:
    members, nodes, count = shape
    spec = _spec(members, 1, _natoms(rng, warmup), 8)
    return Item(
        PlacementRequest(
            kind="rank", spec=spec, num_nodes=nodes,
            candidates=_candidates(spec, nodes, count),
            robust_rate=rng.choice((0.02, 0.05, 0.1)),
            policy=rng.choice(("retry", "restart", "degrade")),
            rank_method="des", trials=rng.randint(4, 8),
            base_seed=rng.randrange(1 << 30),
        ),
        "rank_des",
    )


def _reschedule(rng, shape, warmup=False) -> Item:
    members, kind = shape
    spec = _spec(members, 1, _natoms(rng, warmup),
                 rng.randint(16, 24))
    placement = pack_members_per_node(spec)
    options = RescheduleOptions(
        drift_node=rng.randrange(placement.num_nodes),
        drift_kind=kind,
        drift_magnitude=(rng.uniform(1.8, 3.0) if kind == "step"
                         else rng.uniform(0.05, 0.2)),
        drift_start=rng.randint(2, 6),
        seed=rng.randrange(1 << 30),
    )
    return Item(
        PlacementRequest(kind="reschedule", spec=spec,
                         num_nodes=placement.num_nodes,
                         placement=placement, reschedule=options),
        "reschedule",
    )


def _coschedule(rng, shape, warmup=False) -> Item:
    nodes, length = shape
    # the warm-up stream uses a spacing outside the timed range
    spacing = 10.0 if warmup else rng.uniform(20.0, 40.0)
    stream = canonical_mixed_deadline_stream(
        num_requests=length, arrival_spacing=spacing
    )
    return Item(
        PlacementRequest(
            kind="coschedule", spec=stream[0].spec, num_nodes=nodes,
            coschedule=CoscheduleOptions(requests=stream),
        ),
        "coschedule",
    )


Maker = Callable[..., Item]


def _blocks(rng: random.Random, slots: Sequence[Tuple[Maker, tuple]],
            length: int) -> List[Item]:
    items: List[Item] = []
    while len(items) < length:
        block = list(slots)
        rng.shuffle(block)
        items.extend(make(rng, shape) for make, shape in block)
    return items[:length]


def _with_repeats(rng: random.Random, fresh: List[Item]) -> List[Item]:
    """Every fourth submission repeats an earlier distinct request."""
    items: List[Item] = []
    originals: List[int] = []
    for item in fresh:
        if len(items) % 4 == 3 and originals:
            source = rng.choice(originals)
            items.append(Item(items[source].request, "search_cached",
                              source=source))
        originals.append(len(items))
        items.append(item)
    return items


WHY = {
    "search": "uncached searches on both sides of the kernel threshold, "
              "one in 31 poorly pruned, plus one repeat in four, so "
              "enumeration, the kernel and the result cache do the work",
    "robust-search": "robust searches and surrogate ranks on small "
                     "spaces, so the closed-form fault surrogate and the "
                     "scalar scorer do the work and the kernel is idle",
    "des-jobs": "DES ranks, reschedules and coschedules with no repeats, "
                "so the event loop, batched replay and node contention "
                "do the work and the result cache only misses",
}


def build(name: str, seed: int, length: int) -> Workload:
    """The warm-up list and a timed sequence of ``length`` submissions."""
    rng = random.Random(seed * 1_000_003 + zlib.crc32(name.encode()))
    warm = random.Random(0)
    if name == "search":
        slots = [(_search, s) for s in _search_shapes()]
        slots += [(_search, s) for s in P90_SEARCH_SHAPES]
        slots.append((_cliff_search, CLIFF_SHAPE))
        fresh = _blocks(rng, slots, length * 3 // 4 + 1)
        items = _with_repeats(rng, fresh)[:length]
        first = _search(warm, (2, 1, 4), warmup=True)
        warmup = (first, Item(first.request, "search_cached", source=0))
    elif name == "robust-search":
        slots = [(_robust_search, s) for s in ROBUST_SHAPES]
        slots += [(_rank, s) for s in RANK_SHAPES]
        items = _blocks(rng, slots, length)
        warmup = (_robust_search(warm, (2, 1, 4), warmup=True),
                  _rank(warm, RANK_SHAPES[0], warmup=True))
    elif name == "des-jobs":
        slots = [(_rank_des, s) for s in RANK_DES_SHAPES]
        slots += [(_reschedule, s) for s in RESCHEDULE_SHAPES]
        slots += [(_coschedule, s) for s in COSCHEDULE_SHAPES]
        items = _blocks(rng, slots, length)
        warmup = (_rank_des(warm, RANK_DES_SHAPES[0], warmup=True),
                  _reschedule(warm, RESCHEDULE_SHAPES[0], warmup=True),
                  _coschedule(warm, COSCHEDULE_SHAPES[0], warmup=True))
    else:
        raise ValueError(f"unknown workload {name!r}; valid: {list(WHY)}")
    return Workload(name, WHY[name], warmup, tuple(items))


def input_report(items: Sequence[Item]) -> Dict[str, object]:
    """Properties of the submitted requests later claims depend on."""
    kinds = Counter(item.label for item in items)
    searches = [item.request for item in items
                if item.request.kind == "search" and item.source is None]
    counts = sorted(canonical_count(request) for request in searches)
    report: Dict[str, object] = {
        "submissions": len(items),
        "kind_mix": {k: kinds[k] / len(items) for k in sorted(kinds)},
        "repeat_share": sum(i.source is not None for i in items)
        / len(items),
    }
    if counts:
        decades = Counter(len(str(c)) for c in counts)
        report["canonical_candidates"] = {
            "searches": len(counts),
            "min": counts[0],
            "p50": counts[len(counts) // 2],
            "max": counts[-1],
            "share_below_min_vectorized": sum(
                c < MIN_VECTORIZED_CANDIDATES for c in counts
            ) / len(counts),
            "min_vectorized_candidates": MIN_VECTORIZED_CANDIDATES,
            "share_at_cliff_natoms": sum(
                r.spec.members[0].simulation.natoms == CLIFF_NATOMS
                for r in searches
            ) / len(searches),
            "by_decade": {
                f"1e{d - 1}..1e{d}": decades[d] for d in sorted(decades)
            },
        }
    return report
