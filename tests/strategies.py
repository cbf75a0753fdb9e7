"""Shared hypothesis strategies for the whole test suite.

Every suite used to grow its own generators for the same domain
objects (stage timings in ``tests/core``, random ensembles in
``tests/scheduler``, grid specs in ``tests/search``, ...). They live
here now, in one library that encodes the *validity envelope* of each
domain type once:

- :data:`durations` / :data:`node_sets` — scalar building blocks;
- :func:`member_stages` / :func:`placement_sets` — the closed-form
  model's inputs (Eqs. 1-3, 5-9);
- :func:`ensembles` — small random :class:`EnsembleSpec` instances
  with varied core demands, for scheduling-policy properties;
- :func:`des_ensembles` / :func:`des_placements` — single-member
  specs with randomized kernel parameters plus feasible two-node
  placements, for executor cross-validation;
- :func:`search_grids` — ``(spec, num_nodes, cores_per_node)`` tuples
  spanning the grid the paper's evaluation section enumerates;
- :func:`fault_events` / :func:`fault_schedules` — faults honouring
  the per-kind magnitude envelopes ``FaultEvent.__post_init__``
  enforces (crash fraction in (0, 1], straggler factor > 1, ...);
- :func:`ensemble_stream` / :func:`cluster_partition` — arrival-time
  ordered co-scheduling request streams and valid node partitions,
  for the cluster-level admission/allocation properties.

``common_settings`` is the profile property tests that execute the
DES (or other slow paths) should apply; pure-arithmetic properties can
afford more examples and usually pass an explicit ``max_examples``.
"""

from hypothesis import HealthCheck, settings, strategies as st

from repro.components.analysis import EigenAnalysisModel
from repro.components.simulation import MDSimulationModel
from repro.core.indicators import PlacementSets
from repro.core.stages import AnalysisStages, MemberStages, SimulationStages
from repro.coschedule.requests import EnsembleRequest
from repro.faults.models import FAULT_STAGES, FaultEvent, FaultKind, FaultSchedule
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec, default_member

#: Settings profile for properties that run the DES or another slow
#: path: fewer examples, no deadline (wall time varies with load).
common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Positive stage durations in seconds, away from denormal territory.
durations = st.floats(min_value=0.01, max_value=1000.0, allow_nan=False)

#: Non-empty node-index sets for :class:`PlacementSets`.
node_sets = st.sets(
    st.integers(min_value=0, max_value=7), min_size=1, max_size=4
).map(frozenset)


@st.composite
def member_stages(draw, max_analyses=4):
    """A :class:`MemberStages` with 1..``max_analyses`` couplings."""
    sim = SimulationStages(draw(durations), draw(durations))
    k = draw(st.integers(min_value=1, max_value=max_analyses))
    analyses = tuple(
        AnalysisStages(draw(durations), draw(durations)) for _ in range(k)
    )
    return MemberStages(sim, analyses)


@st.composite
def placement_sets(draw, k=None):
    """A :class:`PlacementSets` with ``k`` (or 1..4 random) couplings."""
    sim_nodes = draw(node_sets)
    count = k if k is not None else draw(st.integers(min_value=1, max_value=4))
    analyses = tuple(draw(node_sets) for _ in range(count))
    return PlacementSets(sim_nodes, analyses)


@st.composite
def ensembles(draw):
    """Random small ensembles with varied core demands."""
    n_members = draw(st.integers(min_value=1, max_value=3))
    members = []
    for i in range(n_members):
        sim_cores = draw(st.sampled_from([8, 16]))
        k = draw(st.integers(min_value=1, max_value=2))
        ana_cores = draw(st.sampled_from([4, 8]))
        sim = MDSimulationModel(f"em{i}.sim", cores=sim_cores)
        analyses = tuple(
            EigenAnalysisModel(f"em{i}.ana{j}", cores=ana_cores)
            for j in range(k)
        )
        members.append(MemberSpec(f"em{i}", sim, analyses, n_steps=2))
    return EnsembleSpec("prop", tuple(members))


@st.composite
def des_ensembles(draw):
    """Single-member specs with randomized kernel parameters.

    Paired with :func:`des_placements` for executor-vs-Eqs. 1-2
    cross-validation: the kernels vary enough to exercise both branches
    of Eq. 1's max while every draw stays feasible on two 32-core
    nodes.
    """
    sim = MDSimulationModel(
        "p.sim",
        cores=draw(st.sampled_from([8, 16])),
        natoms=draw(st.integers(min_value=50_000, max_value=500_000)),
        stride=draw(st.integers(min_value=100, max_value=1600)),
        seconds_per_atom_step=draw(st.floats(min_value=1e-7, max_value=2e-6)),
        serial_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
    )
    ana = EigenAnalysisModel(
        "p.ana",
        cores=draw(st.sampled_from([4, 8, 16])),
        single_core_time=draw(st.floats(min_value=5.0, max_value=200.0)),
        serial_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
    )
    n_steps = draw(st.integers(min_value=2, max_value=6))
    return EnsembleSpec("prop", (MemberSpec("p", sim, (ana,), n_steps=n_steps),))


@st.composite
def des_placements(draw):
    """Feasible two-node placements for :func:`des_ensembles` draws."""
    sim_node = draw(st.integers(min_value=0, max_value=1))
    ana_node = draw(st.integers(min_value=0, max_value=1))
    return EnsemblePlacement(2, (MemberPlacement(sim_node, (ana_node,)),))


@st.composite
def search_grids(draw):
    """``(spec, num_nodes, cores_per_node)`` over the evaluation grid.

    Spans the (N, K, M, node) combinations the canonical-enumeration
    contract is property-tested on — small enough that the reference
    product-then-dedup stream stays tractable.
    """
    num_members = draw(st.integers(min_value=1, max_value=3))
    num_analyses = draw(st.integers(min_value=1, max_value=2))
    num_nodes = draw(st.integers(min_value=1, max_value=4))
    cores_per_node = draw(st.sampled_from([24, 32, 48]))
    spec = EnsembleSpec(
        f"grid-{num_members}-{num_analyses}",
        tuple(
            default_member(f"em{i}", num_analyses=num_analyses, n_steps=4)
            for i in range(num_members)
        ),
    )
    return spec, num_nodes, cores_per_node


@st.composite
def ensemble_stream(draw, max_requests=4, total_nodes=4):
    """An arrival-time-ordered co-scheduling request stream.

    Every request is feasible on a ``total_nodes`` x 32-core cluster
    (members demand at most 16+8 cores), names are unique, deadlines
    are either absent or generous-but-finite, and arrival times are
    non-decreasing — the envelope ``validate_stream`` accepts.
    """
    n_requests = draw(st.integers(min_value=1, max_value=max_requests))
    arrivals = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
                min_size=n_requests,
                max_size=n_requests,
            )
        )
    )
    requests = []
    for i in range(n_requests):
        n_members = draw(st.integers(min_value=1, max_value=2))
        spec = EnsembleSpec(
            f"stream{i}",
            tuple(
                default_member(
                    f"stream{i}-m{j}",
                    num_analyses=1,
                    n_steps=draw(st.integers(min_value=2, max_value=8)),
                    sim_cores=16,
                    ana_cores=8,
                )
                for j in range(n_members)
            ),
        )
        requests.append(
            EnsembleRequest(
                name=f"stream{i}",
                spec=spec,
                arrival_time=arrivals[i],
                deadline=draw(
                    st.one_of(
                        st.none(),
                        st.floats(
                            min_value=50_000.0,
                            max_value=500_000.0,
                            allow_nan=False,
                        ),
                    )
                ),
                priority=draw(st.integers(min_value=0, max_value=3)),
                # a 16+8-core member fills most of a 32-core node, so
                # each member needs a node of its own
                max_nodes=draw(
                    st.one_of(
                        st.none(),
                        st.integers(
                            min_value=n_members, max_value=total_nodes
                        ),
                    )
                ),
            )
        )
    return tuple(requests)


@st.composite
def cluster_partition(draw, total_nodes=8, max_blocks=4):
    """A valid node partition: disjoint contiguous blocks summing <= total.

    Returned as ``(total_nodes, [(offset, size), ...])`` — the shape
    :class:`~repro.coschedule.allocator.EnsembleAllocation` records
    and the conservation property checks.
    """
    n_blocks = draw(st.integers(min_value=1, max_value=max_blocks))
    sizes = [
        draw(st.integers(min_value=1, max_value=2)) for _ in range(n_blocks)
    ]
    while sum(sizes) > total_nodes:
        sizes.pop()
    offset = 0
    blocks = []
    for size in sizes:
        blocks.append((offset, size))
        offset += size
    return total_nodes, blocks


_fault_kinds = st.sampled_from(list(FaultKind))


@st.composite
def fault_events(draw, components=("em1.sim", "em1.ana1"), max_step=7):
    """A valid :class:`FaultEvent` honouring the per-kind envelopes."""
    kind = draw(_fault_kinds)
    component = draw(st.sampled_from(list(components)))
    member = component.split(".")[0]
    step = draw(st.integers(min_value=0, max_value=max_step))
    stage = draw(st.sampled_from(FAULT_STAGES))
    if kind is FaultKind.CRASH:
        magnitude = draw(
            st.floats(
                min_value=0.0,
                max_value=1.0,
                exclude_min=True,
                allow_nan=False,
            )
        )
        repeats = draw(st.integers(min_value=1, max_value=3))
    elif kind is FaultKind.STRAGGLER:
        magnitude = draw(
            st.floats(
                min_value=1.0,
                max_value=10.0,
                exclude_min=True,
                allow_nan=False,
            )
        )
        repeats = 1
    else:  # STALL / CHUNK_LOSS / CHUNK_CORRUPT: >= 0 seconds
        magnitude = draw(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
        )
        repeats = 1
    return FaultEvent(
        member=member,
        component=component,
        step=step,
        kind=kind,
        stage=stage,
        magnitude=magnitude,
        repeats=repeats,
    )


@st.composite
def fault_schedules(draw, components=("em1.sim", "em1.ana1"), max_events=6):
    """A :class:`FaultSchedule` of 0..``max_events`` valid events."""
    events = draw(
        st.lists(
            fault_events(components=components), min_size=0, max_size=max_events
        )
    )
    return FaultSchedule(events)
