"""Property tests for fault events and schedules via tests.strategies.

The shared ``fault_events`` strategy generates only *valid* events (it
encodes the per-kind magnitude envelopes), so these properties exercise
the schedule container and the injector-facing lookups over the whole
validity space rather than a few hand-picked cases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.models import (
    CHUNK_KINDS,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.util.errors import ValidationError
from tests.strategies import fault_events, fault_schedules

COMPONENTS = ("em1.sim", "em1.ana1")


class TestEventEnvelope:
    @given(fault_events())
    @settings(max_examples=200)
    def test_generated_events_are_valid(self, event):
        """Strategy output always satisfies FaultEvent.__post_init__."""
        if event.kind is FaultKind.CRASH:
            assert 0.0 < event.magnitude <= 1.0
        elif event.kind is FaultKind.STRAGGLER:
            assert event.magnitude > 1.0
        else:
            assert event.magnitude >= 0.0
        assert event.repeats >= 1
        assert event.stage in ("S", "W", "R", "A")

    @given(fault_events())
    @settings(max_examples=100)
    def test_events_round_trip_through_reconstruction(self, event):
        clone = FaultEvent(
            member=event.member,
            component=event.component,
            step=event.step,
            kind=event.kind,
            stage=event.stage,
            magnitude=event.magnitude,
            repeats=event.repeats,
        )
        assert clone == event

    def test_invalid_magnitudes_rejected(self):
        with pytest.raises(ValidationError):
            FaultEvent("em1", "em1.sim", 0, FaultKind.CRASH, "S", 0.0)
        with pytest.raises(ValidationError):
            FaultEvent("em1", "em1.sim", 0, FaultKind.STRAGGLER, "S", 1.0)
        with pytest.raises(ValidationError):
            FaultEvent("em1", "em1.sim", 0, FaultKind.STALL, "S", -0.5)


class TestScheduleProperties:
    @given(fault_schedules())
    @settings(max_examples=100)
    def test_order_is_canonical(self, schedule):
        keys = [
            (e.component, e.step, e.stage, e.kind.value)
            for e in schedule.events
        ]
        assert keys == sorted(keys)
        # rebuilding from any input order yields the same multiset in
        # the same canonical key order (ties keep input order, so only
        # the keys are asserted, not full event identity)
        rebuilt = FaultSchedule(reversed(schedule.events))
        assert sorted(map(repr, rebuilt.events)) == sorted(
            map(repr, schedule.events)
        )
        assert [
            (e.component, e.step, e.stage, e.kind.value)
            for e in rebuilt.events
        ] == keys

    @given(fault_schedules())
    @settings(max_examples=100)
    def test_every_event_reachable_through_lookup(self, schedule):
        """events == union of site lookups: nothing is orphaned."""
        recovered = []
        for event in schedule.events:
            if event.kind in CHUNK_KINDS:
                hits = schedule.chunk_events_for(event.component, event.step)
            else:
                hits = schedule.events_for(
                    event.component, event.step, event.stage
                )
            assert event in hits
            recovered.append(event)
        assert len(recovered) == len(schedule)

    @given(fault_schedules())
    @settings(max_examples=100)
    def test_lookup_misses_are_empty(self, schedule):
        assert schedule.events_for("nope.sim", 0, "S") == ()
        assert schedule.chunk_events_for("nope.sim", 0) == ()

    @given(fault_schedules())
    @settings(max_examples=100)
    def test_len_and_emptiness_agree(self, schedule):
        assert len(schedule) == len(schedule.events)
        assert schedule.is_empty == (len(schedule) == 0)

    @given(
        fault_schedules(),
        st.sampled_from(COMPONENTS),
        st.integers(min_value=0, max_value=7),
        st.sampled_from(["S", "W", "R", "A"]),
    )
    @settings(max_examples=100)
    def test_site_lookup_is_exact(self, schedule, component, step, stage):
        hits = schedule.events_for(component, step, stage)
        for event in hits:
            assert event.component == component
            assert event.step == step
            assert event.stage == stage
            assert event.kind not in CHUNK_KINDS


class TestRobustnessPenaltyIsNonNegative:
    """``RobustnessTerm.penalty >= 0`` — utility never exceeds F.

    The batch search's branch-and-bound prunes robust searches with
    the failure-free F bound; that bound is admissible only because
    ``utility = F - penalty <= F`` for every candidate.
    """

    @given(
        members=st.integers(min_value=1, max_value=3),
        analyses=st.integers(min_value=1, max_value=2),
        n_steps=st.integers(min_value=1, max_value=12),
        natoms=st.sampled_from([60_000, 180_000, 300_000]),
        pick=st.integers(min_value=0, max_value=10_000),
        node_level=st.booleans(),
        rate=st.floats(min_value=0.0, max_value=1.0),
        kinds=st.lists(
            st.sampled_from(list(FaultKind)), min_size=1, max_size=5,
            unique=True,
        ),
        policy=st.sampled_from(["retry", "restart", "degrade", "adaptive"]),
        weight=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_penalty_is_non_negative(
        self, members, analyses, n_steps, natoms, pick, node_level, rate,
        kinds, policy, weight,
    ):
        from repro.configs.generator import enumerate_placements
        from repro.faults.analytic import RobustnessTerm, node_crash_builder
        from repro.faults.models import RandomFailureModel
        from repro.faults.recovery import make_policy
        from repro.runtime.spec import EnsembleSpec, default_member

        spec = EnsembleSpec(
            "penalty",
            tuple(
                default_member(
                    f"em{i}", num_analyses=analyses, n_steps=n_steps,
                    natoms=natoms,
                )
                for i in range(members)
            ),
        )
        placements = list(enumerate_placements(spec, members + 1, 32))
        placement = placements[pick % len(placements)]
        if node_level:
            term = RobustnessTerm(
                policy=make_policy(policy),
                model_builder=node_crash_builder(rate),
                weight=weight,
            )
        else:
            term = RobustnessTerm(
                policy=make_policy(policy),
                model=RandomFailureModel(rate=rate, kinds=tuple(kinds)),
                weight=weight,
            )
        assert term.penalty(spec, placement) >= 0.0


class TestArrayCrashResponse:
    """Array step times price each entry exactly as a scalar call does."""

    @given(
        policy=st.sampled_from(["retry", "restart", "degrade", "adaptive"]),
        step_times=st.lists(
            st.floats(min_value=0.0, max_value=50.0), min_size=1,
            max_size=8,
        ),
        n_steps=st.integers(min_value=1, max_value=40),
        is_analysis=st.booleans(),
        expected_crashes=st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_elementwise_equals_scalar(
        self, policy, step_times, n_steps, is_analysis, expected_crashes
    ):
        import numpy as np

        from repro.faults.analytic import expected_crash_response
        from repro.faults.recovery import make_policy

        priced = make_policy(policy)
        batch = expected_crash_response(
            priced, np.asarray(step_times), n_steps, is_analysis,
            expected_crashes,
        )
        delays = np.broadcast_to(batch.delay, (len(step_times),))
        drops = np.broadcast_to(batch.drop_fraction, (len(step_times),))
        for i, step_time in enumerate(step_times):
            one = expected_crash_response(
                priced, step_time, n_steps, is_analysis, expected_crashes
            )
            assert type(one.delay) is float
            assert delays[i] == one.delay
            assert drops[i] == one.drop_fraction
