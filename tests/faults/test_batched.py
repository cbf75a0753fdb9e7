"""Tests for the batched delta-replay replication engine.

The contract under test (see ``docs/RESILIENCE.md``): for exactly
replayable recovery policies, one fault-free DES capture plus
closed-form replay of each fault schedule produces *bit-identical*
robust scores to re-simulating every replica — so every parity
assertion here is ``==``, not ``approx``. The adaptive policy drains
its budget in global event order, which replay can only approximate,
hence its banded tier.
"""

import dataclasses

import pytest
from hypothesis import given

from repro.configs.generator import enumerate_placements
from repro.faults.batched import (
    batched_score_placement,
    capture_timeline,
    engine_counters,
    rank_placements_batched,
    replay_schedules,
    reset_engine_counters,
    score_from_timeline,
)
from repro.faults.batched import replay_tier
from repro.faults.models import (
    FaultKind,
    MarkovModulatedArrivals,
    CorrelatedFailureModel,
    NodeFailureModel,
    RandomFailureModel,
)
from repro.faults.recovery import (
    AdaptiveRecoveryPolicy,
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RetryBackoffPolicy,
)
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
    robust_score_placement,
)
from repro.util.errors import ValidationError
from tests.strategies import common_settings, des_ensembles, des_placements


@pytest.fixture(scope="module")
def spec():
    return EnsembleSpec(
        "batched-test",
        (
            default_member("em1", num_analyses=2, n_steps=4),
            default_member("em2", num_analyses=1, n_steps=4),
        ),
    )


@pytest.fixture(scope="module")
def placement(spec):
    return next(iter(enumerate_placements(spec, 2, 32)))


@pytest.fixture(scope="module")
def candidates(spec):
    pool = list(enumerate_placements(spec, 2, 32))
    stride = max(1, len(pool) // 3)
    return {f"c{i}": p for i, p in enumerate(pool[::stride][:3])}


def _assert_scores_equal(serial, batched):
    assert batched.objective == serial.objective
    assert batched.ideal_objective == serial.ideal_objective
    assert batched.mean_inflation == serial.mean_inflation
    assert batched.mean_goodput == serial.mean_goodput
    assert batched.trials == serial.trials


EXACT_POLICIES = [
    pytest.param(RetryBackoffPolicy, id="retry"),
    pytest.param(CheckpointRestartPolicy, id="restart"),
    pytest.param(DropAnalysisPolicy, id="drop"),
]


class TestExactParity:
    @pytest.mark.parametrize("policy_cls", EXACT_POLICIES)
    def test_bit_identical_to_serial_replication(
        self, spec, placement, policy_cls
    ):
        common = dict(trials=4, base_seed=7)
        serial = robust_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            policy_cls(),
            **common,
        )
        batched = batched_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            policy_cls(),
            **common,
        )
        _assert_scores_equal(serial, batched)

    def test_all_fault_kinds_replay_exactly(self, spec, placement):
        factory = lambda seed: RandomFailureModel(  # noqa: E731
            rate=0.3, kinds=tuple(FaultKind), seed=seed
        )
        common = dict(trials=4, base_seed=3)
        serial = robust_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), **common
        )
        batched = batched_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), **common
        )
        _assert_scores_equal(serial, batched)

    def test_correlated_bursts_replay_exactly(self, spec, placement):
        factory = lambda seed: CorrelatedFailureModel(  # noqa: E731
            process=MarkovModulatedArrivals(0.02, 0.4, 0.3, 0.5),
            seed=seed,
        )
        serial = robust_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        batched = batched_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        _assert_scores_equal(serial, batched)

    def test_node_level_crashes_replay_exactly(self, spec, placement):
        factory = lambda seed: NodeFailureModel(  # noqa: E731
            placement, rate=0.15, seed=seed
        )
        serial = robust_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        batched = batched_score_placement(
            spec, placement, factory, RetryBackoffPolicy(), trials=3
        )
        _assert_scores_equal(serial, batched)

    def test_trials_validated(self, spec, placement):
        with pytest.raises(ValidationError):
            batched_score_placement(
                spec,
                placement,
                crash_straggler_factory(0.1),
                RetryBackoffPolicy(),
                trials=0,
            )


class TestHypothesisParity:
    @given(spec=des_ensembles(), placement=des_placements())
    @common_settings
    def test_random_kernels_replay_exactly(self, spec, placement):
        """Batched == serial over randomized kernels and placements.

        The strategies vary atom counts, strides, serial fractions,
        and node assignments enough to exercise both branches of the
        serial-coupling max; retry recovery must stay bit-exact over
        the whole envelope.
        """
        serial = robust_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=2,
            base_seed=11,
        )
        batched = batched_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=2,
            base_seed=11,
        )
        _assert_scores_equal(serial, batched)


class TestAdaptiveBanded:
    def test_adaptive_policy_is_banded_tier(self):
        assert replay_tier(AdaptiveRecoveryPolicy()) == "banded"
        for policy_cls in (
            RetryBackoffPolicy,
            CheckpointRestartPolicy,
            DropAnalysisPolicy,
        ):
            assert replay_tier(policy_cls()) == "exact"

    def test_adaptive_scores_agree_within_band(self, spec, placement):
        """Replay approximates the adaptive budget drain within 5%."""
        common = dict(trials=4, base_seed=7)
        serial = robust_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            AdaptiveRecoveryPolicy(),
            **common,
        )
        batched = batched_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.25),
            AdaptiveRecoveryPolicy(),
            **common,
        )
        assert batched.ideal_objective == serial.ideal_objective
        assert batched.objective == pytest.approx(
            serial.objective, rel=0.05
        )
        assert batched.mean_inflation == pytest.approx(
            serial.mean_inflation, rel=0.05
        )


class TestRankEngineParity:
    def test_batched_ranking_matches_serial(self, spec, candidates):
        common = dict(trials=3, base_seed=0, method="des")
        serial = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            engine="serial",
            **common,
        )
        batched = rank_placements_robust(
            spec,
            candidates,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            engine="batched",
            **common,
        )
        assert [s.name for s in serial] == [b.name for b in batched]
        for s, b in zip(serial, batched):
            _assert_scores_equal(s, b)

    def test_unknown_engine_rejected(self, spec, candidates):
        with pytest.raises(ValidationError, match="engine"):
            rank_placements_robust(
                spec,
                candidates,
                crash_straggler_factory(0.2),
                RetryBackoffPolicy(),
                method="des",
                engine="warp",
            )


class TestCommonRandomNumbers:
    def test_crn_pairs_candidate_comparisons(self, spec):
        """CRN reduces the variance of pairwise score differences.

        With common random numbers replica ``t`` draws the same fault
        schedule for every candidate, so the difference between two
        candidates' objectives varies only with the placements'
        response to the *same* faults. Decorrelated seeding adds the
        schedule-to-schedule noise of two independent draws; over many
        base seeds the paired differences must be strictly less
        dispersed.
        """
        import statistics

        pool = list(enumerate_placements(spec, 2, 32))
        names = ("packed", "spread")
        pair = {"packed": pool[0], "spread": pool[-1]}

        def diffs(crn):
            out = []
            for base_seed in range(12):
                scores = {
                    s.name: s.objective
                    for s in rank_placements_batched(
                        spec,
                        pair,
                        crash_straggler_factory(0.3),
                        RetryBackoffPolicy(),
                        trials=2,
                        base_seed=base_seed * 101,
                        crn=crn,
                    )
                }
                out.append(scores[names[0]] - scores[names[1]])
            return out

        paired = statistics.pvariance(diffs(crn=True))
        independent = statistics.pvariance(diffs(crn=False))
        assert paired < independent

    def test_crn_false_decorrelates_candidates(self, spec, candidates):
        """Without CRN each candidate samples its own schedules, so a
        candidate's score changes when scored under its own label vs
        the shared stream."""
        ranked = rank_placements_batched(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=3,
            base_seed=0,
            crn=False,
        )
        shared = rank_placements_batched(
            spec,
            candidates,
            crash_straggler_factory(0.3),
            RetryBackoffPolicy(),
            trials=3,
            base_seed=0,
            crn=True,
        )
        by_name = {s.name: s.objective for s in shared}
        assert any(s.objective != by_name[s.name] for s in ranked)


class TestEngineCounters:
    def test_score_tallies_baseline_and_replicas(self, spec, placement):
        reset_engine_counters()
        batched_score_placement(
            spec,
            placement,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            trials=5,
        )
        counters = engine_counters()
        assert counters["baseline_sims"] == 1
        assert counters["replicas_replayed"] == 5

    def test_ranking_tallies_per_candidate(self, spec, candidates):
        reset_engine_counters()
        rank_placements_batched(
            spec,
            candidates,
            crash_straggler_factory(0.2),
            RetryBackoffPolicy(),
            trials=2,
        )
        counters = engine_counters()
        assert counters["baseline_sims"] == len(candidates)
        assert counters["replicas_replayed"] == len(candidates) * 2

    def test_reset_clears_all_counters(self):
        reset_engine_counters()
        counters = engine_counters()
        assert counters["baseline_sims"] == 0
        assert counters["replicas_replayed"] == 0


class TestMutantOracle:
    def test_oracle_passes_on_the_real_engine(self, spec, placement):
        from repro.verify.oracles import run_differential_oracle

        report = run_differential_oracle(
            spec,
            placement,
            fault_factory=lambda s: RandomFailureModel(rate=0.2, seed=s),
            recovery=RetryBackoffPolicy(),
            scenario="batched-tier",
        )
        assert report.passed

    def test_oracle_detects_one_stage_perturbation(self, spec, placement):
        """A 1% perturbation of a single captured stage duration must
        trip the exact serial-vs-batched tier — proof the oracle has
        teeth against replay bugs."""
        from repro.verify.oracles import run_differential_oracle

        def mutant_score(spec, placement, factory, policy, **kwargs):
            kwargs.pop("cluster", None)
            kwargs.pop("dtl", None)
            timeline = capture_timeline(spec, placement)
            member = timeline.members[0]
            warped = member.sim_compute.copy()
            warped[2] *= 1.01
            mutated = dataclasses.replace(
                timeline,
                members=(
                    dataclasses.replace(member, sim_compute=warped),
                )
                + timeline.members[1:],
            )
            return score_from_timeline(
                spec, mutated, placement, factory, policy, **kwargs
            )

        report = run_differential_oracle(
            spec,
            placement,
            fault_factory=lambda s: RandomFailureModel(rate=0.2, seed=s),
            recovery=RetryBackoffPolicy(),
            batched_score_fn=mutant_score,
            scenario="batched-mutant",
        )
        failed = {
            (f.scope, f.metric) for f in report.failures
        }
        assert not report.passed
        assert any(paths == "serial-vs-batched" for paths in
                   (f.paths for f in report.failures)), failed


class TestReplayInternals:
    def test_empty_schedule_reproduces_the_baseline(self, spec, placement):
        """Replaying zero faults must return the fault-free metrics:
        inflation exactly 1 and the ideal objective."""
        from repro.faults.models import FaultSchedule

        timeline = capture_timeline(spec, placement)
        outcome = replay_schedules(
            timeline, [FaultSchedule([])], RetryBackoffPolicy()
        )
        assert outcome.inflations == (1.0,)
        assert outcome.makespans == (timeline.baseline_makespan,)
        assert outcome.objectives[0] == pytest.approx(
            timeline.ideal_objective
        )
