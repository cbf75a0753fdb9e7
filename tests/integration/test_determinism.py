"""Seed determinism end to end: same seed, byte-identical behaviour.

Determinism is what the golden store, the fault tier of the oracle,
and every "regressions reproduce" debugging session all lean on, so it
gets its own integration suite: the DES trace, the fault schedule, the
distilled results, and the cached search must all replay exactly.
"""

import json

from repro.configs.base import build_spec
from repro.configs.table2 import TABLE2_CONFIGS
from repro.faults.models import FaultKind, RandomFailureModel
from repro.faults.recovery import RetryBackoffPolicy
from repro.monitoring.traceio import tracer_to_dict
from repro.runtime.runner import run_ensemble
from repro.scheduler.context import PlanningContext
from repro.search.cache import StageCache
from repro.search.engine import find_best_placement
from repro.verify.goldens import canonical_json


def _c15(n_steps=6):
    config = TABLE2_CONFIGS["C1.5"]
    return build_spec(config, n_steps=n_steps), config.placement()


def _trace_bytes(result):
    return json.dumps(tracer_to_dict(result.tracer), sort_keys=True)


class TestTraceDeterminism:
    def test_noisy_runs_replay_byte_identically(self):
        spec, placement = _c15()
        a = run_ensemble(spec, placement, seed=13, timing_noise=0.05)
        b = run_ensemble(spec, placement, seed=13, timing_noise=0.05)
        assert _trace_bytes(a) == _trace_bytes(b)
        assert a.ensemble_makespan == b.ensemble_makespan
        assert a.member_makespans == b.member_makespans

    def test_different_seeds_diverge(self):
        spec, placement = _c15()
        a = run_ensemble(spec, placement, seed=13, timing_noise=0.05)
        b = run_ensemble(spec, placement, seed=14, timing_noise=0.05)
        assert _trace_bytes(a) != _trace_bytes(b)

    def test_faulted_runs_replay_byte_identically(self):
        spec, placement = _c15()
        kwargs = dict(
            seed=5,
            timing_noise=0.02,
            failure_model=RandomFailureModel(
                rate=0.2,
                kinds=(FaultKind.CRASH, FaultKind.STRAGGLER),
                seed=9,
            ),
            recovery=RetryBackoffPolicy(),
        )
        a = run_ensemble(spec, placement, **kwargs)
        b = run_ensemble(spec, placement, **kwargs)
        assert _trace_bytes(a) == _trace_bytes(b)
        assert canonical_json(
            {"log": [repr(r) for r in a.fault_log.records]}
        ) == canonical_json({"log": [repr(r) for r in b.fault_log.records]})
        assert len(a.fault_log) == len(b.fault_log)


class TestScheduleDeterminism:
    def test_fault_schedule_replays_exactly(self):
        spec, _ = _c15()
        events = [
            RandomFailureModel(rate=0.3, seed=21).build_schedule(spec).events
            for _ in range(2)
        ]
        assert events[0] == events[1]

    def test_schedule_order_is_canonical(self):
        spec, _ = _c15()
        schedule = RandomFailureModel(rate=0.3, seed=21).build_schedule(spec)
        keys = [
            (e.component, e.step, e.stage, e.kind.value)
            for e in schedule.events
        ]
        assert keys == sorted(keys)


class TestSearchDeterminism:
    def test_cached_search_replays_exactly(self):
        spec, _ = _c15(n_steps=4)
        cache = StageCache(None, None)
        context = PlanningContext(cache=cache)
        first, n_first = find_best_placement(spec, 4, 32, context=context)
        # a warm cache must not change the winner or any score float
        second, n_second = find_best_placement(spec, 4, 32, context=context)
        cold, n_cold = find_best_placement(spec, 4, 32)
        assert n_first == n_second == n_cold
        for other in (second, cold):
            assert other.placement == first.placement
            assert other.objective == first.objective
            assert other.ensemble_makespan == first.ensemble_makespan
            assert other.member_indicators == first.member_indicators

    def test_verified_run_replays_like_unverified(self):
        spec, placement = _c15()
        plain = run_ensemble(spec, placement, seed=3, timing_noise=0.04)
        verified = run_ensemble(
            spec, placement, seed=3, timing_noise=0.04, verify=True
        )
        assert _trace_bytes(plain) == _trace_bytes(verified)
