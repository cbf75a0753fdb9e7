"""PlacementJobQueue semantics: priority, lifecycle, determinism.

Exercised single-threaded — claim/complete/fail/requeue are called
directly, the way a worker would, so every ordering assertion is
deterministic.
"""

from __future__ import annotations

import pytest

import repro.service.jobs as jobs_mod
from repro.runtime.spec import EnsembleSpec, default_member
from repro.service.jobs import JobState, PlacementJobQueue
from repro.service.schemas import PlacementRequest, canonical_digest
from repro.util.errors import ValidationError


def _request(num_nodes: int = 2, n_steps: int = 2) -> PlacementRequest:
    spec = EnsembleSpec(
        "q", (default_member("em1", num_analyses=1, n_steps=n_steps),)
    )
    return PlacementRequest(kind="search", spec=spec, num_nodes=num_nodes)


class TestSubmitAndIds:
    def test_ids_are_deterministic(self):
        """Replaying a submission sequence reproduces the ids."""

        def run():
            queue = PlacementJobQueue()
            return [
                queue.submit(_request(num_nodes=n)).id for n in (2, 3, 2)
            ]

        first, second = run(), run()
        assert first == second
        assert first[0].startswith("job-000000-")
        assert first[1].startswith("job-000001-")

    def test_id_embeds_content_digest(self):
        queue = PlacementJobQueue()
        request = _request()
        job = queue.submit(request)
        digest = canonical_digest(request)
        assert job.digest == digest
        assert job.id == f"job-000000-{digest[:12]}"

    def test_closed_queue_refuses_submissions(self):
        queue = PlacementJobQueue()
        queue.close()
        with pytest.raises(ValidationError, match="closed"):
            queue.submit(_request())


class TestPriorityOrdering:
    def test_higher_priority_claims_first(self):
        queue = PlacementJobQueue()
        low = queue.submit(_request(num_nodes=2), priority=0)
        high = queue.submit(_request(num_nodes=3), priority=5)
        mid = queue.submit(_request(num_nodes=4), priority=3)
        order = [queue.claim_next(timeout=0).id for _ in range(3)]
        assert order == [high.id, mid.id, low.id]

    def test_equal_priority_is_fifo(self):
        queue = PlacementJobQueue()
        jobs = [queue.submit(_request(num_nodes=n)) for n in (2, 3, 4)]
        order = [queue.claim_next(timeout=0).id for _ in range(3)]
        assert order == [j.id for j in jobs]

    def test_update_priority_reorders_pending(self):
        queue = PlacementJobQueue()
        first = queue.submit(_request(num_nodes=2))
        second = queue.submit(_request(num_nodes=3))
        assert queue.update_priority(second.id, 10)
        assert queue.claim_next(timeout=0).id == second.id
        assert queue.claim_next(timeout=0).id == first.id

    def test_priority_decrease_honoured(self):
        """Stale (higher-priority) heap entries must be skipped."""
        queue = PlacementJobQueue()
        demoted = queue.submit(_request(num_nodes=2), priority=9)
        steady = queue.submit(_request(num_nodes=3), priority=5)
        assert queue.update_priority(demoted.id, 1)
        assert queue.claim_next(timeout=0).id == steady.id
        assert queue.claim_next(timeout=0).id == demoted.id

    def test_update_priority_rejects_non_pending(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.claim_next(timeout=0)
        assert not queue.update_priority(job.id, 7)
        assert not queue.update_priority("job-nope", 7)


class TestLifecycle:
    def test_claim_complete(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        claimed = queue.claim_next(timeout=0)
        assert claimed.id == job.id
        assert claimed.state is JobState.RUNNING
        assert claimed.attempts == 1
        queue.complete(job.id, {"score": 1})
        done = queue.poll(job.id)
        assert done.state is JobState.DONE
        assert done.result == {"score": 1}
        assert done.finished_at is not None

    def test_fail_records_error(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.claim_next(timeout=0)
        queue.fail(job.id, "boom")
        assert queue.poll(job.id).state is JobState.FAILED
        assert queue.poll(job.id).error == "boom"

    def test_requeue_returns_to_pending(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.claim_next(timeout=0)
        queue.requeue(job.id)
        assert queue.poll(job.id).state is JobState.PENDING
        reclaimed = queue.claim_next(timeout=0)
        assert reclaimed.id == job.id
        assert reclaimed.attempts == 2

    def test_complete_requires_running(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        with pytest.raises(ValidationError, match="expected running"):
            queue.complete(job.id, {})
        with pytest.raises(ValidationError, match="unknown job"):
            queue.fail("job-nope", "x")

    def test_cancel_pending_only(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        assert queue.cancel(job.id)
        assert queue.poll(job.id).state is JobState.CANCELLED
        assert not queue.cancel(job.id)  # already terminal
        running = queue.submit(_request(num_nodes=3))
        queue.claim_next(timeout=0)
        assert not queue.cancel(running.id)
        assert not queue.cancel("job-nope")

    def test_cancelled_job_never_claimed(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.cancel(job.id)
        assert queue.claim_next(timeout=0) is None

    def test_claim_returns_none_when_closed_and_drained(self):
        queue = PlacementJobQueue()
        queue.close()
        assert queue.claim_next(timeout=None) is None

    def test_close_still_drains_pending(self):
        queue = PlacementJobQueue()
        job = queue.submit(_request())
        queue.close()
        assert queue.claim_next(timeout=0).id == job.id
        assert queue.claim_next(timeout=0) is None


class TestPopCompletedAndStats:
    def test_pop_completed_removes_terminal_in_submission_order(self):
        queue = PlacementJobQueue()
        a = queue.submit(_request(num_nodes=2))
        b = queue.submit(_request(num_nodes=3))
        c = queue.submit(_request(num_nodes=4), priority=9)
        # c claims first (priority); complete c then a, fail nothing
        queue.claim_next(timeout=0)
        queue.complete(c.id, {})
        queue.claim_next(timeout=0)
        queue.complete(a.id, {})
        popped = queue.pop_completed()
        assert [j.id for j in popped] == [a.id, c.id]  # submission order
        assert queue.poll(a.id) is None
        assert queue.poll(b.id) is not None
        assert queue.pop_completed() == []

    def test_stats_counts_states(self):
        queue = PlacementJobQueue()
        queue.submit(_request(num_nodes=2))
        queue.submit(_request(num_nodes=3))
        queue.submit(_request(num_nodes=4))
        claimed = queue.claim_next(timeout=0)
        queue.complete(claimed.id, {})
        stats = queue.stats()
        assert stats["submitted"] == 3
        assert stats["done"] == 1
        assert stats["pending"] == 2

    def test_add_finished_records_cached_job(self):
        queue = PlacementJobQueue()
        job = queue.add_finished(_request(), {"score": 7}, cached=True)
        assert job.state is JobState.DONE
        assert job.cached
        assert job.result == {"score": 7}
        assert queue.claim_next(timeout=0) is None

    def test_complete_pending_duplicates_coalesces(self):
        queue = PlacementJobQueue()
        original = queue.submit(_request())
        dup1 = queue.submit(_request())
        dup2 = queue.submit(_request())
        other = queue.submit(_request(num_nodes=3))
        claimed = queue.claim_next(timeout=0)
        assert claimed.id == original.id
        queue.complete(original.id, {"score": 42})
        count = queue.complete_pending_duplicates(
            original.digest, {"score": 42}
        )
        assert count == 2
        for dup in (dup1, dup2):
            job = queue.poll(dup.id)
            assert job.state is JobState.DONE
            assert job.cached
            assert job.result == {"score": 42}
        assert queue.poll(other.id).state is JobState.PENDING
        # the coalesced jobs' heap entries are stale, not claimable
        assert queue.claim_next(timeout=0).id == other.id


class TestTerminalRetention:
    def _finish(self, queue, num_nodes):
        job = queue.submit(_request(num_nodes=num_nodes))
        claimed = queue.claim_next(timeout=0)
        assert claimed.id == job.id
        queue.complete(job.id, {"n": num_nodes})
        return job

    def test_oldest_terminal_job_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "MAX_TERMINAL_JOBS", 2)
        queue = PlacementJobQueue()
        first = self._finish(queue, 2)
        second = self._finish(queue, 3)
        third = self._finish(queue, 4)
        assert queue.poll(first.id) is None
        assert queue.poll(second.id).result == {"n": 3}
        assert queue.poll(third.id).result == {"n": 4}
        assert queue.stats()["evicted"] == 1

    def test_pending_and_running_jobs_are_never_evicted(self, monkeypatch):
        monkeypatch.setattr(jobs_mod, "MAX_TERMINAL_JOBS", 1)
        queue = PlacementJobQueue()
        running = queue.submit(_request(num_nodes=2))
        assert queue.claim_next(timeout=0).id == running.id
        pending = queue.submit(_request(num_nodes=3))
        for n in range(4, 8):
            queue.add_finished(_request(num_nodes=n), {"n": n})
        cancelled = queue.submit(_request(num_nodes=9))
        assert queue.cancel(cancelled.id)
        assert queue.poll(running.id).state is JobState.RUNNING
        assert queue.poll(pending.id).state is JobState.PENDING
        stats = queue.stats()
        assert stats["running"] == 1 and stats["pending"] == 1
        assert stats["done"] + stats["cancelled"] == 1
        assert stats["evicted"] == 4
