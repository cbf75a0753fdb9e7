"""Span tracing of the service's layers from outside the program.

:class:`Tracer` wraps public entry points of each layer, patching every
name where its caller looks it up, and records one span per call:
layer name, start, end, parent span and job id. Spans stay in memory
until :meth:`Tracer.dump` writes them out. :meth:`Tracer.uninstall`
restores every patched attribute, so only the traced run is affected.

A layer's *self time* is its span durations minus the time covered by
its child spans (children run on the same thread, nested inside).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span tuple fields.
SID, PARENT, LAYER, T0, T1, JOB, N = range(7)

# count of work carried by a span: rows scored, candidates evaluated...
Note = Callable[[tuple, dict, object], int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.queue_waits: List[float] = []
        self.queue_depth_max = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int], list]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, stack

    def _close(self, sid, parent, stack, layer, t0, n=0) -> None:
        t1 = time.perf_counter()
        stack.pop()
        job = getattr(self._local, "job", None)
        self.spans.append((sid, parent, layer, t0, t1, job, n))

    def wrap(self, layer: str, fn, note: Optional[Note] = None):
        """``fn`` recording one ``layer`` span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = tracer._open()
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n = 0
                if note is not None and result is not None:
                    n = note(args, kwargs, result)
                tracer._close(sid, parent, stack, layer, t0, n)

        return traced

    def wrap_iter(self, layer: str, fn):
        """A generator function recording one span per ``next()``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid, parent, stack = tracer._open()
                t0 = time.perf_counter()
                rows = 0
                try:
                    chunk = next(inner)
                    rows = len(chunk)
                except StopIteration:
                    return
                finally:
                    tracer._close(sid, parent, stack, layer, t0, rows)
                yield chunk

        return traced

    def patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- installation --------------------------------------------------------
    def install(self, server) -> None:
        """Patch the layers' entry points and ``server``'s handler/queue."""
        import repro.coschedule.admission as admission
        import repro.coschedule.allocator as allocator
        import repro.faults.batched as batched
        import repro.runtime.runner as runner
        import repro.scheduler.robust as robust
        import repro.search.vectorized as vectorized
        import repro.service.api as api
        import repro.service.jobs as jobs
        import repro.service.schemas as schemas
        import repro.service.workers as workers
        from repro.faults.analytic import RobustnessTerm
        from repro.platform.node import Node
        from repro.runtime.executor import EnsembleExecutor

        def evaluated(args, kwargs, result):
            return result[1]

        def replicas(args, kwargs, result):
            return len(args[1] if len(args) > 1 else kwargs["schedules"])

        def rows(args, kwargs, result):
            return len(args[1])

        handler = server.httpd.RequestHandlerClass
        self.patch(handler, "do_POST",
                   self.wrap("service.api.post", handler.do_POST))
        self.patch(handler, "do_GET",
                   self.wrap("service.api.get", handler.do_GET))
        self.patch(api, "request_from_dict",
                   self.wrap("service.schemas.decode", api.request_from_dict))
        digest = self.wrap("service.schemas.digest", schemas.canonical_digest)
        self.patch(schemas, "canonical_digest", digest)
        self.patch(jobs, "canonical_digest", digest)
        search = self.wrap("search.engine", workers.find_best_placement,
                           evaluated)
        for module in (workers, allocator, admission):
            self.patch(module, "find_best_placement", search)
        self.patch(vectorized, "iter_assignment_chunks",
                   self.wrap_iter("search.canonical",
                                  vectorized.iter_assignment_chunks))
        self.patch(vectorized.VectorizedScorer, "score_chunk",
                   self.wrap("search.vectorized",
                             vectorized.VectorizedScorer.score_chunk, rows))
        score = self.wrap("scheduler.objectives", workers.score_placement)
        for module in (workers, robust, vectorized):
            self.patch(module, "score_placement", score)
        self.patch(RobustnessTerm, "penalty",
                   self.wrap("faults.analytic", RobustnessTerm.penalty))
        self.patch(workers, "rank_placements_robust",
                   self.wrap("scheduler.robust",
                             workers.rank_placements_robust))
        self.patch(batched, "capture_timeline",
                   self.wrap("faults.batched.capture",
                             batched.capture_timeline))
        self.patch(batched, "replay_schedules",
                   self.wrap("faults.batched.replay",
                             batched.replay_schedules, replicas))
        self.patch(runner, "run_ensemble",
                   self.wrap("runtime", runner.run_ensemble))
        self.patch(EnsembleExecutor, "run",
                   self.wrap("des", EnsembleExecutor.run))
        self.patch(Node, "assess", self.wrap("platform.node", Node.assess))

        queue = server.service.queue
        claim, submit = queue.claim_next, queue.submit
        tracer = self

        def claim_next(timeout=None):
            job = claim(timeout)
            tracer._local.job = job.id if job is not None else None
            if job is not None:
                tracer.queue_waits.append(time.monotonic() - job.submitted_at)
            return job

        def submit_job(request, priority=0):
            job = submit(request, priority)
            depth = queue.stats()["pending"]
            tracer.queue_depth_max = max(tracer.queue_depth_max, depth)
            return job

        queue.claim_next = claim_next
        queue.submit = submit_job
        self._saved.append((queue, "claim_next", None))
        self._saved.append((queue, "submit", None))

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def reset(self) -> None:
        """Forget what was recorded so far (warm-up traffic)."""
        self.spans.clear()
        self.queue_waits.clear()
        self.queue_depth_max = 0

    # -- output --------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[T0] for s in self.spans), default=0.0)
        with path.open("w") as out:
            for s in sorted(self.spans, key=lambda s: s[T0]):
                out.write(json.dumps({
                    "id": s[SID], "parent": s[PARENT], "name": s[LAYER],
                    "start": s[T0] - origin, "end": s[T1] - origin,
                    "job": s[JOB], "n": s[N],
                }) + "\n")


def self_times(spans: Iterable[tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, total seconds and self seconds."""
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[T1] - s[T0]
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s[LAYER]]
        row["calls"] += 1
        row["total_s"] += s[T1] - s[T0]
        row["self_s"] += s[T1] - s[T0] - child_time[s[SID]]
    return dict(table)


def with_descendant(spans: Iterable[tuple], layer: str,
                    descendant: str) -> set:
    """Ids of ``layer`` spans that have a ``descendant`` span below."""
    spans = list(spans)
    parent_of = {s[SID]: s[PARENT] for s in spans}
    wanted = {s[SID] for s in spans if s[LAYER] == layer}
    found = set()
    for s in spans:
        if s[LAYER] != descendant:
            continue
        node = s[PARENT]
        while node is not None:
            if node in wanted:
                found.add(node)
                break
            node = parent_of.get(node)
    return found
