"""The worker pool: drain the job queue through the search engine.

:func:`execute_request` is the single execution choke point — a pure
function from a :class:`~repro.service.schemas.PlacementRequest` to a
JSON-ready payload, dispatching on the request kind to the fast search
engine (:func:`~repro.search.engine.find_best_placement`), the scorer
(:func:`~repro.scheduler.objectives.score_placement`), or the robust
surrogate ranker (:func:`~repro.scheduler.robust
.rank_placements_robust`). Purity is what makes the service
deterministic: the same request computes the identical payload on any
worker, any pool size, any submission order — asserted exactly by the
service determinism tests.

:class:`PlacementService` wraps a :class:`~repro.service.jobs
.PlacementJobQueue`, a :class:`~repro.service.cache.ResultCache`, and
``workers`` threads from a :class:`concurrent.futures
.ThreadPoolExecutor`:

- **cache-first submit** — a request whose digest is cached completes
  instantly (``cached=True``) without touching the queue;
- **per-job timeout** — each execution runs under a deadline; on
  expiry the job FAILs with a timeout error and the worker moves on
  (the stray computation finishes on a daemon thread and is
  discarded);
- **retry on worker crash** — an execution that raises is requeued up
  to ``max_retries`` times before the job FAILs with the exception
  text;
- **graceful shutdown** — :meth:`PlacementService.stop` closes the
  queue, lets in-flight jobs resolve, and joins the pool.

Each worker owns a private :class:`~repro.search.cache.StageCache`
(warm across that worker's jobs, trimmed between jobs once its tables
pass :meth:`~repro.search.cache.StageCache.trim`'s bounds); caches are
exact memoizations, so which worker computes a job never changes its
floats.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Callable, Dict, List, Optional

from repro.faults.analytic import RobustnessTerm, node_crash_builder
from repro.faults.recovery import make_policy
from repro.scheduler.context import PlanningContext
from repro.scheduler.objectives import score_placement
from repro.scheduler.robust import (
    crash_straggler_factory,
    rank_placements_robust,
)
from repro.search.cache import StageCache
from repro.search.engine import find_best_placement
from repro.service.cache import ResultCache
from repro.service.jobs import JobState, PlacementJob, PlacementJobQueue
from repro.service.schemas import (
    PlacementRequest,
    robust_score_to_dict,
    score_to_dict,
)
from repro.util.errors import ValidationError
from repro.util.validation import require_positive_int


class JobTimeout(Exception):
    """Raised internally when a job exceeds its execution deadline."""


def _robustness_term(request: PlacementRequest) -> Optional[RobustnessTerm]:
    if request.robust_rate <= 0:
        return None
    return RobustnessTerm(
        policy=make_policy(request.policy),
        model_builder=node_crash_builder(request.robust_rate),
        weight=request.robust_weight,
    )


def _execute_reschedule(request: PlacementRequest) -> dict:
    """Static vs rescheduled DES comparison under the request's drift.

    Both runs share one seed and one compiled drift schedule, so the
    only difference between them is the controller's migrations — the
    improvement is attributable, and the payload is deterministic
    (same request, same floats, any worker).
    """
    from repro.reschedule import (
        DriftEvent,
        DriftKind,
        RescheduleController,
        StaticDriftModel,
    )
    from repro.runtime.runner import run_ensemble
    from repro.service.schemas import RescheduleOptions

    options = request.reschedule or RescheduleOptions()
    drift = StaticDriftModel(
        (
            DriftEvent(
                node=options.drift_node,
                kind=DriftKind(options.drift_kind),
                start_step=options.drift_start,
                magnitude=options.drift_magnitude,
            ),
        )
    )
    static = run_ensemble(
        request.spec,
        request.placement,
        seed=options.seed,
        drift=drift,
    )
    controller = RescheduleController(
        window=options.window,
        threshold=options.threshold,
        min_dwell=options.min_dwell,
        min_gain=options.min_gain,
        max_migrations=options.max_migrations,
    )
    rescheduled = run_ensemble(
        request.spec,
        request.placement,
        seed=options.seed,
        drift=drift,
        rescheduler=controller,
    )
    improvement = 1.0 - (
        rescheduled.ensemble_makespan / static.ensemble_makespan
    )
    return {
        "static_makespan": static.ensemble_makespan,
        "rescheduled_makespan": rescheduled.ensemble_makespan,
        "improvement": improvement,
        "controller": controller.summary(),
    }


def _execute_coschedule(
    request: PlacementRequest,
    stage_cache: Optional[StageCache] = None,
) -> dict:
    """Run the request's ensemble stream through the co-scheduler.

    The co-scheduler is deterministic by construction (event ranks,
    first-optimum-wins allocation, canonical digests), so the payload
    — including its content digest — is identical on any worker.
    """
    from repro.coschedule import ClusterObjective, CoScheduler

    options = request.coschedule
    if options is None:  # pragma: no cover - guarded by __post_init__
        raise ValidationError("coschedule request without options")

    scheduler = CoScheduler(
        total_nodes=request.num_nodes,
        cores_per_node=request.cores_per_node,
        objective=ClusterObjective(
            utility_weight=options.utility_weight,
            fairness_weight=options.fairness_weight,
            deadline_weight=options.deadline_weight,
        ),
        context=PlanningContext(
            robustness=None,
            cache=stage_cache,
        ),
        robust_rate=request.robust_rate,
        policy=request.policy,
        max_partitions=options.max_partitions,
    )
    result = scheduler.run(options.requests)
    return {
        "coschedule": result.to_dict(),
        "digest": result.digest(),
        "decisions_digest": result.decisions_digest(),
    }


def execute_request(
    request: PlacementRequest,
    stage_cache: Optional[StageCache] = None,
) -> dict:
    """Execute one request; return the JSON-ready result payload.

    The payload mirrors what ``GET /jobs/<id>`` serves:

    - ``search``     -> ``{"score": ..., "evaluated": int}``
    - ``score``      -> ``{"score": ...}``
    - ``rank``       -> ``{"ranking": [...]}`` (best first)
    - ``reschedule`` -> static vs rescheduled DES makespans under the
      request's drift scenario, plus the migration log.
    - ``coschedule`` -> the full co-schedule of the request's stream
      (decisions, completions, timeline, utilization) plus its
      content digests.

    A shared ``stage_cache`` only memoizes — payloads are bit-identical
    with or without it. Scoring and search calls route through one
    :class:`~repro.scheduler.context.PlanningContext`.
    """
    robustness = _robustness_term(request)
    context = PlanningContext(robustness=robustness, cache=stage_cache)
    if request.kind == "search":
        # vectorized=True routes large canonical spaces through the
        # batch kernel with branch-and-bound; the winner is re-scored
        # on the scalar path, so the payload (score floats, evaluated
        # count) is identical to the scalar engine's — small instances
        # and robust searches stay on the scalar path automatically
        # (the routing taken is visible via engine.search_counters)
        best, evaluated = find_best_placement(
            request.spec,
            request.num_nodes,
            request.cores_per_node,
            context=context.evolve(vectorized=True),
        )
        return {"score": score_to_dict(best), "evaluated": evaluated}
    if request.kind == "score":
        score = score_placement(
            request.spec,
            request.placement,
            context=context,
        )
        return {"score": score_to_dict(score)}
    if request.kind == "reschedule":
        return _execute_reschedule(request)
    if request.kind == "coschedule":
        return _execute_coschedule(request, stage_cache=stage_cache)
    if request.kind == "rank":
        if request.rank_method == "des":
            # full injected trials, replayed by the batched engine:
            # one fault-free DES per candidate + delta replay of the
            # fault schedules (common random numbers pair candidates)
            ranking = rank_placements_robust(
                request.spec,
                request.candidates,
                crash_straggler_factory(request.robust_rate),
                make_policy(request.policy),
                trials=request.trials,
                base_seed=request.base_seed,
                method="des",
                engine="batched",
            )
        else:
            ranking = rank_placements_robust(
                request.spec,
                request.candidates,
                crash_straggler_factory(request.robust_rate),
                make_policy(request.policy),
                base_seed=request.base_seed,
                method="surrogate",
                context=context,
            )
        return {"ranking": [robust_score_to_dict(s) for s in ranking]}
    raise ValidationError(f"unknown request kind {request.kind!r}")


class PlacementService:
    """Long-running placement service: queue + cache + worker pool.

    Parameters
    ----------
    workers:
        Worker threads draining the queue.
    result_cache:
        Digest-keyed :class:`ResultCache` (a 1024-entry one is built
        when omitted).
    job_timeout:
        Per-job execution deadline in seconds (None = unbounded).
    max_retries:
        Re-executions granted after a worker crash before the job
        FAILs.
    execute_fn:
        Execution hook, defaulting to :func:`execute_request`. Tests
        substitute crashing/slow functions to exercise the retry and
        timeout paths.
    """

    def __init__(
        self,
        workers: int = 2,
        result_cache: Optional[ResultCache] = None,
        job_timeout: Optional[float] = None,
        max_retries: int = 1,
        execute_fn: Optional[Callable[..., dict]] = None,
    ) -> None:
        require_positive_int("workers", workers)
        if max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {max_retries!r}"
            )
        self.queue = PlacementJobQueue()
        # `or` would discard an *empty* caller cache (len 0 is falsy)
        self.result_cache = (
            result_cache if result_cache is not None else ResultCache()
        )
        self.num_workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self._execute = execute_fn or execute_request
        self._stage_caches: List[StageCache] = []
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loops: List[concurrent.futures.Future] = []
        self._stopping = threading.Event()
        self._started = threading.Event()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "PlacementService":
        """Spin up the worker loops (idempotent)."""
        if self._started.is_set():
            return self
        self._started.set()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.num_workers,
            thread_name_prefix="placement-worker",
        )
        for _ in range(self.num_workers):
            cache = StageCache()
            self._stage_caches.append(cache)
            self._loops.append(self._pool.submit(self._worker_loop, cache))
        return self

    def stop(self, wait: bool = True) -> None:
        """Graceful shutdown: close the queue, drain, join the pool.

        In-flight jobs run to completion; PENDING jobs stay pending
        (observable, never silently dropped). With ``wait=False`` the
        pool is abandoned without joining.
        """
        if not self._started.is_set():
            return
        self._stopping.set()
        self.queue.close()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        if wait:
            for loop in self._loops:
                exc = loop.exception()
                if exc is not None:  # pragma: no cover - defensive
                    raise exc

    def __enter__(self) -> "PlacementService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission ---------------------------------------------------------
    def submit(
        self, request: PlacementRequest, priority: int = 0
    ) -> PlacementJob:
        """Submit one request; cache hits complete without a worker."""
        from repro.service.schemas import canonical_digest

        digest = canonical_digest(request)
        cached = self.result_cache.get(digest)
        if cached is not None:
            return self.queue.add_finished(
                request, cached, cached=True, digest=digest
            )
        return self.queue.submit(request, priority=priority)

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> PlacementJob:
        """Block until ``job_id`` reaches a terminal state."""
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.queue.poll(job_id)
            if job is None:
                raise ValidationError(f"unknown job {job_id!r}")
            if job.state.terminal:
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job.state.value} after "
                    f"{timeout}s"
                )
            time.sleep(0.002)

    # -- worker loop --------------------------------------------------------
    def _worker_loop(self, stage_cache: StageCache) -> None:
        while not self._stopping.is_set():
            job = self.queue.claim_next(timeout=0.1)
            if job is None:
                if self._stopping.is_set():
                    return
                continue
            self._run_job(job, stage_cache)

    def _run_job(self, job: PlacementJob, stage_cache: StageCache) -> None:
        try:
            result = self._execute_with_deadline(job.request, stage_cache)
        except JobTimeout:
            self.queue.fail(
                job.id,
                f"timeout: exceeded {self.job_timeout}s "
                f"(attempt {job.attempts})",
            )
            return
        except Exception as exc:  # worker crash: retry, then fail
            if job.attempts <= self.max_retries:
                self.queue.requeue(job.id)
            else:
                self.queue.fail(
                    job.id,
                    f"{type(exc).__name__}: {exc} "
                    f"(after {job.attempts} attempts)",
                )
            return
        self.result_cache.put(job.digest, result)
        self.queue.complete(job.id, result)
        self.queue.complete_pending_duplicates(job.digest, result)
        # between jobs, and only after a run that ended: a timed-out
        # run may still be using the cache on its abandoned thread
        stage_cache.trim()

    def _execute_with_deadline(
        self, request: PlacementRequest, stage_cache: StageCache
    ) -> dict:
        if self.job_timeout is None:
            return self._execute(request, stage_cache=stage_cache)
        # threads cannot be preempted: run the job on a disposable
        # daemon thread and abandon it past the deadline — the stray
        # result is discarded, the worker moves on
        outcome: Dict[str, object] = {}

        def target() -> None:
            try:
                outcome["result"] = self._execute(
                    request, stage_cache=stage_cache
                )
            except Exception as exc:  # surfaced to the retry path
                outcome["error"] = exc

        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(self.job_timeout)
        if runner.is_alive():
            raise JobTimeout()
        if "error" in outcome:
            raise outcome["error"]  # type: ignore[misc]
        return outcome["result"]  # type: ignore[return-value]

    # -- stats --------------------------------------------------------------
    def stage_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters summed over the workers' stage caches."""
        totals = {
            "stage_hits": 0,
            "stage_misses": 0,
            "node_hits": 0,
            "node_misses": 0,
        }
        for cache in self._stage_caches:
            for key, value in cache.stats().items():
                totals[key] += value
        return totals

    def stats(self) -> dict:
        """The ``GET /stats`` payload: queue, caches, pool, engines."""
        from repro.coschedule import coschedule_counters
        from repro.faults.batched import engine_counters
        from repro.reschedule import reschedule_counters
        from repro.search.engine import last_search_routing, search_counters

        return {
            "queue": self.queue.stats(),
            "result_cache": self.result_cache.stats(),
            "stage_cache": self.stage_cache_stats(),
            "workers": self.num_workers,
            "job_timeout": self.job_timeout,
            "max_retries": self.max_retries,
            "batched": engine_counters(),
            "search": {
                **search_counters(),
                "last_routing": last_search_routing(),
            },
            "reschedule": reschedule_counters(),
            "coschedule": coschedule_counters(),
        }
