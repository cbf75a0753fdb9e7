"""End-to-end and per-layer metrics of the placement-service benchmark.

End-to-end metrics come from the untraced run, per-layer metrics from
the traced run. Each per-layer metric has a *basis*:

- ``exact``: summed over the jobs at sequence positions below
  ``EXACT_PREFIX``, which every run completes, so it repeats exactly
  for a given seed (and ``schemas.digest_calls_per_job``, a ratio that
  is the same for every job);
- ``window``: summed over the whole timed window, so it scales with
  the number of jobs the window completed;
- ``sched``: a window count that also depends on which worker ran
  which job (each worker has its own StageCache), so it differs
  between runs of one seed and is read with its spread across runs.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence

import spans
from loop import WORKERS, Window

#: Per-layer counts marked ``exact`` cover sequence positions below this.
EXACT_PREFIX = 60

END_TO_END = (
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: Job kinds that reach a worker (``search_cached`` never does).
EXECUTED_KINDS = ("search", "robust_search", "rank", "rank_des",
                  "reschedule", "coschedule")

#: Span layers, named after the modules whose entry points they wrap.
LAYERS = ("service.api.post", "service.api.get", "service.schemas.decode",
          "service.schemas.digest", "service.workers", "search.engine",
          "search.canonical", "search.vectorized", "scheduler.objectives",
          "faults.analytic", "scheduler.robust", "faults.batched.capture",
          "faults.batched.replay", "runtime", "des", "platform.node")

# (name, unit, better, basis)
PER_LAYER = (
    ("api.polls_per_job", "count", "lower", "window"),
    ("api.post_ms.p50", "ms", "lower", "window"),
    ("schemas.decode_ms.p50", "ms", "lower", "window"),
    ("schemas.digest_calls_per_job", "count", "lower", "exact"),
    ("schemas.digest_ms.p50", "ms", "lower", "window"),
    ("result_cache.hits", "count", "higher", "window"),
    ("result_cache.misses", "count", "lower", "window"),
    ("result_cache.hit_ratio", "ratio", "higher", "window"),
    ("queue.wait_ms.p50", "ms", "lower", "window"),
    ("queue.wait_ms.p90", "ms", "lower", "window"),
    ("queue.depth_max", "count", "lower", "window"),
    ("workers.busy_fraction", "ratio", "lower", "window"),
    *((f"workers.execute_ms.{k}.p50", "ms", "lower", "window")
      for k in EXECUTED_KINDS),
    ("engine.searches", "count", "lower", "exact"),
    ("engine.vectorized_used", "count", "higher", "exact"),
    ("engine.scalar_fallbacks.below_threshold", "count", "lower", "exact"),
    ("engine.scalar_fallbacks.robustness", "count", "lower", "exact"),
    ("canonical.enumerate_s", "s", "lower", "window"),
    ("canonical.candidates", "count", "lower", "exact"),
    ("kernel.score_s", "s", "lower", "window"),
    ("kernel.candidates_scored", "count", "lower", "exact"),
    ("kernel.pruned_ratio", "ratio", "higher", "exact"),
    ("kernel.cand_per_s", "1/s", "higher", "window"),
    ("stage_cache.hit_ratio", "ratio", "higher", "sched"),
    ("stage_cache.node_hit_ratio", "ratio", "higher", "sched"),
    ("objectives.score_placement_calls", "count", "lower", "exact"),
    ("objectives.score_placement_s", "s", "lower", "window"),
    ("surrogate.penalty_calls", "count", "lower", "exact"),
    ("surrogate.penalty_s", "s", "lower", "window"),
    ("batched.baseline_sims", "count", "lower", "exact"),
    ("batched.replicas_replayed", "count", "lower", "exact"),
    ("batched.capture_s", "s", "lower", "window"),
    ("batched.replay_s", "s", "lower", "window"),
    ("des.runs", "count", "lower", "exact"),
    ("des.run_s", "s", "lower", "window"),
    ("node.assess_calls", "count", "lower", "sched"),
    ("node.assess_s", "s", "lower", "sched"),
    ("reschedule.replans_triggered", "count", "lower", "window"),
    ("reschedule.replans_accepted", "count", "higher", "window"),
    ("reschedule.migrations", "count", "lower", "window"),
    ("coschedule.admitted", "count", "higher", "window"),
    ("coschedule.repartitions", "count", "lower", "window"),
    ("process.import_s", "s", "lower", "process"),
    ("process.cpu_s", "s", "lower", "window"),
    ("tracing.overhead_jobs_per_s", "1/s", "lower", "window"),
    ("tracing.spans", "count", "lower", "window"),
    *((f"self_s.{layer}", "s", "lower", "window") for layer in LAYERS),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(window: Window) -> Dict[str, object]:
    """Throughput, latency tail and per-kind medians of one window."""
    done = window.completed
    latencies = [r.latency_s * 1000.0 for r in done]
    by_kind: Dict[str, List[float]] = defaultdict(list)
    for record in done:
        by_kind[record.label].append(record.latency_s * 1000.0)
    attempted = len(window.records)
    return {
        "jobs_per_s": len(done) / window.wall_s,
        "latency_p90_ms": percentile(latencies, 90),
        "samples": len(latencies),
        "samples_beyond_p90": sum(v > percentile(latencies, 90)
                                  for v in latencies),
        "p50_ms": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "kind_samples": {k: len(v) for k, v in sorted(by_kind.items())},
        "attempted": attempted,
        "failed": attempted - len(done),
    }


def _delta(window: Window, section: str, key: str) -> float:
    return window.stats_after[section][key] - window.stats_before[section][key]


def per_layer(tracer: spans.Tracer, window: Window, import_s: float,
              cpu_s: float, untraced_jobs_per_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced window."""
    recorded = tracer.spans
    label_of = {r.job_id: r.label for r in window.records}
    prefix = {r.job_id for r in window.records if r.index < EXACT_PREFIX}
    exact = [s for s in recorded if s[spans.JOB] in prefix]

    def durations_ms(layer, rows=recorded):
        return [(s[spans.T1] - s[spans.T0]) * 1000.0 for s in rows
                if s[spans.LAYER] == layer]

    def count(layer, rows=exact):
        return sum(1 for s in rows if s[spans.LAYER] == layer)

    def units(layer, rows=exact):
        return sum(s[spans.N] for s in rows if s[spans.LAYER] == layer)

    def total_s(layer):
        return sum(durations_ms(layer)) / 1000.0

    table = spans.self_times(recorded)
    m: Dict[str, float] = {}
    done = window.completed
    m["api.polls_per_job"] = _ratio(sum(r.polls for r in done), len(done))
    m["api.post_ms.p50"] = percentile(durations_ms("service.api.post"), 50)
    m["schemas.decode_ms.p50"] = percentile(
        durations_ms("service.schemas.decode"), 50)
    # per decoded submission: a POST span can close just after the
    # post-warm-up reset, its digest spans just before it
    m["schemas.digest_calls_per_job"] = _ratio(
        count("service.schemas.digest", recorded),
        count("service.schemas.decode", recorded))
    m["schemas.digest_ms.p50"] = percentile(
        durations_ms("service.schemas.digest"), 50)
    hits = _delta(window, "result_cache", "hits")
    misses = _delta(window, "result_cache", "misses")
    m["result_cache.hits"] = hits
    m["result_cache.misses"] = misses
    m["result_cache.hit_ratio"] = _ratio(hits, hits + misses)
    waits = [w * 1000.0 for w in tracer.queue_waits]
    m["queue.wait_ms.p50"] = percentile(waits, 50)
    m["queue.wait_ms.p90"] = percentile(waits, 90)
    m["queue.depth_max"] = tracer.queue_depth_max
    m["workers.busy_fraction"] = _ratio(
        total_s("service.workers"), WORKERS * window.wall_s)
    execute: Dict[str, List[float]] = defaultdict(list)
    for s in recorded:
        if s[spans.LAYER] == "service.workers":
            execute[label_of.get(s[spans.JOB], "")].append(
                (s[spans.T1] - s[spans.T0]) * 1000.0)
    for kind in EXECUTED_KINDS:
        m[f"workers.execute_ms.{kind}.p50"] = percentile(execute[kind], 50)

    kernel_used = spans.with_descendant(exact, "search.engine",
                                        "search.vectorized")
    searches = [s for s in exact if s[spans.LAYER] == "search.engine"]
    robust = spans.with_descendant(exact, "search.engine", "faults.analytic")
    m["engine.searches"] = len(searches)
    m["engine.vectorized_used"] = len(kernel_used)
    m["engine.scalar_fallbacks.robustness"] = len(robust)
    m["engine.scalar_fallbacks.below_threshold"] = len(searches) - len(
        kernel_used) - len(robust)
    m["canonical.enumerate_s"] = total_s("search.canonical")
    m["canonical.candidates"] = units("search.engine")
    scored = units("search.vectorized")
    kernel_space = sum(s[spans.N] for s in searches
                       if s[spans.SID] in kernel_used)
    m["kernel.score_s"] = total_s("search.vectorized")
    m["kernel.candidates_scored"] = scored
    m["kernel.pruned_ratio"] = 1.0 - _ratio(scored, kernel_space) if (
        kernel_space) else 0.0
    m["kernel.cand_per_s"] = _ratio(units("search.vectorized", recorded),
                                    m["kernel.score_s"])
    stage = {k: _delta(window, "stage_cache", k) for k in (
        "stage_hits", "stage_misses", "node_hits", "node_misses")}
    m["stage_cache.hit_ratio"] = _ratio(
        stage["stage_hits"], stage["stage_hits"] + stage["stage_misses"])
    m["stage_cache.node_hit_ratio"] = _ratio(
        stage["node_hits"], stage["node_hits"] + stage["node_misses"])
    m["objectives.score_placement_calls"] = count("scheduler.objectives")
    m["objectives.score_placement_s"] = total_s("scheduler.objectives")
    m["surrogate.penalty_calls"] = count("faults.analytic")
    m["surrogate.penalty_s"] = total_s("faults.analytic")
    m["batched.baseline_sims"] = count("faults.batched.capture")
    m["batched.replicas_replayed"] = units("faults.batched.replay")
    m["batched.capture_s"] = total_s("faults.batched.capture")
    m["batched.replay_s"] = total_s("faults.batched.replay")
    m["des.runs"] = count("des")
    m["des.run_s"] = total_s("des")
    m["node.assess_calls"] = count("platform.node", recorded)
    m["node.assess_s"] = total_s("platform.node")
    for key in ("replans_triggered", "replans_accepted", "migrations"):
        m[f"reschedule.{key}"] = _delta(window, "reschedule", key)
    for key in ("admitted", "repartitions"):
        m[f"coschedule.{key}"] = _delta(window, "coschedule", key)
    m["process.import_s"] = import_s
    m["process.cpu_s"] = cpu_s
    m["tracing.overhead_jobs_per_s"] = untraced_jobs_per_s - len(
        done) / window.wall_s
    m["tracing.spans"] = len(recorded)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = table.get(layer, {}).get("self_s", 0.0)
    return m


def self_time_table(tracer: spans.Tracer) -> List[str]:
    """Per-layer calls, total and self seconds, largest self time first."""
    table = spans.self_times(tracer.spans)
    grand = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"  {'layer':<26}{'calls':>9}{'total_s':>10}{'self_s':>10}"
             f"{'self%':>7}"]
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {layer:<26}{row['calls']:>9}{row['total_s']:>10.3f}"
                     f"{row['self_s']:>10.3f}"
                     f"{100.0 * row['self_s'] / grand:>6.1f}%")
    return lines
