#!/usr/bin/env python3
"""Placement-service benchmark: seeded closed-loop load over real HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics on an untraced server;
``--trace 1`` runs the same window untraced and then traced, prints a
self-time table per layer and the per-layer metrics, and writes the
spans to ``perfbench/out/``. Either way every served payload is checked
against a direct computation and the run ends by checking that no
process, non-daemon thread or listening port is left behind. The last
line of standard output is one JSON object; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import time

import argparse
import ctypes
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "robust-search", "des-jobs")

#: Fresh processes timed from spawn to a warmed-up server; the median
#: is ``setup_s``.
SETUP_REPEATS = 9
#: A run should complete at least this many jobs (>= 10 beyond p90).
MIN_JOBS = 100
#: Submissions built per second of window: several times the fastest
#: workload's throughput, so the sequence never runs out, without
#: building (and holding in memory) far more requests than a run sends.
MAX_JOBS_PER_S = 120


#: glibc's ``mallopt`` parameter for the number of malloc arenas.
M_ARENA_MAX = -8


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_malloc_arena() -> None:
    """Keep the heap in one glibc arena; a no-op without glibc.

    glibc gives threads that allocate at once arenas of their own. With
    one client, which worker runs a job is a race, so how the heap
    fragmented across arenas, and with it ``peak_rss_mb``, changed
    between runs of one seed (89 to 96 MB on ``search``); in one arena
    it read 78 to 81 MB across seeds.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_ARENA_MAX, 1)


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child side of ``setup_s``: start, warm up, report, tear down."""
    import loop
    import workloads

    baseline = loop.nondaemon_threads()
    warmup = workloads.build(args.workload, args.seed, length=0).warmup
    server = loop.start_server()
    try:
        loop.warm_up(server, warmup)
        print(f"ready {time.monotonic() - args.setup_probe!r}", flush=True)
    finally:
        server.stop()
    problems = loop.teardown_problems(baseline, [server.port])
    for problem in problems:
        print(f"teardown: {problem}", file=sys.stderr)
    return 1 if problems else 0


def measure_setup(args, children: list) -> list:
    """Seconds from spawn to warmed-up server, one per fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--setup-probe", repr(time.monotonic())]
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
        children.append(child)
        try:
            out, _ = child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        words = out.split()
        if child.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed: {out!r}")
        samples.append(float(words[1]))
    return samples


def _print_table(title: str, rows: dict) -> None:
    print(title)
    for key, value in rows.items():
        print(f"  {key}: {value}")


def main(argv=None) -> int:
    args = parse_args(argv)
    one_malloc_arena()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"repro sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    signal.signal(signal.SIGTERM, _interrupt)
    if args.setup_probe is not None:
        return setup_probe(args)

    started = time.perf_counter()
    import repro.service  # noqa: F401
    import_s = time.perf_counter() - started
    import loop
    import metrics
    import spans
    import workloads
    from repro.service.workers import execute_request

    rss_before_mb = peak_rss_mb()
    workload = workloads.build(args.workload, args.seed,
                               int(args.seconds * MAX_JOBS_PER_S) + 1)
    sequence_mb = peak_rss_mb() - rss_before_mb
    baseline_threads = loop.nondaemon_threads()
    servers, ports, children = [], [], []

    def serve(execute_fn=None, tracer=None):
        server = loop.start_server(execute_fn, tracer)
        servers.append(server)
        ports.append(server.port)
        return server

    def stop_all():
        while servers:
            servers.pop().stop()

    tracer = None
    windows = []
    try:
        try:
            if args.trace == 0:
                setup = measure_setup(args, children)
            server = serve()
            loop.warm_up(server, workload.warmup)
            windows.append(loop.run_window(server, workload.items,
                                           args.seconds))
            window_peak_rss_mb = peak_rss_mb()
            stop_all()
            if args.trace == 1:
                tracer = spans.Tracer()
                server = serve(tracer.wrap("service.workers", execute_request),
                               tracer)
                loop.warm_up(server, workload.warmup)
                tracer.reset()
                cpu0 = os.times()
                windows.append(loop.run_window(server, workload.items,
                                               args.seconds))
                cpu1 = os.times()
        finally:
            stop_all()
            if tracer is not None:
                tracer.uninstall()
            teardown = loop.teardown_problems(baseline_threads, ports,
                                              children)
            for problem in teardown:
                print(f"teardown: {problem}", file=sys.stderr)
    except KeyboardInterrupt as exc:
        print(f"interrupted ({exc}); server stopped", file=sys.stderr)
        return 130

    check = loop.check_exactness(workload.items, windows)
    submitted = [workload.items[r.index] for r in windows[0].records]
    e2e = metrics.end_to_end(windows[0])
    _print_table(f"workload {args.workload} seed {args.seed}: "
                 f"{workload.why}", workloads.input_report(submitted))
    print(f"closed loop: 1 client, poll every "
          f"{loop.POLL_INTERVAL_S * 1000:.0f} ms, {loop.WORKERS} workers, "
          f"window {windows[0].wall_s:.2f} s")
    print(f"  sequence: {len(workload.items)} submissions built, "
          f"adding {sequence_mb:.1f} MB to peak_rss_mb")
    print(f"  jobs completed {e2e['samples']} of {e2e['attempted']} "
          f"(latency samples beyond p90: {e2e['samples_beyond_p90']})")
    for kind, value in e2e["p50_ms"].items():
        print(f"  p50_ms.{kind}: {value:.3f} ms "
              f"(n={e2e['kind_samples'][kind]})")
    failed = sum(len(w.records) - len(w.completed) for w in windows)
    attempted = sum(len(w.records) for w in windows)
    failed += check["mismatches"]
    print(f"  error_rate: {failed / attempted:.4f} "
          f"({failed} of {attempted} jobs)")
    if e2e["samples"] < MIN_JOBS:
        print(f"  warning: fewer than {MIN_JOBS} jobs completed")
    print(f"exactness: {check['mismatches']} payload mismatches, "
          f"{len(check['expected'])} distinct payloads recomputed")
    for problem in check["problems"][:20]:
        print(f"  {problem}")

    if args.trace == 0:
        values = {
            "jobs_per_s": e2e["jobs_per_s"],
            "latency_p90_ms": e2e["latency_p90_ms"],
            "peak_rss_mb": window_peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        print("setup_s samples: " + ", ".join(f"{s:.3f}" for s in setup))
    else:
        traced = windows[1]
        cpu_s = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)
        values = metrics.per_layer(tracer, traced, import_s, cpu_s,
                                   e2e["jobs_per_s"])
        if len(traced.records) < metrics.EXACT_PREFIX:
            print(f"  warning: traced window took fewer than "
                  f"{metrics.EXACT_PREFIX} jobs; exact counts are partial")
        print("self time per layer (traced window):")
        for line in metrics.self_time_table(tracer):
            print(line)
        traced_rate = len(traced.completed) / traced.wall_s
        print(f"tracing overhead: untraced {e2e['jobs_per_s']:.2f} jobs/s, "
              f"traced {traced_rate:.2f} jobs/s, "
              f"difference {e2e['jobs_per_s'] - traced_rate:.2f} jobs/s")
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(out)
        print(f"spans: {len(tracer.spans)} written to "
              f"{out.relative_to(ROOT)}")
        print("per-layer basis: exact = first "
              f"{metrics.EXACT_PREFIX} submissions, window = traced window, "
              "sched = depends on job-to-worker assignment")
    basis = {name: f" [{b}]" for name, _, _, b in metrics.PER_LAYER}
    for name, value in values.items():
        print(f"{name}: {value:.6g} {metrics.UNITS[name]}"
              f"{basis.get(name, '')}")

    correct = not failed and not check["problems"] and not teardown
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
