"""Server lifecycle, closed-loop clients, exactness check, teardown guard.

The benchmark runs :class:`~repro.service.api.PlacementServer` inside
its own process (never ``repro serve`` as a subprocess, never a
``multiprocessing`` pool, no ``job_timeout``) and drives it over real
HTTP through :class:`~repro.service.client.PlacementClient`.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import socket
import threading
import time
import urllib.error
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.service.api import PlacementServer
from repro.service.client import PlacementClient, ServiceError
from repro.service.schemas import canonical_digest
from repro.service.workers import PlacementService, execute_request

from workloads import Item

WORKERS = 2
POLL_INTERVAL_S = 0.005
JOB_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Record:
    """What one client saw of one submission."""

    index: int
    label: str
    digest: str = ""
    job_id: str = ""
    state: str = "unsent"
    cached: bool = False
    result_sha: str = ""
    error: Optional[str] = None
    latency_s: float = 0.0
    polls: int = 0

    @property
    def ok(self) -> bool:
        return self.state == "done" and self.error is None


def start_server(execute_fn=None, tracer=None) -> PlacementServer:
    """A started two-worker server on an ephemeral localhost port.

    ``execute_fn`` defaults to :func:`execute_request`; ``job_timeout``
    stays unset, so no job is ever left running on an abandoned thread.
    The result cache keeps the service's default size. ``tracer`` is
    installed before the workers start: a worker already waiting in the
    unpatched ``claim_next`` would run its next job without a job id.
    """
    service = PlacementService(workers=WORKERS, execute_fn=execute_fn)
    server = PlacementServer(service=service, host="127.0.0.1", port=0)
    try:
        if tracer is not None:
            tracer.install(server)
        return server.start()
    except BaseException:
        server.httpd.server_close()
        service.stop()
        raise


def make_client(server: PlacementServer) -> PlacementClient:
    return PlacementClient(server.url, timeout=30.0)


def submit_and_wait(client: PlacementClient, item: Item,
                    index: int) -> Record:
    """Submit one job, poll at a fixed interval until it is terminal."""
    record = Record(index=index, label=item.label)
    start = time.perf_counter()
    try:
        snapshot = client.submit(item.request)
        record.job_id = snapshot["id"]
        record.digest = snapshot["digest"]
        deadline = start + JOB_TIMEOUT_S
        while snapshot["state"] not in TERMINAL:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"job {record.job_id} not terminal")
            time.sleep(POLL_INTERVAL_S)
            snapshot = client.job(record.job_id)
            record.polls += 1
        record.latency_s = time.perf_counter() - start
        record.state = snapshot["state"]
        record.cached = snapshot["cached"]
        record.result_sha = payload_sha(snapshot.get("result"))
        record.error = snapshot.get("error")
    except (ServiceError, urllib.error.URLError, OSError,
            TimeoutError, KeyError, ValueError) as exc:
        record.state = "client-error"
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def warm_up(server: PlacementServer, items: Sequence[Item]) -> None:
    """Health check, then one job of each kind; raises on failure."""
    client = make_client(server)
    if client.health()["status"] != "ok":
        raise RuntimeError("server is not healthy")
    for index, item in enumerate(items):
        record = submit_and_wait(client, item, index)
        if not record.ok:
            raise RuntimeError(f"warm-up {item.label} failed: {record.error}")
        if item.source is not None and not record.cached:
            raise RuntimeError("warm-up repeat was not served from cache")


@dataclass
class Window:
    """The outcome of one timed closed-loop window."""

    records: List[Record]
    wall_s: float
    stats_before: dict
    stats_after: dict

    @property
    def completed(self) -> List[Record]:
        return [r for r in self.records if r.ok]


def run_window(server: PlacementServer, items: Sequence[Item],
               seconds: float) -> Window:
    """Drive ``items`` in order from one closed-loop client.

    The client takes the next submission only after its previous job is
    terminal, and none after ``seconds``; the window ends when the job
    in flight has finished. A repeat comes after the submission it
    repeats has finished, so it is a hit.

    One client, not two: the workers share one GIL, so a second client
    added under 10% to throughput while every job then ran beside
    another one, and its latency tracked the host's load as much as the
    job's own cost (the p90's spread across runs doubled).
    """
    client = make_client(server)
    records: List[Record] = []
    stats_before = client.stats()
    start = time.perf_counter()
    for index, item in enumerate(items):
        if time.perf_counter() - start >= seconds:
            break
        records.append(submit_and_wait(client, item, index))
    else:
        raise RuntimeError("sequence exhausted before the window ended; "
                           "raise MAX_JOBS_PER_S in run.py")
    wall = time.perf_counter() - start
    return Window(records, wall, stats_before, client.stats())


def payload_sha(payload: Optional[dict]) -> str:
    """Digest of a payload as served, so records need not keep it."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_exactness(items: Sequence[Item],
                    windows: Sequence[Window]) -> dict:
    """Compare every served payload with a direct computation.

    Each distinct payload must equal ``execute_request(request)``
    exactly; each cached payload must equal the first computation of
    its digest; result-cache hits plus misses must equal submissions.
    Payloads are compared by :func:`payload_sha` of their JSON form.
    Returns the number of mismatched jobs, the problems found and the
    expected payload digests by request digest.
    """
    expected: Dict[str, str] = {}
    mismatched = set()
    problems: List[str] = []
    for window in windows:
        first: Dict[str, str] = {}
        for record in window.completed:
            request = items[record.index].request
            digest = canonical_digest(request)
            if digest != record.digest:
                mismatched.add((id(window), record.index))
                problems.append(f"#{record.index}: digest differs")
                continue
            if digest not in expected:
                served = json.loads(json.dumps(execute_request(request)))
                expected[digest] = payload_sha(served)
            if record.result_sha != expected[digest]:
                mismatched.add((id(window), record.index))
                problems.append(f"#{record.index} {record.label}: payload "
                                f"differs from execute_request")
            if not record.cached:
                first.setdefault(digest, record.result_sha)
        for record in window.completed:
            if record.cached and record.digest in first and (
                record.result_sha != first[record.digest]
            ):
                mismatched.add((id(window), record.index))
                problems.append(f"#{record.index}: cached payload differs "
                                f"from its first computation")
        before = window.stats_before["result_cache"]
        after = window.stats_after["result_cache"]
        lookups = (after["hits"] - before["hits"]) + (
            after["misses"] - before["misses"])
        sent = sum(r.job_id != "" for r in window.records)
        if lookups != sent:
            problems.append(f"result-cache hits+misses {lookups} != "
                            f"{sent} submissions")
    return {"mismatches": len(mismatched), "problems": problems,
            "expected": expected}


def nondaemon_threads() -> int:
    return sum(not t.daemon for t in threading.enumerate())


def port_accepts(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0):
            return True
    except OSError:
        return False


def teardown_problems(baseline_threads: int, ports: Sequence[int],
                      children: Sequence = ()) -> List[str]:
    """What the run left behind: processes, threads, listening ports."""
    problems = []
    if multiprocessing.active_children():
        problems.append("multiprocessing children still alive")
    if any(child.poll() is None for child in children):
        problems.append("a set-up probe process is still running")
    deadline = time.monotonic() + 5.0
    while nondaemon_threads() > baseline_threads and (
        time.monotonic() < deadline
    ):
        time.sleep(0.01)
    if nondaemon_threads() != baseline_threads:
        names = [t.name for t in threading.enumerate() if not t.daemon]
        problems.append(f"non-daemon threads left: {names}")
    for port in ports:
        if port_accepts(port):
            problems.append(f"port {port} still accepts connections")
    return problems
