"""Self-test of the placement-service benchmark.

Runs a short version of every workload, traced and untraced, and
checks that every metric named in ``BENCHMARK.json`` is printed with
its unit, that the exactness check passes, and that the teardown guard
finds nothing left behind, also when the run is interrupted.

Run from the repository root::

    python3 -m pytest perfbench/test_benchmark.py -q
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _command(workload: str, trace: int, seconds: float = 2.0) -> list:
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    run = subprocess.run(_command(workload, trace), cwd=ROOT, text=True,
                         capture_output=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert "teardown:" not in run.stderr
    assert "exactness: 0 payload mismatches" in run.stdout
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        assert "self time per layer" in run.stdout
        assert "tracing overhead:" in run.stdout


# trace 0 is interrupted during the set-up probes, trace 1 in the window
@pytest.mark.parametrize("trace,after_s", [(0, 3.0), (1, 6.0)])
def test_interrupted_run_leaves_nothing_behind(trace, after_s):
    child = subprocess.Popen(_command("des-jobs", trace, seconds=30.0),
                             cwd=ROOT, text=True, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE)
    try:
        time.sleep(after_s)
        child.send_signal(signal.SIGTERM)
        out, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    assert child.returncode == 130, err
    assert "interrupted" in err
    assert "teardown:" not in err
    assert '"correct"' not in out


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    run = subprocess.run(_command("search", 0), cwd=tmp_path, text=True,
                         capture_output=True, timeout=120)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
