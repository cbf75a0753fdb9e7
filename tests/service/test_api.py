"""The HTTP surface: routes, status codes, and the Python client.

Every test boots a real :class:`PlacementServer` on an ephemeral port
(``port=0``) and talks to it over actual sockets through
:class:`PlacementClient` — no handler mocking, so the wire format and
status codes are exercised end to end.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.objectives import score_placement
from repro.search.engine import find_best_placement
from repro.service.api import MAX_BODY_BYTES, PlacementServer, make_server
from repro.service.client import PlacementClient, ServiceError
from repro.service.schemas import (
    PlacementRequest,
    request_to_dict,
    score_from_dict,
)


@pytest.fixture()
def server():
    with make_server(port=0, workers=2) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return PlacementClient(server.url)


def _spec(n_steps: int = 2) -> EnsembleSpec:
    return EnsembleSpec(
        "api", (default_member("em1", num_analyses=1, n_steps=n_steps),)
    )


def _search(num_nodes: int = 2) -> PlacementRequest:
    return PlacementRequest(kind="search", spec=_spec(), num_nodes=num_nodes)


class TestRoutes:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert payload["uptime_s"] >= 0

    def test_submit_poll_roundtrip(self, client):
        submitted = client.submit(_search())
        assert submitted["state"] in ("pending", "running", "done")
        assert submitted["kind"] == "search"
        snapshot = client.wait(submitted["id"], timeout=30.0)
        assert snapshot["state"] == "done"
        score = PlacementClient.result_score(snapshot)
        best, evaluated = find_best_placement(_spec(), 2, 32)
        assert score == best
        assert score.objective == best.objective  # exact, not approx
        assert snapshot["result"]["evaluated"] == evaluated

    def test_submit_search_helper(self, client):
        job = client.submit_search(_spec(), num_nodes=2)
        snapshot = client.wait(job["id"], timeout=30.0)
        assert snapshot["state"] == "done"

    def test_jobs_listing_excludes_results(self, client):
        job = client.submit(_search())
        client.wait(job["id"], timeout=30.0)
        listing = client.jobs()
        assert [j["id"] for j in listing] == [job["id"]]
        assert "result" not in listing[0]

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("job-does-not-exist")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._call("GET", "/frobnicate")
        assert err.value.status == 404

    def test_cancel_pending_job(self):
        import threading

        from repro.service.workers import PlacementService

        release = threading.Event()

        def stalling(request, stage_cache=None):
            release.wait(10.0)
            return {"ok": True}

        service = PlacementService(workers=1, execute_fn=stalling)
        with PlacementServer(service=service, port=0) as srv:
            client = PlacementClient(srv.url)
            client.submit(_search(num_nodes=2))  # occupies the worker
            pending = client.submit(_search(num_nodes=3))
            assert client.cancel(pending["id"]) is True
            assert client.job(pending["id"])["state"] == "cancelled"
            release.set()

    def test_submit_to_closed_queue_is_400(self, server, client):
        server.service.queue.close()
        with pytest.raises(ServiceError) as err:
            client.submit(_search())
        assert err.value.status == 400

    def test_delete_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.cancel("job-does-not-exist")
        assert err.value.status == 404

    def test_delete_done_job_reports_not_cancelled(self, client):
        job = client.submit(_search())
        client.wait(job["id"], timeout=30.0)
        assert client.cancel(job["id"]) is False

    def test_malformed_submit_is_400(self, server):
        url = f"{server.url}/jobs"
        for body in (b"{not json", b"{}", b'{"request": {"kind": "bogus"}}'):
            req = urllib.request.Request(
                url, data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400
            detail = json.loads(err.value.read())
            assert "error" in detail

    def test_stats_surfaces_all_layers(self, client):
        client.wait(client.submit(_search())["id"], timeout=30.0)
        client.submit(_search())  # cache hit
        stats = client.stats()
        assert stats["queue"]["submitted"] == 2
        assert stats["result_cache"]["hits"] == 1
        assert "stage_hits" in stats["stage_cache"]
        assert stats["workers"] == 2


def _post_with_length(server, length: str, body: bytes = b"{}"):
    """POST ``body`` announcing ``length``; (status, payload).

    The socket timeout turns a handler that blocks on the body into a
    test failure instead of a hang.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestBodyLimits:
    def test_non_integer_length_is_400(self, server):
        status, payload = _post_with_length(server, "twelve")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_length_is_400(self, server):
        status, payload = _post_with_length(server, "-1")
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_oversized_length_is_413(self, server):
        status, payload = _post_with_length(server, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]

    def test_service_keeps_serving_after_refusals(self, server, client):
        for length in ("twelve", "-1", str(MAX_BODY_BYTES + 1)):
            _post_with_length(server, length)
        assert client.health()["status"] == "ok"
        snapshot = client.wait(client.submit(_search())["id"], timeout=30.0)
        assert snapshot["state"] == "done"


class TestCachedSubmission:
    def test_duplicate_submit_returns_done_cached(self, client):
        first = client.wait(client.submit(_search())["id"], timeout=30.0)
        second = client.submit(_search())
        assert second["state"] == "done"
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_priority_accepted(self, client):
        job = client.submit(_search(), priority=7)
        assert job["priority"] == 7
        client.wait(job["id"], timeout=30.0)


class TestScoreRequests:
    def test_score_request_round_trips_exactly(self, client):
        spec = _spec()
        best, _ = find_best_placement(spec, 2, 32)
        request = PlacementRequest(
            kind="score", spec=spec, num_nodes=2, placement=best.placement
        )
        snapshot = client.wait(client.submit(request)["id"], timeout=30.0)
        served = score_from_dict(snapshot["result"]["score"])
        direct = score_placement(spec, best.placement)
        assert served.objective == direct.objective
        assert served.ensemble_makespan == direct.ensemble_makespan
        assert served.member_indicators == direct.member_indicators

    def test_result_score_on_unfinished_job_raises(self, client):
        snapshot = {"state": "pending", "id": "job-x"}
        with pytest.raises(ServiceError) as err:
            PlacementClient.result_score(snapshot)
        assert err.value.status == 409


class TestWireEncoding:
    def test_request_dict_is_what_travels(self, server, client):
        """The HTTP path accepts exactly request_to_dict's rendering."""
        payload = {"request": request_to_dict(_search())}
        req = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            assert resp.status == 201
            body = json.loads(resp.read())
        assert body["state"] in ("pending", "running", "done")
        client.wait(body["id"], timeout=30.0)
