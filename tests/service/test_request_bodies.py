"""Hostile request bodies: client errors answer 4xx, never 5xx, and the
request-size, graph-size and rank-count limits reject before anything large
is read or allocated."""

import http.client
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import DetectionService, ServiceServer
from repro.service import server as server_mod


def _post(srv, path, body, content_type="application/json"):
    """POST ``body`` (raw bytes or JSON-encodable) -> (status, headers, doc)."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    host, port = srv.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("POST", path, body=data,
                     headers={"Content-Type": content_type})
        resp = conn.getresponse()
        doc = json.loads(resp.read())
    finally:
        conn.close()
    return resp.status, resp, doc


def _metrics(srv):
    host, port = srv.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        return conn.getresponse().read().decode()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    """A server whose jobs finish instantly: these tests exercise parsing."""
    svc = DetectionService(
        num_workers=1, queue_capacity=10_000, runner=lambda job, ctx: {}
    )
    srv = ServiceServer(svc, port=0)
    srv.serve_background()
    yield srv
    srv.stop()


@pytest.mark.parametrize("path, body", [
    ("/graph", {"edges": [["a", 1]]}),
    ("/graph", {"edges": [[0, 1, "w"]]}),
    ("/graph", {"edges": [[-1, 5]]}),
    ("/graph", {"edges": [[0, 5]], "num_vertices": 2}),
    ("/graph", {"edges": [[0, 1]], "num_vertices": "x"}),
    ("/graph", {"edges": [[0, 1]], "num_vertices": -3}),
    ("/edges", {"add": [["x", 1]]}),
    ("/graph", {"edges": 5}),
    ("/graph", {"edges": [[0, 1]], "priority": "high"}),
    ("/edges", {"add": [[0, 1]], "base_version": [1]}),
    ("/graph", {"edges": [], "timeout_s": False}),
    ("/graph", {"edges": [[0, 1]], "timeout_s": -1.5}),
    ("/edges", {"add": [[0, 1]], "timeout_s": float("nan")}),
    ("/edges", {"add": [[0, 1]], "timeout_s": float("inf")}),
    ("/graph", {"edges": [[0, 1]], "max_retries": -1}),
    ("/graph", b"\x80 not utf-8"),
])
def test_malformed_bodies_answer_400(server, path, body):
    status, _, doc = _post(server, path, body)
    assert status == 400, doc
    assert doc["error"]


class TestSizeLimits:
    def test_oversized_content_length_413_before_reading(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            # Announce a body past the limit but send none: the server must
            # answer without waiting to read it.
            conn.putrequest("POST", "/graph")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(server_mod.MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 413
        assert "exceeds" in doc["error"]
        assert resp.getheader("Connection") == "close"
        assert "repro_service_requests_rejected_too_large" in _metrics(server)

    def test_num_vertices_limit(self, server, monkeypatch):
        monkeypatch.setattr(server_mod, "MAX_GRAPH_VERTICES", 100)
        ok, _, doc = _post(server, "/graph", {"edges": [[0, 1]], "num_vertices": 100})
        assert ok == 202 and doc["num_vertices"] == 100
        status, _, doc = _post(
            server, "/graph", {"edges": [[0, 1]], "num_vertices": 101}
        )
        assert status == 400 and "exceeds 100" in doc["error"]

    @pytest.mark.parametrize("path, body", [
        ("/graph", {"edges": [[0, 100]]}),
        ("/edges", {"add": [[100, 0]]}),
        ("/edges", {"remove": [[0, 10**30]]}),
    ])
    def test_vertex_ids_past_the_limit(self, server, monkeypatch, path, body):
        monkeypatch.setattr(server_mod, "MAX_GRAPH_VERTICES", 100)
        status, _, doc = _post(server, path, body)
        assert status == 400 and "vertex id" in doc["error"]

    @pytest.mark.parametrize("body", [
        b"0 100\n",
        b"# comment\n0 1\n\n1 2 0.5\n2 5000\n",
        b"7 0 2.0\n0 99999999999999999999999\n",
    ], ids=["one-edge", "after-comments", "past-int64"])
    def test_text_body_ids_past_the_limit(self, server, monkeypatch, body):
        monkeypatch.setattr(server_mod, "MAX_GRAPH_VERTICES", 100)
        ok, _, doc = _post(
            server, "/graph", b"# c\n0 1\n1 99 2.5\n", content_type="text/plain"
        )
        assert ok == 202 and doc["num_vertices"] == 100 and doc["num_edges"] == 2
        status, _, doc = _post(server, "/graph", body, content_type="text/plain")
        assert status == 400 and "vertex id" in doc["error"]

    @pytest.mark.parametrize("path, body, status", [
        ("/graph", {"edges": [[0, 1]], "num_ranks": 8, "seed": "3"}, 202),
        ("/graph", {"edges": [[0, 1]], "num_ranks": 1}, 202),
        ("/edges", {"add": [[0, 1]], "num_ranks": 8}, 202),
        ("/graph", {"edges": [[0, 1]], "num_ranks": 0}, 400),
        ("/graph", {"edges": [[0, 1]], "num_ranks": 9}, 400),
        ("/graph", {"edges": [[0, 1]], "num_ranks": 10**9}, 400),
        ("/graph", {"edges": [[0, 1]], "num_ranks": "many"}, 400),
        ("/graph", {"edges": [[0, 1]], "seed": [1]}, 400),
        ("/edges", {"add": [[0, 1]], "num_ranks": -1}, 400),
        ("/edges", {"add": [[0, 1]], "num_ranks": 9}, 400),
    ])
    def test_job_option_bounds(self, server, monkeypatch, path, body, status):
        monkeypatch.setattr(server_mod, "MAX_JOB_RANKS", 8)
        got, _, doc = _post(server, path, body)
        assert got == status, doc

    def test_rejections_are_counted(self, server, monkeypatch):
        monkeypatch.setattr(server_mod, "MAX_GRAPH_VERTICES", 10)
        monkeypatch.setattr(server_mod, "MAX_JOB_RANKS", 8)

        def count():
            for line in _metrics(server).splitlines():
                if line.startswith("repro_service_requests_rejected_too_large "):
                    return float(line.split()[1])
            return 0.0

        before = count()
        _post(server, "/graph", {"edges": [], "num_vertices": 11})
        _post(server, "/edges", {"add": [[0, 10]]})
        _post(server, "/graph", b"0 10\n", content_type="text/plain")
        _post(server, "/graph", {"edges": [[0, 1]], "num_ranks": 9})
        _post(server, "/graph", {"edges": [[0, "x"]]})  # malformed, not large
        _post(server, "/graph", {"edges": [[0, 1]], "num_ranks": 0})  # ditto
        assert count() == before + 4


_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_rows = st.lists(
    st.lists(st.integers(-2, 12) | _scalars, max_size=4), max_size=5
)
_keys = st.sampled_from([
    "edges", "num_vertices", "add", "remove", "priority", "timeout_s",
    "max_retries", "num_ranks", "base_version", "algorithm", "seed",
])
_bodies = _json | st.dictionaries(_keys, _rows | _json, max_size=5)


@given(body=_bodies)
@settings(max_examples=150, deadline=None)
def test_arbitrary_json_bodies_never_5xx(server, body):
    with pytest.MonkeyPatch.context() as mp:
        # Keep every accepted graph tiny.
        mp.setattr(server_mod, "MAX_GRAPH_VERTICES", 16)
        for path in ("/graph", "/edges"):
            status, _, doc = _post(server, path, body)
            assert status < 500, (path, body, doc)
