"""Stdlib-only HTTP API over :class:`~repro.service.workers.DetectionService`.

``repro serve`` binds a :class:`ServiceServer` (a
``http.server.ThreadingHTTPServer``, one thread per request, so ``/healthz``
and ``/metrics`` answer while detection jobs are in flight) exposing:

=======  =======================  ==========================================
method   path                     semantics
=======  =======================  ==========================================
POST     ``/graph``               submit a full detection job; body is JSON
                                  ``{"edges": [[u, v], [u, v, w], ...]}``
                                  (plus optional ``num_vertices`` and job /
                                  detect options) or a plain-text edge list;
                                  202 with ``{"job_id": ...}``
POST     ``/edges``               submit an edge-batch warm-start update;
                                  JSON ``{"add": [[u, v(, w)], ...],
                                  "remove": [[u, v], ...]}``; 202
GET      ``/jobs/<id>``           job status / result / error; with
                                  ``?wait=<seconds>`` the request long-polls:
                                  it blocks on the queue's terminal condition
                                  variable until the job reaches a terminal
                                  state or the wait expires (capped at
                                  ``MAX_LONGPOLL_WAIT``), then returns the
                                  job either way
DELETE   ``/jobs/<id>``           cancel (pending or running)
GET      ``/membership``          community assignment; ``?vertex=`` for one
                                  vertex, ``?version=`` for point-in-time
GET      ``/versions``            retained snapshot metadata
GET      ``/diff?from=A&to=B``    community churn between two versions
GET      ``/healthz``             liveness + queue/worker/store gauges
GET      ``/metrics``             Prometheus text (job counters + gauges,
                                  ``service_boot_seconds`` +
                                  per-endpoint request-duration histograms)
POST     ``/shutdown``            drain and stop the server
=======  =======================  ==========================================

Backpressure: when the job queue is full, POSTs return **503** with a
``Retry-After`` header instead of blocking the request thread or silently
dropping the job -- the submitter decides whether to retry.

Size limits: a ``Content-Length`` above ``MAX_BODY_BYTES`` answers **413**
(and closes the connection) before the body is read; a graph (JSON or plain
text) or edge batch naming more than ``MAX_GRAPH_VERTICES`` vertices, or a
job asking for more than ``MAX_JOB_RANKS`` ranks, answers **400** before
anything is allocated.  All of these count in
``service_requests_rejected_too_large``.  Every other malformed body
(including ``num_ranks`` below 1) answers 400.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..observability.exporters import (
    LatencyHistogram,
    prometheus_gauges,
    prometheus_histograms,
)
from .jobs import QueueClosedError, QueueFullError
from .workers import DetectionService

__all__ = [
    "ServiceServer", "run_server", "MAX_LONGPOLL_WAIT", "MAX_BODY_BYTES",
    "MAX_GRAPH_VERTICES", "MAX_JOB_RANKS",
]

#: Upper bound on ``GET /jobs/<id>?wait=`` -- each long-poll parks one
#: request thread, so waits are bounded and clients re-issue to keep waiting.
MAX_LONGPOLL_WAIT = 30.0

#: Largest request body read (64 MiB); a larger ``Content-Length`` gets 413.
MAX_BODY_BYTES = 64 * 2**20

#: Largest vertex count a graph body or edge batch may name (2^22).
MAX_GRAPH_VERTICES = 2**22

#: Most simulated ranks a job may ask for; each is a rank state in a worker.
MAX_JOB_RANKS = 256

#: Malformed JSON values: int("x"), int([]), int(float("inf")), ...
_VALUE_ERRORS = (TypeError, ValueError, OverflowError)


class _BadRequest(ValueError):
    """Client error -> ``status`` (400) with the message in the JSON body."""

    status = 400


class _TooLarge(_BadRequest):
    """A request over a size limit (counted in /metrics)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _json_doc(body: bytes):
    try:
        return json.loads(body or b"{}")
    except (ValueError, RecursionError) as exc:  # incl. undecodable bytes
        raise _BadRequest(f"invalid JSON body: {exc}") from exc


def _number(doc: dict, key: str, kind=int):
    try:
        return kind(doc[key])
    except _VALUE_ERRORS as exc:
        raise _BadRequest(f"{key}: {exc}") from None


def _num_ranks(doc: dict) -> int:
    num_ranks = _number(doc, "num_ranks")
    if num_ranks < 1:
        raise _BadRequest("num_ranks must be at least 1")
    if num_ranks > MAX_JOB_RANKS:
        raise _TooLarge(f"num_ranks {num_ranks} exceeds {MAX_JOB_RANKS}")
    return num_ranks


def _parse_edge_rows(rows, what: str):
    """``[[u, v], [u, v, w], ...]`` -> (src, dst, weight|None) arrays."""
    if not isinstance(rows, list):
        raise _BadRequest(f"{what}: expected an array of edges, got {rows!r}")
    src, dst, wt = [], [], []
    weighted = False
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) not in (2, 3):
            raise _BadRequest(
                f"{what}[{i}]: expected [u, v] or [u, v, w], got {row!r}"
            )
        try:
            src.append(int(row[0]))
            dst.append(int(row[1]))
            if len(row) == 3:
                weighted = True
                wt.append(float(row[2]))
            else:
                wt.append(1.0)
        except _VALUE_ERRORS as exc:
            raise _BadRequest(f"{what}[{i}]: {exc}") from None
    try:
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
    except OverflowError:  # an id past the int64 range
        raise _TooLarge(f"{what}: vertex id out of range") from None
    if src_arr.size:
        if min(src_arr.min(), dst_arr.min()) < 0:
            raise _BadRequest(f"{what}: vertex ids must be non-negative")
        if max(src_arr.max(), dst_arr.max()) >= MAX_GRAPH_VERTICES:
            raise _TooLarge(
                f"{what}: vertex id above {MAX_GRAPH_VERTICES - 1}"
            )
    return (
        src_arr,
        dst_arr,
        np.asarray(wt, dtype=np.float64) if weighted else None,
    )


def _graph_from_body(body: bytes, content_type: str):
    from ..graph import Graph

    num_vertices = None
    if "json" in content_type:
        doc = _json_doc(body)
        if not isinstance(doc, dict) or "edges" not in doc:
            raise _BadRequest('JSON graph body needs an "edges" array')
        rows = doc["edges"]
        if doc.get("num_vertices") is not None:
            num_vertices = _number(doc, "num_vertices")
            if num_vertices < 0:
                raise _BadRequest("num_vertices must be non-negative")
            if num_vertices > MAX_GRAPH_VERTICES:
                raise _TooLarge(
                    f"num_vertices {num_vertices} exceeds {MAX_GRAPH_VERTICES}"
                )
    else:
        # The plain-text edge-list format `repro detect` reads: `src dst
        # [weight]` lines, `#` comments.  Its rows pass the same id checks.
        try:
            lines = body.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise _BadRequest(f"cannot parse edge-list body: {exc}") from exc
        rows = [ln.split() for ln in lines
                if ln.strip() and not ln.lstrip().startswith("#")]
        doc = {}
    src, dst, wt = _parse_edge_rows(rows, "edges")
    try:
        graph = Graph.from_edges(src, dst, wt, num_vertices=num_vertices)
    except ValueError as exc:
        raise _BadRequest(str(exc)) from exc
    return graph, doc


def _batch_from_body(body: bytes):
    from ..parallel import EdgeBatch

    doc = _json_doc(body)
    if not isinstance(doc, dict) or ("add" not in doc and "remove" not in doc):
        raise _BadRequest('edge-batch body needs "add" and/or "remove" arrays')
    add_src, add_dst, add_wt = _parse_edge_rows(doc.get("add", []), "add")
    rem_src, rem_dst, _ = _parse_edge_rows(doc.get("remove", []), "remove")
    try:
        batch = EdgeBatch(
            add_src=add_src, add_dst=add_dst,
            add_weight=add_wt if add_wt is not None else np.ones(add_src.size),
            remove_src=rem_src, remove_dst=rem_dst,
        )
    except ValueError as exc:
        raise _BadRequest(str(exc)) from exc
    return batch, doc


def _job_options(doc: dict) -> dict:
    """Extract queue-level knobs (priority/timeout/retries) from a body."""
    opts = {}
    if "priority" in doc:
        opts["priority"] = _number(doc, "priority")
    if "timeout_s" in doc:
        opts["timeout"] = _number(doc, "timeout_s", float)
        if not 0 < opts["timeout"] < math.inf:
            raise _BadRequest("timeout_s must be a positive finite number")
    if "max_retries" in doc:
        opts["max_retries"] = _number(doc, "max_retries")
        if opts["max_retries"] < 0:
            raise _BadRequest("max_retries must be non-negative")
    return opts


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceServer"  # set by ThreadingHTTPServer machinery
    protocol_version = "HTTP/1.1"
    # A response is two writes (head, then body).  With Nagle on, the body
    # waits for the ACK of the head, which a keep-alive client delays by
    # ~40 ms; TCP_NODELAY sends both at once.
    disable_nagle_algorithm = True

    # ---------------------------------------------------------------- #
    # Plumbing
    # ---------------------------------------------------------------- #

    @property
    def service(self) -> DetectionService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTPRequestHandler API
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _send(self, status: int, payload, *, headers: dict | None = None) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; charset=utf-8"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            ctype = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            if length < 0:
                raise _BadRequest(f"invalid Content-Length: {raw!r}")
            raise _TooLarge(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}",
                status=413,
            )
        return self.rfile.read(length) if length else b""

    def _query(self) -> dict[str, str]:
        qs = parse_qs(urlparse(self.path).query)
        return {k: v[-1] for k, v in qs.items()}

    @property
    def _route(self) -> str:
        return urlparse(self.path).path.rstrip("/") or "/"

    @property
    def _endpoint(self) -> str:
        """Normalized route for the duration histograms (ids collapsed)."""
        route = self._route
        if route.startswith("/jobs/"):
            route = "/jobs/:id"
        return route

    # ---------------------------------------------------------------- #
    # Dispatch
    # ---------------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        t0 = time.perf_counter()
        try:
            self._dispatch_get()
        except _BadRequest as exc:
            self._send(400, {"error": str(exc)})
        except KeyError as exc:
            self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self.server.observe_request("GET", self._endpoint,
                                        time.perf_counter() - t0)

    def do_POST(self) -> None:  # noqa: N802
        t0 = time.perf_counter()
        try:
            self._dispatch_post()
        except _BadRequest as exc:
            if isinstance(exc, _TooLarge):
                self.service.tracer.add_counter(
                    "service_requests_rejected_too_large", 1
                )
            self._send(exc.status, {"error": str(exc)})
        except QueueFullError as exc:
            self.service.tracer.add_counter("service_jobs_rejected", 1)
            self._send(503, {"error": str(exc)}, headers={"Retry-After": "1"})
        except QueueClosedError as exc:
            self._send(503, {"error": str(exc)})
        except KeyError as exc:
            self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self.server.observe_request("POST", self._endpoint,
                                        time.perf_counter() - t0)

    def do_DELETE(self) -> None:  # noqa: N802
        t0 = time.perf_counter()
        try:
            route = self._route
            if route.startswith("/jobs/"):
                job_id = route[len("/jobs/"):]
                effective = self.service.cancel(job_id)
                job = self.service.job(job_id)
                self._send(200, {"job_id": job_id, "cancelled": effective,
                                 "state": job.state})
                return
            self._send(404, {"error": f"no route DELETE {route}"})
        except KeyError as exc:
            self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
        finally:
            self.server.observe_request("DELETE", self._endpoint,
                                        time.perf_counter() - t0)

    # ---------------------------------------------------------------- #
    # GET routes
    # ---------------------------------------------------------------- #

    def _dispatch_get(self) -> None:
        route = self._route
        if route == "/healthz":
            self._send(200, self.service.health())
        elif route == "/metrics":
            self._send(
                200,
                self.service.metrics_text() + self.server.metrics_text(),
            )
        elif route == "/versions":
            self._send(200, {"versions": self.service.store.versions()})
        elif route == "/membership":
            self._get_membership()
        elif route == "/diff":
            self._get_diff()
        elif route.startswith("/jobs/"):
            self._get_job(route[len("/jobs/"):])
        else:
            self._send(404, {"error": f"no route GET {route}"})

    def _get_job(self, job_id: str) -> None:
        q = self._query()
        if "wait" in q:
            try:
                wait = float(q["wait"])
            except ValueError:
                raise _BadRequest(f"wait must be a number, got {q['wait']!r}") from None
            if wait < 0:
                raise _BadRequest("wait must be >= 0")
            job = self.service.queue.wait_terminal(
                job_id, min(wait, MAX_LONGPOLL_WAIT)
            )
        else:
            job = self.service.job(job_id)
        self._send(200, job.as_dict())

    def _get_membership(self) -> None:
        q = self._query()
        version = int(q["version"]) if "version" in q else None
        snap = self.service.snapshot(version)
        if "vertex" in q:
            vertex = int(q["vertex"])
            community = self.service.membership(vertex, version)
            self._send(200, {
                "version": snap.version, "vertex": vertex,
                "community": community, "modularity": snap.modularity,
            })
        else:
            self._send(200, {
                "version": snap.version,
                "modularity": snap.modularity,
                "num_communities": snap.num_communities,
                "membership": snap.membership.tolist(),
            })

    def _get_diff(self) -> None:
        q = self._query()
        if "from" not in q or "to" not in q:
            raise _BadRequest("diff needs ?from=VERSION&to=VERSION")
        diff = self.service.diff(int(q["from"]), int(q["to"]))
        payload = diff.meta()
        payload["moved_vertices"] = diff.moved_vertices.tolist()
        payload["added_vertices"] = diff.added_vertices.tolist()
        self._send(200, payload)

    # ---------------------------------------------------------------- #
    # POST routes
    # ---------------------------------------------------------------- #

    def _dispatch_post(self) -> None:
        route = self._route
        if route == "/graph":
            graph, doc = _graph_from_body(
                self._body(), self.headers.get("Content-Type", "application/json")
            )
            detect_opts = {}
            if "algorithm" in doc:
                detect_opts["algorithm"] = doc["algorithm"]
            if "num_ranks" in doc:
                detect_opts["num_ranks"] = _num_ranks(doc)
            if "seed" in doc:
                detect_opts["seed"] = _number(doc, "seed")
            job = self.service.submit_graph(
                graph, **_job_options(doc), **detect_opts
            )
            self._send(202, {"job_id": job.job_id, "state": job.state,
                             "num_vertices": graph.num_vertices,
                             "num_edges": graph.num_edges})
        elif route == "/edges":
            batch, doc = _batch_from_body(self._body())
            update_opts = {}
            if "num_ranks" in doc:
                update_opts["num_ranks"] = _num_ranks(doc)
            base = doc.get("base_version")
            job = self.service.submit_edge_batch(
                batch,
                base_version=None if base is None else _number(doc, "base_version"),
                **_job_options(doc), **update_opts,
            )
            self._send(202, {"job_id": job.job_id, "state": job.state,
                             "num_additions": batch.num_additions,
                             "num_removals": batch.num_removals})
        elif route == "/shutdown":
            self._send(202, {"status": "shutting down"})
            threading.Thread(
                target=self.server.stop, daemon=True  # type: ignore[attr-defined]
            ).start()
        else:
            self._send(404, {"error": f"no route POST {route}"})


class ServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`DetectionService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports the
    actual one.  :meth:`serve_background` runs the accept loop in a daemon
    thread; :meth:`stop` shuts the loop down and closes the service.

    :attr:`boot_seconds` is the time from ``started`` (a
    ``time.perf_counter()`` reading; ``python -m repro`` passes its entry
    time, the default is this constructor's entry) to the listening socket.
    """

    daemon_threads = True

    def __init__(
        self,
        service: DetectionService,
        host: str = "127.0.0.1",
        port: int = 8737,
        *,
        verbose: bool = False,
        started: float | None = None,
    ) -> None:
        if started is None:
            started = time.perf_counter()
        self.service = service
        self.verbose = verbose
        self._stopped = threading.Event()
        #: Per-(method, endpoint) request-duration histograms for /metrics.
        self._request_stats: dict[str, LatencyHistogram] = {}
        self._request_stats_lock = threading.Lock()
        super().__init__((host, port), _Handler)
        self.boot_seconds = time.perf_counter() - started

    def observe_request(self, method: str, endpoint: str, seconds: float) -> None:
        """Record one request's duration into the per-endpoint histograms."""
        key = f"{method} {endpoint}"
        hist = self._request_stats.get(key)
        if hist is None:
            with self._request_stats_lock:
                hist = self._request_stats.setdefault(key, LatencyHistogram())
        hist.observe(seconds)

    def metrics_text(self) -> str:
        """Prometheus text: the boot gauge and the request-duration histograms."""
        with self._request_stats_lock:
            stats = dict(self._request_stats)
        boot = prometheus_gauges(
            {"service_boot_seconds": self.boot_seconds},
            help_text={
                "service_boot_seconds": "Seconds from process entry to the "
                "listening socket",
            },
        )
        return boot + prometheus_histograms(
            stats,
            name="service_request_duration_seconds",
            label="endpoint",
            help_text="HTTP request duration by method and endpoint",
        )

    @property
    def address(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop accepting requests, then close the service (idempotent)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        # Before the listener closes: a client that sees the port die must
        # not still read "ok" from health().
        self.service.mark_shutting_down()
        self.shutdown()
        self.server_close()
        self.service.close()


def run_server(server: ServiceServer) -> None:
    """Foreground accept loop with clean Ctrl-C shutdown (the CLI path)."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
