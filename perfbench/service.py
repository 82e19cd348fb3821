"""The ``service-rw`` workload: ``repro serve`` under a read/write HTTP mix.

Set-up boots a ``repro serve`` subprocess (2 worker threads, 2 simulated
ranks, default hash backend) and times boot plus the first detect job; it
does so several times and keeps the last server.  Two closed-loop clients
then repeat, until ``--seconds`` is spent:

1. ``POST /graph`` with a planted-partition graph from a seeded pool, then
   long-poll ``GET /jobs/<id>?wait=`` until the job ends;
2. ``POST /edges`` with a seeded add/remove batch against that job's
   snapshot (a warm-start ``incremental_louvain``), then long-poll;
3. a few ``GET /membership?vertex=`` reads.

The client is ``http.client`` (stdlib) so the instrument does not change
when ``repro.loadgen`` does.  Checks, each failure counted into ``failed``:
every request answers 2xx (a 503 counts as failed and as rejected), every
job ends ``done``, the Q each job reports equals ``repro.metrics``
recomputed on the snapshot's membership (``GET /membership?version=``), a
graph body or an update gets the same Q every time it repeats, and the
pool's fingerprints match the ones recorded for the seed.
"""

from __future__ import annotations

import contextlib
import glob
import http.client
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from common import (
    OUT_DIR,
    ROOT,
    Outcome,
    fingerprint,
    median,
    parallel_layers,
    peak_rss_mb,
    percentile,
    recorded_fingerprints,
)

SIZES = {
    "full": {
        "pool": 4, "communities": 20, "community_size": 50, "p_in": 0.2,
        "p_out": 0.005, "add": 50, "remove": 10, "reads": 5, "boots": 3,
    },
    "tiny": {
        "pool": 2, "communities": 4, "community_size": 25, "p_in": 0.3,
        "p_out": 0.02, "add": 10, "remove": 2, "reads": 2, "boots": 1,
    },
}
CLIENTS = 2
PROBE = {"communities": 4, "community_size": 10, "p_in": 0.5, "p_out": 0.05}
TERMINAL = ("done", "failed", "cancelled")


def _planted(size: dict, seed: int):
    from repro.graph.builders import planted_partition

    graph, _ = planted_partition(
        size["communities"], size["community_size"], size["p_in"], size["p_out"],
        seed=seed,
    )
    return graph


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, tag: str, trace_dir: str | None) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--workers", "2", "--ranks", "2", "--seed", "0",
        ]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir, "--trace-segment-bytes", str(1 << 30)]
        else:
            cmd.append("--no-trace")
        self.log = open(os.path.join(OUT_DIR, f"server-{tag}.log"), "w")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True, cwd=ROOT, env=env,
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(line) for line in self.proc.stdout], daemon=True
        )
        self._reader.start()
        deadline = time.monotonic() + 60.0
        self.address = None
        while self.address is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("repro serve did not start within 60 s") from None
            found = re.search(r"serving on http://([\d.]+):(\d+)", line)
            if found:
                self.address = (found.group(1), int(found.group(2)))

    def stop(self) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        if self.proc.poll() is None and self.address is not None:
            try:
                Client(self.address).request("POST", "/shutdown", b"")
            except OSError:
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self.log.close()


class Client:
    """Keep-alive HTTP/1.1 client for one closed-loop user."""

    def __init__(self, address) -> None:
        self.address = address
        self.conn = http.client.HTTPConnection(*address, timeout=60)

    def request(self, method: str, path: str, body: bytes | None = None):
        """Returns ``(status, decoded JSON or None, seconds)``."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        t0 = time.perf_counter()
        for attempt in (0, 1):
            try:
                self.conn.request(method, path, body=body, headers=headers)
                resp = self.conn.getresponse()
                raw = resp.read()
                break
            except (http.client.HTTPException, ConnectionError):
                self.conn.close()
                self.conn = http.client.HTTPConnection(*self.address, timeout=60)
                if attempt:
                    raise
        seconds = time.perf_counter() - t0
        try:
            doc = json.loads(raw) if raw else None
        except ValueError:
            doc = None
        return resp.status, doc, seconds

    def close(self) -> None:
        self.conn.close()


class Pool:
    """The seeded request bodies: graphs, their edge batches, the results."""

    def __init__(self, size: dict, seed: int) -> None:
        from repro.parallel import EdgeBatch
        from repro.parallel.dynamic import apply_edge_batch

        self.gen_times = []
        self.graphs, self.bodies, self.batch_bodies, self.updated = [], [], [], []
        rng = np.random.default_rng(seed)
        for i in range(size["pool"]):
            t0 = time.perf_counter()
            graph = _planted(size, seed * 1000 + i)
            self.gen_times.append(time.perf_counter() - t0)
            src, dst, _ = graph.edge_arrays()
            self.graphs.append(graph)
            self.bodies.append(json.dumps({
                "edges": np.stack([src, dst], axis=1).tolist(),
                "num_vertices": graph.num_vertices,
            }).encode())
            add = rng.integers(0, graph.num_vertices, size=(size["add"], 2))
            add = add[add[:, 0] != add[:, 1]]
            rem = rng.choice(src.size, size=size["remove"], replace=False)
            self.batch_bodies.append({
                "add": add.tolist(),
                "remove": np.stack([src[rem], dst[rem]], axis=1).tolist(),
            })
            batch = EdgeBatch(
                add_src=add[:, 0], add_dst=add[:, 1], add_weight=np.ones(len(add)),
                remove_src=src[rem], remove_dst=dst[rem],
            )
            self.updated.append(apply_edge_batch(graph, batch))


class _Run:
    """Shared state of one measurement: results and checks."""

    def __init__(self, size: dict, pool: Pool, out: Outcome, rec, trace: bool,
                 sabotage: bool) -> None:
        self.out = out
        self.rec = rec
        self.trace = trace
        self.sabotage = sabotage
        self.lock = threading.Lock()
        self.size = size
        self.pool = pool
        self.q_seen: dict[tuple, float] = {}
        self.latency = defaultdict(list)  # detect / update / read seconds
        self.jobs: list[dict] = []
        self.job_traces: dict[str, str] = {}  # job id -> POST span id
        self.rejected = 0
        self.check_s = 0.0
        self.clock_offset = time.time() - time.perf_counter()

    # -- one request / one job ------------------------------------------ #

    def call(self, client: Client, method: str, path: str, body=None, *, what=None):
        endpoint = path.split("?", 1)[0]
        endpoint = "/jobs/:id" if endpoint.startswith("/jobs/") else endpoint
        with self.lock:
            self.out.attempted += 1
        span = (
            self.rec.span(f"service.client.{method} {endpoint}", root=True)
            if self.trace else contextlib.nullcontext()
        )
        with span as sid:
            try:
                status, doc, seconds = client.request(method, path, body)
            except OSError as exc:
                with self.lock:
                    self.out.fail(f"{method} {path}: {type(exc).__name__}: {exc}")
                return None, None, sid
        if not 200 <= status < 300:
            with self.lock:
                self.rejected += status == 503
                self.out.fail(f"{method} {endpoint} answered {status}: {doc}")
            return None, None, sid
        if what is not None:
            with self.lock:
                self.latency[what].append(seconds)
        return doc, seconds, sid

    def job(self, client: Client, path: str, body: bytes, kind: str):
        """Submit, long-poll to a terminal state; returns the final record."""
        t0 = time.perf_counter()
        doc, _, sid = self.call(client, "POST", path, body)
        if doc is None:
            return None
        job_id = doc["job_id"]
        while True:
            rec, _, _ = self.call(client, "GET", f"/jobs/{job_id}?wait=30")
            if rec is None:
                return None
            if rec["state"] in TERMINAL:
                break
        elapsed = time.perf_counter() - t0
        with self.lock:
            self.jobs.append(rec)
            self.job_traces[job_id] = sid
            if rec["state"] != "done":
                self.out.fail(f"{kind} job {job_id} ended {rec['state']}: {rec['error']}")
                return None
            self.latency[kind].append(elapsed)
        return rec

    def check_q(self, client: Client, key: tuple, rec: dict, graph) -> None:
        """Reported Q == recomputed Q, and == the Q of every repeat."""
        from repro.metrics import modularity_from_labels

        t0 = time.perf_counter()
        q = float(rec["result"]["modularity"])
        version = rec["result"]["version"]
        snap, _, _ = self.call(client, "GET", f"/membership?version={version}")
        if snap is not None:
            labels = np.asarray(snap["membership"], dtype=np.int64)
            recomputed = modularity_from_labels(graph, labels)
            if abs(recomputed - q) > 1e-9:
                with self.lock:
                    self.out.fail(f"{key}: job reported Q {q!r}, membership has {recomputed!r}")
        with self.lock:
            first = self.q_seen.setdefault(key, q)
            if first != q:
                self.out.fail(f"{key}: Q {q!r} differs from the first run's {first!r}")
            self.check_s += time.perf_counter() - t0

    def cycle(self, client: Client, client_id: int, step: int) -> None:
        idx = (step * CLIENTS + client_id) % len(self.pool.graphs)
        rec = self.job(client, "/graph", self.pool.bodies[idx], "detect")
        if rec is None:
            return
        self.check_q(client, ("graph", idx), rec, self.pool.graphs[idx])
        base = rec["result"]["version"]
        if self.sabotage and client_id == 0 and step == 0:
            base = 10**9  # a snapshot that never existed: the job must fail
        body = json.dumps(dict(self.pool.batch_bodies[idx], base_version=base)).encode()
        upd = self.job(client, "/edges", body, "update")
        if upd is not None:
            self.check_q(client, ("update", idx), upd, self.pool.updated[idx])
        n = self.pool.graphs[idx].num_vertices
        for r in range(self.size["reads"]):
            vertex = (step * 7919 + r * 104729 + client_id) % n
            doc, _, _ = self.call(
                client, "GET", f"/membership?vertex={vertex}", what="read"
            )
            if doc is not None and not isinstance(doc.get("community"), int):
                with self.lock:
                    self.out.fail(f"read of vertex {vertex} returned {doc}")


def _boot(tag: str, trace_dir, run: _Run):
    """Start a server and wait for its first detect job: the set-up time."""
    t0 = time.perf_counter()
    server = Server(tag, trace_dir)
    client = Client(server.address)
    try:
        rec = run.job(client, "/graph", run.pool.bodies[0], "setup")
        if rec is not None:
            run.check_q(client, ("graph", 0), rec, run.pool.graphs[0])
    finally:
        client.close()
    return server, time.perf_counter() - t0


def _metrics_text(address) -> str:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", "/metrics")
        return conn.getresponse().read().decode()
    finally:
        conn.close()


def _prom(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def _trace_events(trace_dir: str):
    for path in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, path)) as fh:
            for line in fh:
                yield json.loads(line)


def run(*, seed, seconds, trace, size_name, sabotage, rec) -> Outcome:
    out = Outcome()
    size = SIZES[size_name]
    recorded, probes = recorded_fingerprints("service-rw", seed)
    out.attempted += 1
    probe = _planted(PROBE, 0)
    if fingerprint(probe) != probes["service-rw"]:
        out.fail("planted_partition's probe graph changed")
    pool = Pool(size, seed)
    state = _Run(size, pool, out, rec, trace, sabotage)
    if size_name == "full" and recorded is not None:
        for i, graph in enumerate(pool.graphs + pool.updated):
            out.attempted += 1
            if fingerprint(graph) != recorded[i]:
                out.fail(f"pool graph {i}: fingerprint {fingerprint(graph)} != {recorded[i]}")
    elif size_name == "full":
        out.notes.append(f"no fingerprints recorded for seed {seed}; probe checked")

    trace_dir = None
    if trace:
        # Keep only this run's server trace on disk.
        for old in glob.glob(os.path.join(OUT_DIR, "service-trace-*")):
            shutil.rmtree(old, ignore_errors=True)
        trace_dir = os.path.join(OUT_DIR, f"service-trace-{os.getpid()}")
    setup_times, server = [], None
    for boot in range(size["boots"]):
        if server is not None:
            server.stop()
        last = boot == size["boots"] - 1
        server, took = _boot(str(boot), trace_dir if last else None, state)
        setup_times.append(took)
    state.latency.clear()
    state.jobs.clear()

    try:
        deadline = time.perf_counter() + seconds
        started = time.perf_counter()

        def user(client_id: int) -> None:
            client = Client(server.address)
            try:
                step = 0
                while time.perf_counter() < deadline:
                    state.cycle(client, client_id, step)
                    step += 1
            except Exception as exc:  # noqa: BLE001 - counted, never lost
                with state.lock:
                    out.fail(f"client {client_id}: {type(exc).__name__}: {exc}")
            finally:
                client.close()

        users = [threading.Thread(target=user, args=(i,)) for i in range(CLIENTS)]
        for t in users:
            t.start()
        for t in users:
            t.join()
        wall = time.perf_counter() - started
        prom = _prom(_metrics_text(server.address))
    finally:
        server.stop()

    lat = state.latency
    done = len(lat["detect"]) + len(lat["update"])
    m = out.metrics
    if not trace:
        m.update({
            "setup_s": median(setup_times),
            "detect_s": median(lat["detect"]),
            "jobs_per_s": done / wall if wall else 0.0,
            "modularity": median(j["result"]["modularity"] for j in state.jobs
                                 if j["kind"] == "detect" and j["state"] == "done"),
            "peak_rss_mb": peak_rss_mb(),
        })
        return out

    # ---- per-layer metrics of the traced run -------------------------- #
    m["update_job_p50_s"] = median(lat["update"])
    m["job_p90_s"] = percentile(lat["detect"] + lat["update"], 90)
    m["read_p50_ms"] = median(lat["read"]) * 1e3
    m["read_p95_ms"] = percentile(lat["read"], 95) * 1e3
    by_kind = defaultdict(lambda: defaultdict(list))
    for job in state.jobs:
        if job["started_at"] is None or job["finished_at"] is None:
            continue
        wait = job["started_at"] - job["created_at"]
        busy = job["finished_at"] - job["started_at"]
        by_kind[job["kind"]]["wait"].append(wait)
        by_kind[job["kind"]]["run"].append(busy)
        # The job's spans hang off the POST that created it (a root span,
        # so its id is also the trace id), on the client's clock.
        post = state.job_traces.get(job["job_id"])
        off = state.clock_offset
        if post is not None:
            rec.add_span("service.jobs.queue_wait", job["created_at"] - off,
                         job["started_at"] - off, trace=post, parent=post)
            rec.add_span(f"service.jobs.run:{job['kind']}", job["started_at"] - off,
                         job["finished_at"] - off, trace=post, parent=post)
    for kind in ("detect", "update"):
        m[f"service.jobs.queue_wait_s.{kind}"] = median(by_kind[kind]["wait"])
        m[f"service.jobs.run_s.{kind}"] = median(by_kind[kind]["run"])
    m["service.jobs.run_s"] = median(by_kind["detect"]["run"] + by_kind["update"]["run"])
    m["service.jobs.retried"] = prom.get("repro_service_jobs_retried", 0.0)
    m["service.jobs.failed"] = prom.get("repro_service_jobs_failed", 0.0)
    m["service.jobs.rejected"] = float(state.rejected)
    for key, value in prom.items():
        found = re.match(
            r'repro_service_request_duration_seconds_sum\{endpoint="(\w+) ([^"]+)"\}', key
        )
        if found:
            count = prom[key.replace("_sum{", "_count{")]
            name = found.group(1).lower() + found.group(2).replace("/", "_").replace(":", "")
            m[f"service.server.request_s.{name}"] = value / count if count else 0.0
    events = list(_trace_events(trace_dir))
    m.update(parallel_layers(events))
    supersteps = [e for e in events if e["kind"] == "superstep"]
    per_job = max(sum(e["kind"] == "run_start" for e in events), 1)
    m["runtime.comm.records"] = sum(e["data"]["records"] for e in supersteps) / per_job
    m["runtime.comm.bytes"] = sum(e["data"]["bytes"] for e in supersteps) / per_job
    m["runtime.comm.messages"] = sum(e["data"]["messages"] for e in supersteps) / per_job
    m["runtime.comm.supersteps"] = len(supersteps) / per_job
    m["generators.gen_s"] = median(pool.gen_times)
    m["metrics.check_s"] = state.check_s / per_job
    out.unmeasured += [
        "kernels.* (hash backend; predicted 0)",
        "parallel.comp_*, runtime.comm.collectives/exchange_s, observability."
        "overhead_frac (inside the server process; not instrumented)",
        "runtime.shm.*, runtime.process.*, sequential.* (not used here)",
    ]
    out.notes.append(f"server trace kept in {os.path.relpath(trace_dir, ROOT)}")
    return out
