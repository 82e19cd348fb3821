"""Worker pool and the embeddable :class:`DetectionService` facade.

The pool drains the :class:`~repro.service.jobs.JobQueue` with N daemon
threads plus one deadline monitor:

* a **detect** job runs :func:`repro.parallel.detect_communities` on the
  submitted graph and publishes the result as a new *full* snapshot;
* an **update** job applies its :class:`~repro.parallel.EdgeBatch` to the
  latest snapshot's graph and repairs the communities with the
  :func:`~repro.parallel.dynamic.incremental_louvain` warm start, publishing
  an *update* snapshot chained to its base version.  Update jobs serialize
  on a service-wide lock so concurrent batches chain deterministically
  instead of racing for the same base.

Both kinds run the vector CSR data plane by default (``backend="vector"``):
it follows the hash reference's trajectory bitwise and is several times
faster.  A job's options may still name ``backend="hash"``.

Every job runs under its own :class:`~repro.observability.Tracer` whose sink
(:class:`_JobTraceSink`) does two things per event: tag it with the job id
and forward it into the service-wide streaming sink (the rotating JSONL file
of ``repro serve``), and **check the job's cancel flag**.  Detection emits
events throughout a run (iterations, supersteps, spans), so cancellation and
timeouts interrupt a real run at its next emitted event -- not only between
jobs.  The worker wraps each attempt in a ``job:<id>`` span, giving the
trace a per-job envelope with the outcome riding on the span end.

Timeout semantics: the monitor thread compares each RUNNING job's age to its
``timeout`` and trips the cancel flag with ``timed_out=True``; the job then
surfaces as FAILED ("timed out after ...").  Timeouts are terminal -- a
retried timeout would almost certainly time out again on the same input.
Retries are reserved for :class:`~repro.service.jobs.TransientJobError`
failures and back off exponentially per the job's backoff knobs; once
``max_retries`` is exhausted the *last* error is what the job reports.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from ..observability.events import TraceEvent
from ..observability.sinks import NullSink, TraceSink
from ..observability.tracer import Tracer
from .jobs import Job, JobCancelled, JobQueue, JobState, TransientJobError
from .store import SnapshotStore

__all__ = ["JobContext", "WorkerPool", "DetectionService"]


class _LockedSink:
    """Serialize writes from many per-job tracers into one shared sink."""

    def __init__(self, sink: TraceSink) -> None:
        self._sink = sink
        self._lock = threading.Lock()

    def write(self, event: TraceEvent) -> None:
        with self._lock:
            self._sink.write(event)

    def close(self) -> None:
        with self._lock:
            self._sink.close()


class _JobTraceSink:
    """Per-job sink: cancellation checkpoint + job-id tagging + forwarding.

    ``write`` raises :class:`JobCancelled` once the job's cancel flag is set,
    which aborts the detection run at its next emitted event.  Closing is a
    no-op -- the shared service sink outlives every job.
    """

    def __init__(self, job: Job, shared: _LockedSink | None) -> None:
        self._job = job
        self._shared = shared

    def write(self, event: TraceEvent) -> None:
        job = self._job
        if job.cancel_event.is_set():
            raise JobCancelled("timeout" if job.timed_out else "cancelled")
        if self._shared is not None:
            self._shared.write(TraceEvent(
                seq=event.seq, ts=event.ts, kind=event.kind, name=event.name,
                rank=event.rank, data={**event.data, "job_id": job.job_id},
            ))

    def close(self) -> None:
        pass


class JobContext:
    """What a job runner gets to see: its job, a tracer, and a cancel check."""

    def __init__(self, job: Job, tracer: Tracer) -> None:
        self.job = job
        self.tracer = tracer

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelled` if the job was cancelled or timed out.

        Runners doing their own loops should call this periodically;
        detection runs get the same check for free through the trace sink.
        """
        if self.job.cancel_event.is_set():
            raise JobCancelled("timeout" if self.job.timed_out else "cancelled")


Runner = Callable[[Job, JobContext], dict[str, Any]]


class WorkerPool:
    """N worker threads + a deadline monitor draining one queue."""

    def __init__(
        self,
        queue: JobQueue,
        runner: Runner,
        *,
        num_workers: int = 2,
        tracer: Tracer | None = None,
        shared_sink: _LockedSink | None = None,
        monitor_interval: float = 0.02,
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker")
        self.queue = queue
        self.runner = runner
        self.num_workers = int(num_workers)
        # Shared across N workers' counter increments: must be threadsafe.
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(sink=NullSink(), buffer=False, threadsafe=True)
        )
        self.shared_sink = shared_sink
        self.monitor_interval = monitor_interval
        self._running: dict[str, Job] = {}
        self._running_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("pool already started")
        for i in range(self.num_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            t.start()
            self._threads.append(t)
        monitor = threading.Thread(
            target=self._monitor_loop, name="repro-job-monitor", daemon=True
        )
        monitor.start()
        self._threads.append(monitor)

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self.queue.close()
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()

    @property
    def running_jobs(self) -> list[Job]:
        with self._running_lock:
            return list(self._running.values())

    # -------------------------------------------------------------- #
    # Monitor: per-job timeouts
    # -------------------------------------------------------------- #

    def _monitor_loop(self) -> None:
        while not self._stop.is_set():
            now = time.time()
            with self._running_lock:
                running = list(self._running.values())
            for job in running:
                if (
                    job.timeout is not None
                    and job.started_at is not None
                    and now - job.started_at > job.timeout
                    and not job.cancel_event.is_set()
                ):
                    job.timed_out = True
                    job.cancel_event.set()
            self._stop.wait(self.monitor_interval)

    # -------------------------------------------------------------- #
    # Workers
    # -------------------------------------------------------------- #

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(timeout=0.2)
            if job is None:
                if self.queue.closed:
                    return
                continue
            self._run_one(job)

    def _run_one(self, job: Job) -> None:
        with self._running_lock:
            self._running[job.job_id] = job
        job_tracer = Tracer(sink=_JobTraceSink(job, self.shared_sink), buffer=False)
        ctx = JobContext(job, job_tracer)
        try:
            # Closed by _end_span on every exit path below, not in this
            # scope -- the close carries the job outcome as span data.
            job_tracer.begin_span(f"job:{job.job_id}")  # lint: allow(phase-nesting)
            ctx.check_cancelled()  # cancel may have landed while claimed
            result = self.runner(job, ctx)
            ctx.check_cancelled()  # cancel mid-run: discard the result
            self.queue.finalize(job, JobState.DONE, result=result)
            self.tracer.add_counter("service_jobs_completed", 1)
            self._end_span(job_tracer, job)
        except JobCancelled as exc:
            if exc.reason == "timeout":
                self.queue.finalize(
                    job, JobState.FAILED,
                    error=f"timed out after {job.timeout:g}s",
                )
                self.tracer.add_counter("service_jobs_timeout", 1)
            else:
                self.queue.finalize(
                    job, JobState.CANCELLED,
                    error=job.error or "cancelled while running",
                )
                self.tracer.add_counter("service_jobs_cancelled", 1)
            self._end_span(job_tracer, job)
        except TransientJobError as exc:
            self._end_span(job_tracer, job, error=str(exc))
            if job.attempts <= job.max_retries:
                delay = job.backoff_delay()
                job.error = f"attempt {job.attempts} failed (will retry): {exc}"
                self.tracer.add_counter("service_jobs_retried", 1)
                self.queue.requeue(job, delay=delay)
            else:
                self.queue.finalize(
                    job, JobState.FAILED,
                    error=f"failed after {job.attempts} attempt(s); "
                    f"last error: {exc}",
                )
                self.tracer.add_counter("service_jobs_failed", 1)
        except Exception as exc:  # permanent failure: no retry
            self.queue.finalize(
                job, JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
            )
            self.tracer.add_counter("service_jobs_failed", 1)
            self._end_span(job_tracer, job)
        finally:
            with self._running_lock:
                self._running.pop(job.job_id, None)

    @staticmethod
    def _end_span(tracer: Tracer, job: Job, *, error: str | None = None) -> None:
        """Close the job span, tolerating a cancel tripping inside the sink."""
        try:
            if tracer.span_depth:
                tracer.end_span(  # lint: allow(phase-nesting)
                    state=job.state, attempts=job.attempts,
                    error=error if error is not None else job.error)
        except JobCancelled:
            pass  # flag raced the span close; the outcome is already recorded


class DetectionService:
    """Long-lived, embeddable community-detection service.

    Composes the bounded :class:`~repro.service.jobs.JobQueue`, the
    :class:`WorkerPool`, the versioned
    :class:`~repro.service.store.SnapshotStore` and a service-wide tracer
    whose cumulative counters back the ``/metrics`` endpoint.  The HTTP
    layer (:mod:`repro.service.server`) is a thin shell over this class;
    library users can embed it directly:

    >>> with DetectionService(num_workers=2) as svc:        # doctest: +SKIP
    ...     job = svc.submit_graph(graph)
    ...     svc.wait(job.job_id)
    ...     svc.membership(vertex=0)
    """

    def __init__(
        self,
        *,
        num_workers: int = 2,
        queue_capacity: int = 64,
        store_capacity: int | None = 32,
        num_ranks: int = 4,
        seed: int = 0,
        execution: str = "simulated",
        default_timeout: float | None = None,
        default_max_retries: int = 0,
        sink: TraceSink | None = None,
        runner: Runner | None = None,
        monitor_interval: float = 0.02,
    ) -> None:
        if execution not in ("simulated", "process"):
            raise ValueError(f"unknown execution mode {execution!r}")
        self.queue = JobQueue(capacity=queue_capacity)
        self.store = SnapshotStore(capacity=store_capacity)
        self.num_ranks = int(num_ranks)
        self.seed = seed
        self.execution = execution
        self.default_timeout = default_timeout
        self.default_max_retries = int(default_max_retries)
        self._shared_sink = _LockedSink(sink) if sink is not None else None
        # Workers and submitters all bump counters on this one tracer.
        self.tracer = Tracer(
            sink=self._shared_sink if self._shared_sink is not None else NullSink(),
            buffer=False,
            threadsafe=True,
        )
        #: Updates serialize here so concurrent batches chain versions
        #: deterministically instead of both warm-starting from one base.
        self._update_lock = threading.Lock()
        self._started_at = time.time()
        self.pool = WorkerPool(
            self.queue,
            runner if runner is not None else self._run_job,
            num_workers=num_workers,
            tracer=self.tracer,
            shared_sink=self._shared_sink,
            monitor_interval=monitor_interval,
        )
        self.pool.start()
        self._shutting_down = False
        self._closed = False

    # -------------------------------------------------------------- #
    # Submission API
    # -------------------------------------------------------------- #

    def _job_kwargs(
        self, priority: int, timeout: float | None, max_retries: int | None
    ) -> dict[str, Any]:
        return dict(
            priority=int(priority),
            timeout=self.default_timeout if timeout is None else timeout,
            max_retries=(
                self.default_max_retries if max_retries is None else int(max_retries)
            ),
        )

    def submit_graph(
        self,
        graph,
        *,
        priority: int = 10,
        timeout: float | None = None,
        max_retries: int | None = None,
        **detect_options: Any,
    ) -> Job:
        """Queue a full detection run on ``graph``.

        ``detect_options`` pass through to
        :func:`~repro.parallel.detect_communities` (``algorithm``,
        ``num_ranks``, ``seed``, ``backend`` (default ``"vector"``),
        schedule overrides, ...).  Raises
        :class:`~repro.service.jobs.QueueFullError` under backpressure.
        """
        job = Job(
            kind="detect",
            payload={"graph": graph, "options": dict(detect_options)},
            **self._job_kwargs(priority, timeout, max_retries),
        )
        self.queue.submit(job)
        self.tracer.add_counter("service_jobs_submitted", 1)
        return job

    def submit_edge_batch(
        self,
        batch,
        *,
        base_version: int | None = None,
        priority: int = 10,
        timeout: float | None = None,
        max_retries: int | None = None,
        **config_options: Any,
    ) -> Job:
        """Queue an edge-batch warm-start update against ``base_version``.

        ``base_version=None`` resolves to the latest snapshot *at run time*,
        so back-to-back batches chain even while earlier ones are still in
        the queue.  The update fails (permanently) if the named base was
        evicted, or transiently -- and is retried -- if no snapshot exists
        yet while a detect job is still running.
        """
        job = Job(
            kind="update",
            payload={
                "batch": batch,
                "base_version": base_version,
                "options": dict(config_options),
            },
            **self._job_kwargs(priority, timeout, max_retries),
        )
        self.queue.submit(job)
        self.tracer.add_counter("service_jobs_submitted", 1)
        return job

    # -------------------------------------------------------------- #
    # The default runner
    # -------------------------------------------------------------- #

    def _run_job(self, job: Job, ctx: JobContext) -> dict[str, Any]:
        if job.kind == "detect":
            return self._run_detect(job, ctx)
        if job.kind == "update":
            return self._run_update(job, ctx)
        raise ValueError(f"unknown job kind {job.kind!r}")

    def _run_detect(self, job: Job, ctx: JobContext) -> dict[str, Any]:
        from ..parallel import detect_communities

        options = {
            "algorithm": "parallel",
            "num_ranks": self.num_ranks,
            "seed": self.seed,
            **job.payload["options"],
        }
        if options.get("algorithm") == "parallel":
            # The service-wide execution mode and the vector data plane
            # apply unless the job chose its own.
            options.setdefault("execution", self.execution)
            options.setdefault("backend", "vector")
        graph = job.payload["graph"]
        summary = detect_communities(graph, tracer=ctx.tracer, **options)
        snap = self.store.put(
            graph, summary.membership, summary.modularity,
            kind="full", job_id=job.job_id,
        )
        return {
            "version": snap.version,
            "algorithm": summary.algorithm,
            "modularity": float(summary.modularity),
            "num_communities": summary.num_communities,
            "num_levels": summary.num_levels,
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
        }

    def _run_update(self, job: Job, ctx: JobContext) -> dict[str, Any]:
        from ..metrics import modularity_from_labels
        from ..parallel import ParallelLouvainConfig, incremental_louvain

        with self._update_lock:
            base_version = job.payload["base_version"]
            try:
                base = self.store.get(base_version)
            except KeyError as exc:
                if base_version is None:
                    # No snapshot yet -- likely racing the first detect job.
                    raise TransientJobError(str(exc)) from exc
                raise  # a named version that is gone will stay gone
            options = {
                "execution": self.execution,
                "backend": "vector",
                **job.payload["options"],
            }
            config = ParallelLouvainConfig(
                num_ranks=options.pop("num_ranks", self.num_ranks), **options
            )
            ctx.check_cancelled()
            # Serializing the warm start under _update_lock is the whole
            # point: concurrent batches must chain, not race one base.
            new_graph, result = incremental_louvain(  # lint: allow(blocking-call-under-lock)
                base.graph, job.payload["batch"], base.membership,
                config, tracer=ctx.tracer,
            )
            q = (
                result.final_modularity
                if result.modularities
                else modularity_from_labels(new_graph, result.membership)
            )
            snap = self.store.put(
                new_graph, result.membership, q,
                kind="update", job_id=job.job_id, parent_version=base.version,
            )
        return {
            "version": snap.version,
            "base_version": base.version,
            "algorithm": "parallel",
            "modularity": float(q),
            "num_communities": snap.num_communities,
            "num_levels": result.num_levels,
            "num_vertices": int(new_graph.num_vertices),
            "num_edges": int(new_graph.num_edges),
        }

    # -------------------------------------------------------------- #
    # Read API
    # -------------------------------------------------------------- #

    def job(self, job_id: str) -> Job:
        return self.queue.get(job_id)

    def cancel(self, job_id: str) -> bool:
        cancelled = self.queue.cancel(job_id)
        if cancelled:
            self.tracer.add_counter("service_jobs_cancel_requests", 1)
        return cancelled

    def wait(self, job_id: str, timeout: float = 30.0) -> Job:
        """Block until the job reaches a terminal state (testing/embedding).

        Sleeps on the queue's terminal condition variable (no poll loop);
        raises :class:`TimeoutError` if the job is still live at expiry.
        """
        job = self.queue.wait_terminal(job_id, timeout)
        if not job.done:
            raise TimeoutError(f"job {job_id} still {job.state} after {timeout}s")
        return job

    def membership(self, vertex: int | None = None, version: int | None = None):
        return self.store.membership(vertex, version)

    def snapshot(self, version: int | None = None):
        return self.store.get(version)

    def diff(self, from_version: int, to_version: int):
        return self.store.diff(from_version, to_version)

    def health(self) -> dict[str, Any]:
        latest = self.store.latest_version()
        return {
            "status": "shutting_down" if self._shutting_down else "ok",
            "uptime_seconds": time.time() - self._started_at,
            "workers": self.pool.num_workers,
            "queue_pending": self.queue.pending_count,
            "queue_capacity": self.queue.capacity,
            "jobs_running": len(self.pool.running_jobs),
            "snapshots": len(self.store),
            "latest_version": latest,
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition: job counters + live service gauges."""
        from ..observability.exporters import prometheus_counters, prometheus_gauges

        gauges: dict[str, float] = {
            "service_queue_pending": float(self.queue.pending_count),
            "service_queue_capacity": float(self.queue.capacity),
            "service_jobs_running": float(len(self.pool.running_jobs)),
            "service_snapshots_retained": float(len(self.store)),
            "service_jobs_retained": float(self.queue.retained_count),
            "service_uptime_seconds": time.time() - self._started_at,
        }
        latest = self.store.latest_version()
        if latest is not None:
            snap = self.store.get(latest)
            gauges["service_latest_version"] = float(latest)
            gauges["service_latest_modularity"] = float(snap.modularity)
            gauges["service_latest_num_communities"] = float(snap.num_communities)
        return prometheus_counters(self.tracer.counters) + prometheus_gauges(gauges)

    # -------------------------------------------------------------- #
    # Shutdown
    # -------------------------------------------------------------- #

    def mark_shutting_down(self) -> None:
        """Report ``shutting_down`` from now on; :meth:`close` follows.

        A server calls this before it stops listening, so no client sees
        the port die while :meth:`health` still reports ``ok``.
        """
        self._shutting_down = True

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._shutting_down = True
        self._closed = True
        self.pool.stop(timeout=timeout)
        self.tracer.close()

    def __enter__(self) -> "DetectionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
