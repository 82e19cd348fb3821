"""Spans and counters recorded around calls into the program, for traced runs.

Nothing here edits the program.  :func:`install` replaces module and class
attributes of the imported ``repro`` package with timing wrappers before a
workload starts; ranks forked by ``execution="process"`` inherit them.  A
forked rank keeps its own spans and counters and writes them to
``<out_dir>/child-<pid>.json`` when it exits (a ``multiprocessing.util.
Finalize`` registered when the rank binds its ``SharedMemoryBus``); the
parent merges those files after each detection with :meth:`Recorder.
collect_children`.

A span is ``(trace, id, parent, name, start, end, pid, rank)`` on the
``time.perf_counter`` clock, which is CLOCK_MONOTONIC on Linux and therefore
comparable across the forked ranks.  Every root span (one detection, one
generator call, one service request) starts its own trace id.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import itertools
import json
import os
import threading
import time
from collections import defaultdict

#: Bus operations wrapped on both buses (the public surface the algorithm uses).
BUS_OPS = (
    "exchange",
    "exchange_grouped",
    "allreduce_sum",
    "allreduce_max",
    "allgather",
    "side_sum",
    "side_gather",
    "barrier",
)


class Recorder:
    """Per-process span list and named counters."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.rank: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Shared-memory segment accounting for this process.
        self._segments: dict[str, int] = {}
        self._seg_bytes = 0
        self._seg_base = 0

    # -- spans ------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, *, root: bool = False):
        stack = self._stack()
        sid = f"{os.getpid()}.{next(self._ids)}"
        if root or not stack:
            trace, parent = sid, None
        else:
            trace, parent = stack[-1]
        stack.append((trace, sid))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (trace, sid, parent, name, start, end, os.getpid(), self.rank)
            )

    def add_span(self, name, start, end, *, trace=None, parent=None) -> str:
        """Record a span measured elsewhere (e.g. a service job's lifetime)."""
        sid = f"{os.getpid()}.{next(self._ids)}"
        self.spans.append(
            (trace or sid, sid, parent, name, start, end, os.getpid(), self.rank)
        )
        return sid

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def total(self, prefix: str, *, rank=...) -> float:
        """Summed duration of spans whose name starts with ``prefix``."""
        return sum(
            s[5] - s[4]
            for s in self.spans
            if s[3].startswith(prefix) and (rank is ... or s[7] == rank)
        )

    def count(self, prefix: str) -> int:
        return sum(1 for s in self.spans if s[3].startswith(prefix))

    # -- shared-memory segments ------------------------------------------ #

    def segment_created(self, name: str, size: int) -> None:
        self._segments[name] = size
        self._seg_bytes += size
        peak = self._seg_bytes - self._seg_base
        key = "shm.child_peak_excess" if self.rank is not None else "shm.parent_peak"
        self.counters[key] = max(self.counters.get(key, 0.0), float(peak))

    def segment_unlinked(self, name: str) -> None:
        self._seg_bytes -= self._segments.pop(name, 0)

    def begin_detection(self) -> None:
        """Segment peaks are per detection (each run unlinks its segments)."""
        self.counters.pop("shm.parent_peak", None)
        self._segments.clear()
        self._seg_bytes = self._seg_base = 0

    # -- forked ranks ----------------------------------------------------- #

    def become_child(self, rank: int) -> None:
        """Called in a forked rank: drop the inherited copy, flush at exit."""
        from multiprocessing import util

        self.spans = []
        self.counters = defaultdict(float)
        self.rank = rank
        # Segments the parent published stay live; only growth counts here.
        self._seg_base = self._seg_bytes
        util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = os.path.join(self.out_dir, f"child-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
        os.replace(path + ".tmp", path)

    def collect_children(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.out_dir, "child-*.json"))):
            with open(path) as fh:
                doc = json.load(fh)
            os.unlink(path)
            self.spans.extend(tuple(s) for s in doc["spans"])
            for name, value in doc["counters"].items():
                self.counters[name] += value


# ========================================================================= #
# Wrappers
# ========================================================================= #


def _nbytes(obj) -> int:
    import numpy as np

    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj if isinstance(o, np.ndarray))
    return 0


def _timed(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points in this process (call once)."""
    import repro.kernels as kernels
    import repro.parallel.vectorized as vectorized
    import repro.runtime.process as process
    import repro.runtime.shm as shm
    from repro.runtime.comm import MessageBus
    from repro.runtime.profiler import PhaseProfiler

    # Kernels: the names parallel.vectorized imported from repro.kernels.
    def count_bytes(args, kwargs, out):
        rec.add(
            "kernels.bytes_computed",
            _nbytes(args) + _nbytes(list(kwargs.values())) + _nbytes(out),
        )

    for fname in kernels.__all__:
        fn = vectorized.__dict__.get(fname)
        if callable(fn) and fn is getattr(kernels, fname):
            setattr(vectorized, fname, _timed(rec, f"kernels.{fname}", fn, count_bytes))

    for op in BUS_OPS:
        setattr(MessageBus, op, _timed(rec, f"runtime.comm.{op}", getattr(MessageBus, op)))
        setattr(
            shm.SharedMemoryBus, op,
            _timed(rec, f"runtime.shm.{op}", getattr(shm.SharedMemoryBus, op)),
        )

    bind = shm.SharedMemoryBus.bind

    @functools.wraps(bind)
    def bind_wrapper(self, rank, **kwargs):
        rec.become_child(rank)
        return bind(self, rank, **kwargs)

    shm.SharedMemoryBus.bind = bind_wrapper

    create = shm.ShmBlock.create

    def create_wrapper(name, size):
        block = create(name, size)
        rec.segment_created(block.name, block.size)
        return block

    shm.ShmBlock.create = staticmethod(create_wrapper)
    unlink = shm.ShmBlock.unlink

    def unlink_wrapper(self):
        rec.segment_unlinked(self.name)
        return unlink(self)

    shm.ShmBlock.unlink = unlink_wrapper
    # The bus drops an outgrown generation by name, not through ShmBlock.
    unlink_quiet = shm._unlink_quiet

    def unlink_quiet_wrapper(name):
        rec.segment_unlinked(name)
        return unlink_quiet(name)

    shm._unlink_quiet = unlink_quiet_wrapper

    process.publish_arrays = _timed(
        rec, "runtime.process.publish_arrays", process.publish_arrays
    )

    phase = PhaseProfiler.phase

    @contextlib.contextmanager
    def phase_wrapper(self, name):
        with phase(self, name) as prof:
            with rec.span(f"parallel.{prof.current_phase}"):
                yield prof

    PhaseProfiler.phase = phase_wrapper


# ========================================================================= #
# Span output and the per-layer self-time report
# ========================================================================= #


def layer_of(name: str) -> str:
    """``runtime.comm.exchange`` -> ``runtime.comm``; ``kernels.x`` -> ``kernels``."""
    head = name.split(" ", 1)[0]
    return head.rsplit(".", 1)[0] if "." in head else head


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per span name: duration minus the part its children's spans cover."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            children[s[2]].append((s[4], s[5]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        start, end = s[4], s[5]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(s[1], ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[s[3]] += (end - start) - covered
    return out


def write_spans(spans: list[tuple], path: str) -> None:
    with open(path, "w") as fh:
        for trace, sid, parent, name, start, end, pid, rank in spans:
            fh.write(
                json.dumps(
                    {
                        "trace": trace, "id": sid, "parent": parent,
                        "name": name, "start": start, "end": end,
                        "pid": pid, "rank": rank,
                    }
                )
                + "\n"
            )


def layer_report(spans: list[tuple]) -> list[str]:
    """Self time per layer and per span name, largest first."""
    per_name = self_times(spans)
    per_layer: dict[str, float] = defaultdict(float)
    for name, t in per_name.items():
        per_layer[layer_of(name)] += t
    lines = ["layer self time (s, summed over ranks and threads):"]
    for layer, t in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<28} {t:10.4f}")
        names = [(n, v) for n, v in per_name.items() if layer_of(n) == layer]
        for name, v in sorted(names, key=lambda kv: -kv[1])[:8]:
            lines.append(f"      {name:<40} {v:10.4f}")
    return lines
