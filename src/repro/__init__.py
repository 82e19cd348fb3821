"""repro -- reproduction of "Scalable Community Detection with the Louvain
Algorithm" (Que, Checconi, Petrini, Gunnels; IEEE IPDPS 2015).

Public API highlights
---------------------

* :func:`repro.detect_communities` -- one-call community detection
  (parallel / sequential / naive), optional machine-model timing.
* :mod:`repro.graph` -- CSR weighted graph container and I/O.
* :mod:`repro.generators` -- LFR, R-MAT, BTER and Table-I proxy graphs.
* :mod:`repro.parallel` -- the paper's algorithm: hash-table-backed
  distributed Louvain with the Eq.-7 convergence heuristic.
* :mod:`repro.sequential` -- the Algorithm-1 baseline.
* :mod:`repro.metrics` -- modularity and all Table II/III quality metrics.
* :mod:`repro.runtime` -- the simulated SPMD runtime and machine models.
* :mod:`repro.harness` -- paper table/figure runners, plus projections of
  the ``benchmarks/matrices/`` runs for Figs. 4/7/8/9 and Table III.
* :mod:`repro.bench` -- declarative benchmark matrices (``repro bench``).
* :mod:`repro.analysis` -- SPMD superstep-safety linter (``repro check``)
  and the opt-in runtime invariant sanitizer.
* :mod:`repro.service` -- long-lived detection service (job queue, worker
  pool, versioned snapshot store, ``repro serve`` HTTP API).

``import repro`` loads none of these: each subpackage, and each name
re-exported here, loads on first access.
"""

import importlib

#: Subpackages reachable as attributes; each loads on first access, so
#: ``import repro`` costs only what the caller touches.
_SUBPACKAGES = frozenset({
    "analysis", "generators", "graph", "harness", "hashing", "metrics",
    "observability", "parallel", "runtime", "sequential", "service",
})

#: Re-exported name -> (subpackage, name there).
_EXPORTS = {
    "InvariantViolation": ("analysis", "InvariantViolation"),
    "Sanitizer": ("analysis", "Sanitizer"),
    "Graph": ("graph", "Graph"),
    "modularity": ("metrics", "modularity"),
    "TraceEvent": ("observability", "TraceEvent"),
    "Tracer": ("observability", "Tracer"),
    "DetectionSummary": ("parallel", "DetectionSummary"),
    "ExponentialSchedule": ("parallel", "ExponentialSchedule"),
    "ParallelLouvainConfig": ("parallel", "ParallelLouvainConfig"),
    "detect_communities": ("parallel", "detect_communities"),
    "naive_parallel_louvain": ("parallel", "naive_parallel_louvain"),
    "parallel_louvain": ("parallel", "parallel_louvain"),
    "BGQ": ("runtime", "BGQ"),
    "P7IH": ("runtime", "P7IH"),
    "MachineModel": ("runtime", "MachineModel"),
    "sequential_louvain": ("sequential", "louvain"),
    "DetectionService": ("service", "DetectionService"),
}

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "modularity",
    "detect_communities",
    "DetectionSummary",
    "parallel_louvain",
    "naive_parallel_louvain",
    "sequential_louvain",
    "ParallelLouvainConfig",
    "ExponentialSchedule",
    "MachineModel",
    "P7IH",
    "BGQ",
    "Tracer",
    "TraceEvent",
    "InvariantViolation",
    "Sanitizer",
    "DetectionService",
    "analysis",
    "graph",
    "hashing",
    "generators",
    "metrics",
    "observability",
    "sequential",
    "runtime",
    "parallel",
    "harness",
    "service",
    "__version__",
]


def __getattr__(name: str):
    """Load a subpackage or re-exported name on first access (PEP 562)."""
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        package, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{package}"), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
