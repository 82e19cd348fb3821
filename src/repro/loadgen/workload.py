"""Declarative load-test scenarios (TOML or JSON), mirroring `repro.bench`.

A scenario file describes *how to drive* a running ``repro serve`` instance:
an arrival process, a weighted operation mix, ramp/steady/drain phases, a
poll strategy for submitted jobs, and the SLOs the run must meet:

.. code-block:: toml

    label = "smoke"

    [service]              # knobs for the self-booted server (ignored w/ --url)
    workers = 2
    queue_capacity = 8

    [workload]
    mode = "open"          # open-loop @ rate, or "closed" (clients+think time)
    rate = 40.0            # arrivals/second at steady state
    max_outstanding = 16   # open-loop cap: arrivals past it are shed
    ramp_s = 0.5
    steady_s = 3.0
    drain_s = 2.0
    poll = "long"          # follow submitted jobs: long | busy | none

    [ops.submit_graph]
    weight = 1
    communities = 4
    community_size = 12

    [ops.membership]
    weight = 6

    [slo.membership]
    p99_ms = 250
    max_error_rate = 0.0

    [slo.total]
    max_5xx = 0

Two arrival processes, because they answer different questions (Schroeder et
al.'s classic open-vs-closed distinction): **open-loop** issues requests at a
fixed rate regardless of completions -- with a bounded outstanding-request
cap so an overloaded server sheds arrivals instead of queueing unboundedly in
the client -- and measures what the service does *under offered load*;
**closed-loop** runs N clients that each wait for their response (plus think
time) before the next request, and measures sustainable round-trip behavior.

The file format reuses the benchmark matrix loader: TOML via :mod:`tomllib`
on Python >= 3.11, falling back to the same built-in subset parser, and
``.json`` files load verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..bench.config import read_config_file

__all__ = [
    "LoadConfigError",
    "OpSpec",
    "Scenario",
    "OperationMix",
    "OP_KINDS",
    "load_scenario",
    "parse_scenario",
    "open_loop_arrivals",
]


class LoadConfigError(ValueError):
    """A scenario file is malformed or references unknown entities."""


#: Operation vocabulary the executor understands.
OP_KINDS = ("submit_graph", "edge_batch", "membership", "diff", "health")

#: Poll strategies for following a submitted job to its terminal state.
POLL_MODES = ("long", "busy", "none")

#: ``[service]`` keys forwarded to the self-booted ``repro serve`` process.
SERVICE_KEYS = {
    "workers", "queue_capacity", "ranks", "seed", "execution",
    "store_capacity", "job_timeout", "max_retries",
}


@dataclass(frozen=True)
class OpSpec:
    """One entry of the weighted operation mix."""

    name: str
    weight: float
    #: Operation parameters (payload shape, e.g. planted-graph size).
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class Scenario:
    """Parsed scenario file."""

    label: str
    description: str = ""
    #: Knobs for the self-booted server (``repro serve`` flags).
    service: dict[str, Any] = field(default_factory=dict)
    #: "open" (rate + outstanding cap) or "closed" (clients + think time).
    mode: str = "open"
    rate: float = 20.0
    max_outstanding: int = 16
    clients: int = 4
    think_time_s: float = 0.05
    ramp_s: float = 0.0
    steady_s: float = 3.0
    drain_s: float = 5.0
    poll: str = "long"
    #: Long-poll wait per request (server caps at MAX_LONGPOLL_WAIT).
    poll_wait_s: float = 5.0
    #: Busy-poll sleep between status requests.
    poll_interval_s: float = 0.02
    seed: int = 0
    #: Cadence of the background /metrics queue-depth scrape.
    metrics_interval_s: float = 0.25
    ops: list[OpSpec] = field(default_factory=list)
    #: SLOs: target ("total" or an op name) -> {key: limit}.
    slos: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def offered_duration_s(self) -> float:
        """Seconds during which new arrivals are issued (ramp + steady)."""
        return self.ramp_s + self.steady_s

    def scaled(self, factor: float) -> "Scenario":
        """Copy with ramp/steady durations multiplied by ``factor``.

        Lets CI run a checked-in scenario shorter (or soak runs longer)
        without editing the file; rates, mix and SLOs are untouched (drain
        is a completion grace period, not offered load, so it stays).
        """
        import dataclasses

        if factor <= 0:
            raise LoadConfigError("duration scale must be > 0")
        return dataclasses.replace(
            self, ramp_s=self.ramp_s * factor, steady_s=self.steady_s * factor
        )


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario file (TOML unless the path ends .json)."""
    return parse_scenario(read_config_file(path))


def parse_scenario(data: Mapping[str, Any]) -> Scenario:
    """Validate a decoded mapping into a :class:`Scenario`."""
    if not isinstance(data, Mapping):
        raise LoadConfigError("scenario file must decode to a table")
    label = data.get("label")
    if not label or not isinstance(label, str):
        raise LoadConfigError("scenario file needs a string 'label'")

    service = data.get("service", {})
    if not isinstance(service, Mapping):
        raise LoadConfigError("'service' must be a table")
    unknown = set(service) - SERVICE_KEYS
    if unknown:
        raise LoadConfigError(
            f"unknown [service] keys {sorted(unknown)}; known: "
            f"{sorted(SERVICE_KEYS)}"
        )

    wl = data.get("workload", {})
    if not isinstance(wl, Mapping):
        raise LoadConfigError("'workload' must be a table")
    mode = str(wl.get("mode", "open"))
    if mode not in ("open", "closed"):
        raise LoadConfigError(f"workload.mode must be open/closed, got {mode!r}")
    poll = str(wl.get("poll", "long"))
    if poll not in POLL_MODES:
        raise LoadConfigError(
            f"workload.poll must be one of {POLL_MODES}, got {poll!r}"
        )

    ops_table = data.get("ops", {})
    if not isinstance(ops_table, Mapping) or not ops_table:
        raise LoadConfigError("scenario needs a non-empty [ops] table")
    ops: list[OpSpec] = []
    for name, spec in ops_table.items():
        if name not in OP_KINDS:
            raise LoadConfigError(
                f"unknown op {name!r}; known ops: {list(OP_KINDS)}"
            )
        if not isinstance(spec, Mapping):
            raise LoadConfigError(f"[ops.{name}] must be a table")
        weight = float(spec.get("weight", 1.0))
        if weight <= 0:
            raise LoadConfigError(f"[ops.{name}] weight must be > 0")
        params = {k: v for k, v in spec.items() if k != "weight"}
        ops.append(OpSpec(name=str(name), weight=weight, params=params))

    slo_table = data.get("slo", {})
    if not isinstance(slo_table, Mapping):
        raise LoadConfigError("'slo' must be a table")
    op_names = {op.name for op in ops}
    slos: dict[str, dict[str, float]] = {}
    for target, spec in slo_table.items():
        if not isinstance(spec, Mapping):
            raise LoadConfigError(f"[slo.{target}] must be a table")
        if target != "total" and target not in op_names and target != "poll":
            raise LoadConfigError(
                f"SLO target {target!r} is neither 'total', 'poll' nor an "
                f"op in the mix ({sorted(op_names)})"
            )
        slos[str(target)] = {str(k): float(v) for k, v in spec.items()}

    scenario = Scenario(
        label=str(label),
        description=str(data.get("description", "")),
        service=dict(service),
        mode=mode,
        rate=float(wl.get("rate", 20.0)),
        max_outstanding=int(wl.get("max_outstanding", 16)),
        clients=int(wl.get("clients", 4)),
        think_time_s=float(wl.get("think_time_s", 0.05)),
        ramp_s=float(wl.get("ramp_s", 0.0)),
        steady_s=float(wl.get("steady_s", 3.0)),
        drain_s=float(wl.get("drain_s", 5.0)),
        poll=poll,
        poll_wait_s=float(wl.get("poll_wait_s", 5.0)),
        poll_interval_s=float(wl.get("poll_interval_s", 0.02)),
        seed=int(wl.get("seed", 0)),
        metrics_interval_s=float(wl.get("metrics_interval_s", 0.25)),
        ops=ops,
        slos=slos,
    )
    if scenario.rate <= 0:
        raise LoadConfigError("workload.rate must be > 0")
    if scenario.max_outstanding < 1:
        raise LoadConfigError("workload.max_outstanding must be >= 1")
    if scenario.clients < 1:
        raise LoadConfigError("workload.clients must be >= 1")
    if scenario.steady_s <= 0:
        raise LoadConfigError("workload.steady_s must be > 0")
    if min(scenario.ramp_s, scenario.drain_s, scenario.think_time_s) < 0:
        raise LoadConfigError("durations must be >= 0")
    return scenario


class OperationMix:
    """Deterministic weighted sampling over the scenario's ops.

    One :class:`random.Random` stream per mix instance, so a scenario seed
    reproduces the exact op sequence (arrival *timing* still depends on the
    machine, but what each arrival does is pinned).
    """

    def __init__(self, ops: list[OpSpec], seed: int = 0) -> None:
        if not ops:
            raise LoadConfigError("operation mix is empty")
        self._ops = list(ops)
        self._weights = [op.weight for op in ops]
        self._rng = random.Random(seed)

    def choose(self) -> OpSpec:
        return self._rng.choices(self._ops, weights=self._weights, k=1)[0]

    def fork(self, salt: int) -> "OperationMix":
        """Independent per-thread stream (closed-loop clients)."""
        return OperationMix(self._ops, seed=self._rng.randint(0, 2**31) + salt)


def open_loop_arrivals(
    rate: float, ramp_s: float, steady_s: float
) -> Iterator[float]:
    """Arrival offsets (seconds from start) for the open-loop process.

    During ramp the instantaneous rate grows linearly from ``rate / 10`` to
    ``rate`` (a zero starting rate would put the first arrival at infinity);
    during steady it is constant.  Deterministic -- a fixed-rate process, not
    Poisson -- so two runs offer identical load and the comparison between
    poll strategies or server builds is paired.
    """
    t = 0.0
    end = ramp_s + steady_s
    while t < end:
        yield t
        if t < ramp_s and ramp_s > 0:
            frac = max(t / ramp_s, 0.1)
            t += 1.0 / (rate * frac)
        else:
            t += 1.0 / rate
