"""Declarative benchmark-matrix configuration (TOML or JSON).

A matrix file declares *factors* (each a list of values), a *cell template*
(the run parameters, with ``{factor}`` references), and named *graph specs*;
the harness expands the cross product of all factor values into cells:

.. code-block:: toml

    label = "fig7-threads"
    repetitions = 3
    warmup = 1

    [factors]
    graph = ["LiveJournal", "UK-2005"]
    ranks = [1, 2, 4]

    [cell]
    variant = "parallel"
    machine = "p7ih"
    work_scale = "paper"

    [graphs.LiveJournal]
    family = "social"
    name = "LiveJournal"

Interpolation: a template value that is exactly ``"{name}"`` is replaced by
the *typed* factor value (``ranks = "{ranks}"`` stays an int); any other
string is ``str.format``-ed over the factor mapping.  A factor value may be
an inline table -- then its fields are merged into the cell's parameters at
once, which is how paired sweeps (weak scaling's ranks growing with graph
size) stay a single factor axis; an optional ``_name`` field inside names the
value in the cell id.  An ``exclude`` list of partial factor assignments
prunes combinations.

The file format is TOML when :mod:`tomllib` is available (Python >= 3.11) and
falls back to a small built-in parser covering the subset these files use --
sections, dotted section names, strings, numbers, booleans, arrays and inline
tables -- so the harness runs on 3.10 without new dependencies.  ``.json``
files load as the same structure verbatim.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.10 CI only
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "BenchConfigError",
    "BenchConfig",
    "Cell",
    "load_config",
    "read_config_file",
    "parse_config",
    "expand_cells",
    "interpolate",
    "parse_toml_subset",
]


class BenchConfigError(ValueError):
    """A matrix file is malformed or references unknown entities."""


@dataclass(frozen=True)
class Cell:
    """One expanded point of the benchmark matrix."""

    #: Stable id, ``name=value`` over the declared factor order.
    cell_id: str
    #: Factor assignment that produced this cell (display values).
    factors: dict[str, Any]
    #: Fully interpolated run parameters (template merged over factor fields).
    params: dict[str, Any]


@dataclass
class BenchConfig:
    """Parsed matrix file."""

    label: str
    repetitions: int = 3
    warmup: int = 1
    timeout_seconds: float | None = None
    factors: dict[str, list[Any]] = field(default_factory=dict)
    cell: dict[str, Any] = field(default_factory=dict)
    graphs: dict[str, dict[str, Any]] = field(default_factory=dict)
    exclude: list[dict[str, Any]] = field(default_factory=list)

    def resolve_graph(self, name: str, namespace: Mapping[str, Any]) -> dict[str, Any]:
        """Graph spec by name with ``{factor}`` references resolved."""
        if name not in self.graphs:
            raise BenchConfigError(
                f"cell references unknown graph {name!r}; "
                f"declared: {sorted(self.graphs)}"
            )
        return {
            key: interpolate(value, namespace)
            for key, value in self.graphs[name].items()
        }


def read_config_file(path: str) -> Any:
    """Decode a matrix or scenario file (TOML unless the path ends ``.json``)."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if path.endswith(".json"):
        return json.loads(text)
    if tomllib is not None:
        return tomllib.loads(text)
    return parse_toml_subset(text)  # pragma: no cover - 3.10 fallback


def load_config(path: str) -> BenchConfig:
    """Load and validate a matrix file (TOML unless the path ends ``.json``)."""
    return parse_config(read_config_file(path))


def parse_config(data: Mapping[str, Any]) -> BenchConfig:
    """Validate a decoded mapping into a :class:`BenchConfig`."""
    if not isinstance(data, Mapping):
        raise BenchConfigError("matrix file must decode to a table")
    label = data.get("label")
    if not label or not isinstance(label, str):
        raise BenchConfigError("matrix file needs a string 'label'")
    repetitions = int(data.get("repetitions", 3))
    warmup = int(data.get("warmup", 1))
    if repetitions < 1:
        raise BenchConfigError("repetitions must be >= 1")
    if warmup < 0:
        raise BenchConfigError("warmup must be >= 0")
    timeout = data.get("timeout_seconds")
    factors = data.get("factors", {})
    if not isinstance(factors, Mapping) or not all(
        isinstance(v, list) and v for v in factors.values()
    ):
        raise BenchConfigError("'factors' must map names to non-empty lists")
    cell = data.get("cell", {})
    if not isinstance(cell, Mapping):
        raise BenchConfigError("'cell' must be a table")
    graphs = data.get("graphs", {})
    if not isinstance(graphs, Mapping) or not all(
        isinstance(v, Mapping) for v in graphs.values()
    ):
        raise BenchConfigError("'graphs' must map names to tables")
    exclude = data.get("exclude", [])
    if not isinstance(exclude, list) or not all(
        isinstance(e, Mapping) for e in exclude
    ):
        raise BenchConfigError("'exclude' must be a list of tables")
    return BenchConfig(
        label=str(label),
        repetitions=repetitions,
        warmup=warmup,
        timeout_seconds=None if timeout is None else float(timeout),
        factors={str(k): list(v) for k, v in factors.items()},
        cell=dict(cell),
        graphs={str(k): dict(v) for k, v in graphs.items()},
        exclude=[dict(e) for e in exclude],
    )


# --------------------------------------------------------------------- #
# Expansion
# --------------------------------------------------------------------- #


def interpolate(value: Any, namespace: Mapping[str, Any]) -> Any:
    """Resolve ``{name}`` references in a template value.

    A string that is exactly one reference substitutes the raw (typed)
    value; any other string goes through :meth:`str.format`; containers
    recurse; everything else passes through.
    """
    if isinstance(value, str):
        if value.startswith("{") and value.endswith("}") and value.count("{") == 1:
            key = value[1:-1]
            if key not in namespace:
                raise BenchConfigError(f"unknown reference {value!r} in template")
            return namespace[key]
        try:
            return value.format(**namespace)
        except KeyError as exc:
            raise BenchConfigError(
                f"unknown reference {exc.args[0]!r} in template string {value!r}"
            ) from None
    if isinstance(value, list):
        return [interpolate(v, namespace) for v in value]
    if isinstance(value, Mapping):
        return {k: interpolate(v, namespace) for k, v in value.items()}
    return value


def _display(value: Any) -> str:
    if isinstance(value, Mapping):
        if "_name" in value:
            return str(value["_name"])
        return "+".join(f"{k}:{v}" for k, v in value.items())
    return str(value)


def _matches(assignment: Mapping[str, Any], pattern: Mapping[str, Any]) -> bool:
    return all(key in assignment and assignment[key] == v for key, v in pattern.items())


def expand_cells(config: BenchConfig) -> list[Cell]:
    """Cross product of all factor values, minus ``exclude`` matches.

    With no factors the matrix is the single cell described by the template
    (cell id equals the label).
    """
    names = list(config.factors)
    cells: list[Cell] = []
    for combo in itertools.product(*(config.factors[n] for n in names)):
        display = {name: _display(value) for name, value in zip(names, combo)}
        # Exclude patterns match either the display strings (stringified, so
        # `nodes = 64` matches display "64") or the raw factor values.
        if any(
            _matches(display, {k: str(v) for k, v in pat.items()})
            or _matches(dict(zip(names, combo)), pat)
            for pat in config.exclude
        ):
            continue
        # Factor fields: scalar factors bind their own name; table-valued
        # factors merge their fields (paired sweeps).
        fields: dict[str, Any] = {}
        for name, value in zip(names, combo):
            if isinstance(value, Mapping):
                fields.update(
                    {k: v for k, v in value.items() if not k.startswith("_")}
                )
            else:
                fields[name] = value
        params = dict(fields)
        params.update(
            {key: interpolate(v, fields) for key, v in config.cell.items()}
        )
        cell_id = (
            ",".join(f"{name}={display[name]}" for name in names)
            if names
            else config.label
        )
        cells.append(Cell(cell_id=cell_id, factors=display, params=params))
    if not cells:
        raise BenchConfigError("matrix expands to zero cells")
    return cells


# --------------------------------------------------------------------- #
# Minimal TOML-subset parser (Python 3.10 fallback)
# --------------------------------------------------------------------- #


def parse_toml_subset(text: str) -> dict[str, Any]:
    """Parse the TOML subset the matrix files use, without :mod:`tomllib`.

    Supported: ``[section]`` / ``[a.b]`` headers, ``key = value`` pairs,
    basic strings (``"``/``'``, with ``\\"`` and ``\\\\`` escapes), integers,
    floats, booleans, (multiline) arrays and inline tables, ``#`` comments.
    Unsupported TOML (dates, dotted keys in assignments, multi-line strings,
    arrays-of-tables headers) raises :class:`BenchConfigError`.
    """
    root: dict[str, Any] = {}
    current = root
    for statement in _logical_lines(text):
        if statement.startswith("["):
            if statement.startswith("[["):
                raise BenchConfigError(
                    f"arrays of tables are not supported: {statement!r}"
                )
            if not statement.endswith("]"):
                raise BenchConfigError(f"malformed section header: {statement!r}")
            current = root
            for part in _split_dotted(statement[1:-1].strip()):
                current = current.setdefault(part, {})
                if not isinstance(current, dict):
                    raise BenchConfigError(f"section clashes with a value: {part!r}")
        else:
            key, value = _parse_assignment(statement)
            current[key] = value
    return root


def _logical_lines(text: str):
    """Comment-stripped statements, joining lines until brackets balance."""
    pending = ""
    depth = 0
    for line in text.splitlines():
        stripped, delta = _strip_comment(line)
        pending = (pending + " " + stripped).strip() if pending else stripped.strip()
        depth += delta
        if depth < 0:
            raise BenchConfigError(f"unbalanced brackets near: {line.strip()!r}")
        if pending and depth == 0:
            yield pending
            pending = ""
    if pending or depth != 0:
        raise BenchConfigError(f"unterminated statement: {pending!r}")


def _strip_comment(line: str) -> tuple[str, int]:
    """Drop a trailing comment; count net bracket depth outside strings."""
    out = []
    depth = 0
    quote = None
    i = 0
    while i < len(line):
        ch = line[i]
        if quote:
            out.append(ch)
            if ch == "\\" and quote == '"' and i + 1 < len(line):
                out.append(line[i + 1])
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            if ch in "[{":
                depth += 1
            elif ch in "]}":
                depth -= 1
            out.append(ch)
        i += 1
    if quote:
        raise BenchConfigError(f"unterminated string in: {line.strip()!r}")
    return "".join(out), depth


def _split_dotted(name: str) -> list[str]:
    parts = []
    for part in _split_top_level(name, "."):
        part = part.strip()
        if part.startswith(('"', "'")):
            part = part[1:-1]
        if not part:
            raise BenchConfigError(f"empty component in section name {name!r}")
        parts.append(part)
    return parts


def _parse_assignment(statement: str) -> tuple[str, Any]:
    if "=" not in statement:
        raise BenchConfigError(f"expected 'key = value': {statement!r}")
    key, _, rest = statement.partition("=")
    key = key.strip()
    if key.startswith(('"', "'")):
        key = key[1:-1]
    if not key or "." in key:
        raise BenchConfigError(f"unsupported key {key!r} (dotted keys not supported)")
    value, remainder = _parse_value(rest.strip())
    if remainder.strip():
        raise BenchConfigError(f"trailing content after value: {remainder!r}")
    return key, value


def _parse_value(text: str) -> tuple[Any, str]:
    """Parse one value from the front of ``text``; return (value, rest)."""
    text = text.lstrip()
    if not text:
        raise BenchConfigError("missing value")
    ch = text[0]
    if ch in "\"'":
        return _parse_string(text)
    if ch == "[":
        return _parse_array(text)
    if ch == "{":
        return _parse_inline_table(text)
    # Bare scalar: runs until a delimiter.
    end = len(text)
    for i, c in enumerate(text):
        if c in ",]}":
            end = i
            break
    token, rest = text[:end].strip(), text[end:]
    if token == "true":
        return True, rest
    if token == "false":
        return False, rest
    try:
        if any(c in token for c in ".eE") and not token.startswith("0x"):
            return float(token), rest
        return int(token, 0), rest
    except ValueError:
        raise BenchConfigError(f"unsupported value {token!r}") from None


def _parse_string(text: str) -> tuple[str, str]:
    quote = text[0]
    out = []
    i = 1
    while i < len(text):
        ch = text[i]
        if ch == "\\" and quote == '"':
            if i + 1 >= len(text):
                break
            nxt = text[i + 1]
            out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
            continue
        if ch == quote:
            return "".join(out), text[i + 1:]
        out.append(ch)
        i += 1
    raise BenchConfigError(f"unterminated string: {text!r}")


def _parse_array(text: str) -> tuple[list[Any], str]:
    rest = text[1:].lstrip()
    out: list[Any] = []
    while True:
        if not rest:
            raise BenchConfigError("unterminated array")
        if rest[0] == "]":
            return out, rest[1:]
        value, rest = _parse_value(rest)
        out.append(value)
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()


def _parse_inline_table(text: str) -> tuple[dict[str, Any], str]:
    rest = text[1:].lstrip()
    out: dict[str, Any] = {}
    while True:
        if not rest:
            raise BenchConfigError("unterminated inline table")
        if rest[0] == "}":
            return out, rest[1:]
        if "=" not in rest:
            raise BenchConfigError(f"expected 'key = value' in inline table: {rest!r}")
        key, _, rest = rest.partition("=")
        key = key.strip()
        if key.startswith(('"', "'")):
            key = key[1:-1]
        value, rest = _parse_value(rest.strip())
        out[key] = value
        rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:].lstrip()


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside quotes (section-name helper)."""
    parts = []
    buf = []
    quote = None
    for ch in text:
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            buf.append(ch)
        elif ch == sep:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    parts.append("".join(buf))
    return parts
