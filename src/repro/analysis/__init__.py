"""Static analysis and runtime invariant checking (``repro check``).

Two prongs guard the SPMD discipline the paper's algorithm depends on:

* **AST linter** (:mod:`repro.analysis.linter` + built-in
  :mod:`repro.analysis.checkers`): superstep-safety rules over kernel
  source -- cross-rank state access outside the MessageBus, In_Table
  mutation during REFINE, Out_Table reuse without reset, arithmetic on
  packed Eq.-5 keys.  Run via ``repro check <paths>`` or
  :func:`run_checks`; the registry is pluggable via
  :func:`register_checker`.

* **Runtime sanitizer** (:mod:`repro.analysis.sanitizer`): opt-in contract
  hooks inside the hash tables, the bus and the parallel kernels that
  verify key-packing bounds, In_Table immutability per level, weight
  conservation across RECONSTRUCTION, Eq.-7 epsilon bounds and
  per-superstep rank participation.  Enable with ``REPRO_SANITIZE=1`` or
  ``detect_communities(..., sanitize=True)``; violations raise
  :class:`InvariantViolation` with the offending rank/level/iteration.

Only the sanitizer loads with the package, because the runtime path calls
it; the linter names load on first access.
"""

import importlib

from .sanitizer import (
    NULL_SANITIZER,
    InvariantViolation,
    NullSanitizer,
    Sanitizer,
    resolve_sanitizer,
    sanitize_enabled,
)

#: Linter name -> the submodule defining it (a submodule maps to itself).
#: These load on first access; the runtime path needs only the sanitizer.
_LINTER_NAMES = {
    "checkers": "checkers",
    "findings": "findings",
    "linter": "linter",
    "locks": "locks",
    "Finding": "findings",
    "format_findings": "findings",
    "findings_to_json": "findings",
    "findings_to_sarif": "findings",
    "CHECKERS": "linter",
    "CheckerBase": "linter",
    "Suppression": "linter",
    "apply_baseline": "linter",
    "available_profiles": "linter",
    "check_file": "linter",
    "get_checkers": "linter",
    "iter_python_files": "linter",
    "list_suppressions": "linter",
    "load_baseline": "linter",
    "register_checker": "linter",
    "run_checks": "linter",
}

__all__ = [
    "Finding",
    "format_findings",
    "findings_to_json",
    "findings_to_sarif",
    "CheckerBase",
    "CHECKERS",
    "register_checker",
    "get_checkers",
    "available_profiles",
    "iter_python_files",
    "check_file",
    "run_checks",
    "load_baseline",
    "apply_baseline",
    "list_suppressions",
    "Suppression",
    "InvariantViolation",
    "Sanitizer",
    "NullSanitizer",
    "NULL_SANITIZER",
    "sanitize_enabled",
    "resolve_sanitizer",
]


def __getattr__(name: str):
    """Load a linter submodule or name on first access (PEP 562).

    The built-in checkers register on import, so they are loaded first:
    whichever linter name a caller reaches, :data:`CHECKERS` is complete.
    """
    try:
        module = _LINTER_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    importlib.import_module(f"{__name__}.checkers")
    importlib.import_module(f"{__name__}.locks")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LINTER_NAMES))
