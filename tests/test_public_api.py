"""Guards on the public API surface and repository artifacts."""

import importlib
import json
import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _fresh(code: str):
    """Run ``code`` in a new interpreter that sees only ``src/``.

    pytest has imported half the package already, so import-graph checks
    need their own process.  ``code`` prints one JSON document.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


#: Tooling and scipy, which a service boot and a detection job never use.
OFF_THE_SERVE_PATH = [
    "scipy", "repro.analysis.linter", "repro.analysis.checkers",
    "repro.harness", "repro.bench", "repro.loadgen", "repro.generators",
]


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_everything_in_all_exists(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.graph", "repro.hashing", "repro.generators", "repro.metrics",
            "repro.sequential", "repro.runtime", "repro.parallel",
            "repro.harness", "repro.cli", "repro.loadgen",
        ],
    )
    def test_submodule_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_headline_entry_points_callable(self):
        assert callable(repro.detect_communities)
        assert callable(repro.parallel_louvain)
        assert callable(repro.sequential_louvain)
        assert callable(repro.modularity)


class TestLazySurface:
    """``import repro`` loads subpackages on first access, not eagerly."""

    def test_every_exported_name_resolves_and_is_listed(self):
        missing = _fresh(
            "import json, repro, repro.analysis as a\n"
            "print(json.dumps(\n"
            "    [n for n in repro.__all__ if n not in dir(repro) or not hasattr(repro, n)]\n"
            "    + [n for n in a.__all__ if n not in dir(a) or not hasattr(a, n)]))"
        )
        assert missing == []

    def test_from_import_of_a_subpackage(self):
        assert _fresh(
            "import json\nfrom repro import harness\n"
            "print(json.dumps(harness.__name__))"
        ) == "repro.harness"

    def test_linter_names_see_the_builtin_checkers(self):
        doc = _fresh(
            "import json\nfrom repro.analysis import run_checks, CHECKERS\n"
            "print(json.dumps(sorted({c.profile for c in CHECKERS.values()})))"
        )
        assert doc == ["concurrency", "spmd"]

    def test_linter_module_alone_runs_the_builtin_checkers(self):
        fixtures = str(REPO_ROOT / "tests" / "analysis" / "fixtures")
        assert _fresh(
            "import json\nfrom repro.analysis.linter import run_checks\n"
            f"print(json.dumps(len(run_checks([{fixtures!r}])) > 0))"
        ) is True

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name  # noqa: B018
        with pytest.raises(AttributeError):
            repro.analysis.no_such_name  # noqa: B018

    def test_contingency_table_is_still_scipy_csr(self):
        import scipy.sparse as sp

        from repro.metrics import contingency_table

        table = contingency_table([0, 0, 1], [1, 1, 0])
        assert isinstance(table, sp.csr_matrix)
        assert table.toarray().tolist() == [[0, 2], [1, 0]]


class TestImportGraph:
    """The serve path and a job's first detection stay free of tooling."""

    def test_serve_path_loads_no_tooling(self):
        loaded = _fresh(
            "import json, sys\nimport repro, repro.cli, repro.service\n"
            f"print(json.dumps([m for m in {OFF_THE_SERVE_PATH!r} "
            "if m in sys.modules]))"
        )
        assert loaded == []

    def test_detection_path_loads_no_scipy(self):
        assert _fresh(
            "import json, sys\nimport repro.parallel\n"
            "print(json.dumps('scipy' in sys.modules))"
        ) is False


class TestRepositoryArtifacts:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_docs_present_and_substantial(self, doc):
        path = REPO_ROOT / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 2000, doc

    def test_all_examples_compile(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_all_benchmarks_compile(self):
        benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        assert len(benches) >= 13  # 10 paper artifacts + ablations/extensions
        for path in benches:
            py_compile.compile(str(path), doraise=True)

    def test_design_maps_every_figure(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for artifact in (
            "Table I", "Fig. 2", "Fig. 4", "Fig. 5", "Table III",
            "Fig. 6", "Fig. 7", "Fig. 8", "Table IV", "Fig. 9",
        ):
            assert artifact in design, artifact
