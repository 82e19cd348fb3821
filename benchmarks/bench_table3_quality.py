"""Table III -- quality comparison on community structure.

NMI / F-measure / NVD / RI / ARI / JI between the sequential and parallel
partitions on Amazon, ND-Web and LFR(mu=0.4 / 0.5), at full proxy scale.

The matrix (table3_quality.toml) runs both variants per graph with
``keep_membership=True``; :func:`repro.harness.table3_reports` pairs the
partitions.  ``repro experiment table3`` prints the same projection.
"""

import os

from conftest import once

from repro.bench import load_config, run_matrix
from repro.harness import format_table3, table3_reports

MATRIX_DIR = os.path.join(os.path.dirname(__file__), "matrices")


def _run_reports() -> dict:
    config = load_config(os.path.join(MATRIX_DIR, "table3_quality.toml"))
    return table3_reports(run_matrix(config, keep_membership=True))


def test_table3_partition_similarity(benchmark):
    by_name = once(benchmark, _run_reports)

    print()
    print(format_table3(by_name))

    # Paper shape: NVD close to 0 and the rest close to 1, strongest on the
    # structured graphs.  Proxy scale loosens the absolute numbers (see
    # EXPERIMENTS.md) but the ordering and regime must hold.
    for name in ("Amazon", "ND-Web", "LFR(mu=0.4)"):
        rep = by_name[name]
        assert rep.nmi > 0.7, name
        assert rep.rand_index > 0.9, name
        assert rep.nvd < 0.35, name
    # Weaker community structure (mu=0.5) yields lower but still substantial
    # agreement -- same ordering as the paper's Table III.
    assert by_name["LFR(mu=0.5)"].rand_index > 0.85
    assert by_name["LFR(mu=0.4)"].nmi >= by_name["LFR(mu=0.5)"].nmi - 0.05
    # Strongly structured graphs agree more (paper: ND-Web > Amazon).
    assert by_name["ND-Web"].nmi > 0.75
