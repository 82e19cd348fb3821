"""Experiment harness: paper table/figure runners and matrix projections.

Table I, Fig. 2/5/6 and Table IV have runners; Fig. 4/7/8/9 and Table III
are projections (plus one text formatter each) over the checked-in matrices
run by :mod:`repro.bench`.  Also TEPS and plain-text tables.
"""

from .experiments import (
    UK2007_LITERATURE,
    Fig4Row,
    fig4_rows,
    fig7_speedup_curves,
    fig8_breakdowns,
    fig8_iteration_breakdown,
    fig8_level_breakdown,
    fig9_strong_curves,
    fig9_weak_curves,
    format_fig4,
    format_fig7,
    format_fig8,
    format_fig9,
    format_table3,
    paper_work_scale,
    run_fig2,
    run_fig5,
    run_fig6,
    run_table1,
    run_table4,
    sequential_reference_seconds,
    table3_reports,
)
from .tables import banner, format_series, format_table
from .teps import first_level_seconds, gteps, teps

__all__ = [
    "run_table1",
    "run_fig2",
    "Fig4Row",
    "fig4_rows",
    "format_fig4",
    "run_fig5",
    "table3_reports",
    "format_table3",
    "run_fig6",
    "fig7_speedup_curves",
    "format_fig7",
    "fig8_level_breakdown",
    "fig8_iteration_breakdown",
    "fig8_breakdowns",
    "format_fig8",
    "run_table4",
    "fig9_weak_curves",
    "fig9_strong_curves",
    "format_fig9",
    "UK2007_LITERATURE",
    "format_table",
    "format_series",
    "banner",
    "teps",
    "gteps",
    "first_level_seconds",
    "paper_work_scale",
    "sequential_reference_seconds",
]
