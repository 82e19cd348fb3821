"""Render a ``BENCH_*.json`` summary as a markdown run table.

``repro bench report`` output: one markdown table, optionally split into
sections by a factor (``--group-by ranks`` renders one table per rank
count).  Cells keep the column set small -- medians with dispersion -- and
point at the CSV for the repetition-level data.  A closing table lists the
seconds each distinct graph took to build (set-up, outside every cell's
wall time).
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["format_bench_report", "format_markdown_table"]


def format_markdown_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]

    def line(cells: list[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(header), sep, *(line(r) for r in rows)])


def _stat(cell: Mapping[str, Any], metric: str) -> str:
    stats = cell.get("metrics", {}).get(metric)
    if stats is None:
        return "-"
    flag = "*" if stats.get("outliers") else ""
    return f"{stats['median']:.4g} ±{stats['stdev']:.2g} (cv {stats['cv']:.1%}){flag}"


def _scalar(cell: Mapping[str, Any], name: str) -> str:
    value = cell.get("scalars", {}).get(name)
    return "-" if value is None else f"{value:g}"


def format_bench_report(
    summary: Mapping[str, Any], *, group_by: str | None = None
) -> str:
    """Markdown report for one BENCH summary."""
    env = summary.get("environment", {})
    lines = [
        f"# bench: {summary.get('label', '?')}",
        "",
        f"- created: {env.get('created', '?')}  sha: {env.get('git_sha', '?')}",
        f"- python {env.get('python', '?')}, numpy {env.get('numpy', '?')}, "
        f"{env.get('platform', '?')}",
        f"- repetitions: {summary.get('config', {}).get('repetitions', '?')} "
        f"(+{summary.get('config', {}).get('warmup', '?')} warmup); "
        "`*` marks cells with MAD-flagged outlier repetitions",
        "",
    ]
    cells = summary.get("cells", {})
    if not cells:
        lines.append("(no cells)")
        return "\n".join(lines)

    groups: dict[str, list[tuple[str, Mapping[str, Any]]]] = {}
    for cell_id, cell in cells.items():
        if group_by is None:
            key = ""
        else:
            key = str(cell.get("factors", {}).get(group_by, "?"))
        groups.setdefault(key, []).append((cell_id, cell))

    header = [
        "cell", "n", "wall_s", "modeled_s", "gteps", "Q", "levels", "iters",
        "peak_mem",
    ]
    for key in sorted(groups):
        if group_by is not None:
            lines += [f"## {group_by} = {key}", ""]
        rows = []
        for cell_id, cell in groups[key]:
            mem = cell.get("metrics", {}).get("peak_mem_bytes")
            rows.append([
                cell_id + (" (TIMEOUT)" if cell.get("timed_out") else ""),
                str(cell.get("repetitions", "?")),
                _stat(cell, "wall_s"),
                _stat(cell, "modeled_s"),
                _stat(cell, "gteps"),
                _stat(cell, "modularity"),
                _scalar(cell, "num_levels"),
                _scalar(cell, "num_iterations"),
                "-" if mem is None else f"{mem['median'] / 1e6:.1f} MB",
            ])
        lines += [format_markdown_table(header, rows), ""]
    builds = summary.get("graphs", [])
    if builds:
        lines += ["## graph set-up", ""]
        lines.append(format_markdown_table(
            ["graph", "family", "build_s"],
            [
                [
                    str(b.get("graph", "?")),
                    str(b.get("spec", {}).get("family", "?")),
                    f"{b['build_s']:.4g}",
                ]
                for b in builds
            ],
        ))
    return "\n".join(lines).rstrip() + "\n"
