"""Aligned-text rendering of tables and figure data.

The experiment drivers print the same rows/series the paper reports; these
helpers keep the formatting in one place so tests, benchmarks, examples
and ``repro report`` all produce identical output.
"""

from __future__ import annotations

from typing import List

from repro.analysis.figures import BarChart, LineChart
from repro.analysis.tables import TableData


def render_table(table: TableData, decimals: int = 1) -> str:
    """Render a :class:`TableData` as aligned text."""
    label_width = max(len(label) for label in table.row_labels)
    col_width = max(8, max(len(c) for c in table.col_labels) + 2)
    lines = [table.title, ""]
    header = " " * label_width + "".join(
        f"{c:>{col_width}}" for c in table.col_labels)
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in zip(table.row_labels, table.cells):
        cells = "".join(f"{v:>{col_width}.{decimals}f}" for v in row)
        lines.append(f"{label:<{label_width}}{cells}")
    return "\n".join(lines)


def render_bar_chart(chart: BarChart, decimals: int = 2) -> str:
    """Render a :class:`BarChart` as one block per workload."""
    lines: List[str] = [chart.title, ""]
    sys_width = max(len(s) for s in chart.systems) + 2
    seg_width = max(10, max(len(s) for s in chart.segments) + 2)
    for workload in chart.workloads:
        lines.append(f"[{workload}]")
        header = " " * sys_width + "".join(
            f"{seg:>{seg_width}}" for seg in chart.segments)
        lines.append(header + f"{'Total':>{seg_width}}")
        for system in chart.systems:
            segs = chart.values[workload][system]
            cells = "".join(f"{segs[seg]:>{seg_width}.{decimals}f}"
                            for seg in chart.segments)
            total = chart.total(workload, system)
            lines.append(f"{system:<{sys_width}}{cells}"
                         f"{total:>{seg_width}.{decimals}f}")
        lines.append("")
    return "\n".join(lines)


def render_line_chart(chart: LineChart, decimals: int = 3) -> str:
    """Render a :class:`LineChart` as one block per workload."""
    lines: List[str] = [chart.title, ""]
    sys_width = max(len(s) for s in chart.systems) + 2
    for workload in chart.workloads:
        lines.append(f"[{workload}]  ({chart.x_label})")
        header = " " * sys_width + "".join(
            f"{x:>10}" for x in chart.x_values)
        lines.append(header)
        for system in chart.systems:
            cells = "".join(
                f"{chart.values[workload][system][x]:>10.{decimals}f}"
                for x in chart.x_values)
            lines.append(f"{system:<{sys_width}}{cells}")
        lines.append("")
    return "\n".join(lines)


def render(artifact) -> str:
    """Render any table/figure artifact."""
    if isinstance(artifact, TableData):
        return render_table(artifact)
    if isinstance(artifact, BarChart):
        return render_bar_chart(artifact)
    if isinstance(artifact, LineChart):
        return render_line_chart(artifact)
    raise TypeError(f"cannot render {type(artifact).__name__}")
