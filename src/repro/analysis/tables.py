"""Builders for Tables 1-5 of the paper.

Each function takes an :class:`~repro.experiments.runner.ExperimentRunner`
and returns a :class:`TableData` whose rows match the paper's table
row-for-row (columns are the four workloads, in the paper's order).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.common.types import MissKind, Mode
from repro.experiments.runner import ExperimentRunner
from repro.optim.deferred import analyze_deferred, deferred_miss_saving
from repro.sim.config import resolve_config
from repro.synthetic.workloads import WORKLOAD_ORDER


class TableData:
    """A labelled 2-D table of numbers (rows x workloads)."""

    def __init__(self, name: str, title: str, row_labels: Sequence[str],
                 col_labels: Sequence[str]) -> None:
        self.name = name
        self.title = title
        self.row_labels = list(row_labels)
        self.col_labels = list(col_labels)
        self.cells: List[List[float]] = [
            [0.0] * len(self.col_labels) for _ in self.row_labels]

    def set(self, row: int, col: int, value: float) -> None:
        self.cells[row][col] = value

    def row(self, label: str) -> List[float]:
        return self.cells[self.row_labels.index(label)]

    def cell(self, row_label: str, col_label: str) -> float:
        return self.cells[self.row_labels.index(row_label)][
            self.col_labels.index(col_label)]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {rl: {cl: self.cells[i][j]
                     for j, cl in enumerate(self.col_labels)}
                for i, rl in enumerate(self.row_labels)}


def _fill(table: TableData, runner: ExperimentRunner,
          rows: Sequence[Callable], config: str = "Base") -> TableData:
    for col, workload in enumerate(table.col_labels):
        metrics = runner.run(workload, config)
        for row, fn in enumerate(rows):
            table.set(row, col, fn(metrics))
    return table


TABLE1_ROWS = [
    "User Time (%)",
    "Idle Time (%)",
    "OS Time (%)",
    "Stall Time Due to OS D-Accesses (% of Total Time)",
    "D-Miss Rate in Primary Cache (%)",
    "OS D-Reads / Total D-Reads (%)",
    "OS D-Misses / Total D-Misses (%)",
]


def table1(runner: ExperimentRunner) -> TableData:
    """Table 1: characteristics of the workloads studied."""
    table = TableData("table1", "Characteristics of the workloads studied",
                      TABLE1_ROWS, WORKLOAD_ORDER)
    rows = [
        lambda m: 100.0 * m.mode_fraction(Mode.USER),
        lambda m: 100.0 * m.mode_fraction(Mode.IDLE),
        lambda m: 100.0 * m.mode_fraction(Mode.OS),
        lambda m: 100.0 * m.os_data_stall_fraction(),
        lambda m: 100.0 * m.data_miss_rate(),
        lambda m: 100.0 * m.os_read_share(),
        lambda m: 100.0 * m.os_miss_share(),
    ]
    return _fill(table, runner, rows)


TABLE2_ROWS = ["Block Op. (%)", "Coherence (%)", "Other (%)"]


def table2(runner: ExperimentRunner) -> TableData:
    """Table 2: breakdown of operating system data misses."""
    table = TableData("table2", "Breakdown of OS data misses (read misses)",
                      TABLE2_ROWS, WORKLOAD_ORDER)
    rows = [
        lambda m: 100.0 * m.miss_kind_fractions()[MissKind.BLOCK_OP],
        lambda m: 100.0 * m.miss_kind_fractions()[MissKind.COHERENCE],
        lambda m: 100.0 * m.miss_kind_fractions()[MissKind.OTHER],
    ]
    return _fill(table, runner, rows)


TABLE3_ROWS = [
    "Src lines already cached (%)",
    "Dst lines already in secondary cache and Dirty or Excl. (%)",
    "Dst lines already in secondary cache and Shared (%)",
    "Blocks of size = 4 Kbytes (%)",
    "Blocks of size < 4 Kbytes and >= 1 Kbyte (%)",
    "Blocks of size < 1 Kbyte (%)",
    "Inside displacement misses / total data misses (%)",
    "Outside displacement misses / total data misses (%)",
    "Inside reuses / total data misses (%)",
    "Outside reuses / total data misses (%)",
]


def table3(runner: ExperimentRunner) -> TableData:
    """Table 3: characteristics of the block operations.

    Rows 1-8 are measured on the Base system; rows 9-10 (reuses) require
    simulating cache bypassing, exactly as in section 4.1.3.
    """
    table = TableData("table3", "Characteristics of the block operations",
                      TABLE3_ROWS, WORKLOAD_ORDER)
    for col, workload in enumerate(WORKLOAD_ORDER):
        base = runner.run(workload, "Base")
        bypass = runner.run(workload, "Blk_Bypass")
        blocks = base.blockops
        sizes = blocks.size_distribution()
        total = max(1, base.total_data_misses())
        bypass_total = max(1, bypass.total_data_misses())
        values = [
            blocks.pct_src_cached(),
            blocks.pct_dst_owned(),
            blocks.pct_dst_shared(),
            sizes["page"],
            sizes["1k_to_page"],
            sizes["lt_1k"],
            100.0 * base.displacement_inside / total,
            100.0 * base.displacement_outside / total,
            100.0 * bypass.reuse_inside / bypass_total,
            100.0 * bypass.reuse_outside / bypass_total,
        ]
        for row, value in enumerate(values):
            table.set(row, col, value)
    return table


TABLE4_ROWS = [
    "Small Block Copies / Block Copies (%)",
    "Read-Only Small Block Copies / Small Block Copies (%)",
    "Misses Eliminated by Deferred Copy / Total Data Misses (%)",
]


def table4(runner: ExperimentRunner) -> TableData:
    """Table 4: characteristics of copies of blocks smaller than a page.

    Row 3 compares the sweep's Base cell with a Base simulation of the
    deferred trace, the one simulation this table runs itself.
    """
    table = TableData("table4", "Copies of blocks smaller than a page",
                      TABLE4_ROWS, WORKLOAD_ORDER)
    config = resolve_config("Base", runner.machine)
    for col, workload in enumerate(WORKLOAD_ORDER):
        trace = runner.trace(workload)
        analysis = analyze_deferred(trace)
        saving = deferred_miss_saving(trace, config,
                                      base=runner.run(workload, "Base"))
        table.set(0, col, 100.0 * analysis.small_copy_fraction)
        table.set(1, col, 100.0 * analysis.read_only_fraction)
        table.set(2, col, max(0.0, 100.0 * saving))
    return table


TABLE5_ROWS = ["Barriers (%)", "Infreq. Com. (%)", "Freq. Shared (%)",
               "Locks (%)", "Other (%)"]

_T5_KEYS = ["Barriers", "Infreq. Com.", "Freq. Shared", "Locks", "Other"]


def table5(runner: ExperimentRunner) -> TableData:
    """Table 5: breakdown of coherence misses in the operating system."""
    table = TableData("table5", "Breakdown of OS coherence misses",
                      TABLE5_ROWS, WORKLOAD_ORDER)
    for col, workload in enumerate(WORKLOAD_ORDER):
        breakdown = runner.run(workload, "Base").coherence_breakdown()
        for row, key in enumerate(_T5_KEYS):
            table.set(row, col, 100.0 * breakdown[key])
    return table


#: The machine axis the 1996 testbed lacked: CPU count, cache set
#: associativity and bus width vary together, the way real machines of
#: each size were provisioned.  Point 0 is the paper's exact machine.
MACHINE_POINTS = [
    ("4cpu-1way-8B", 4, 1, None),
    ("8cpu-2way-16B", 8, 2, 16),
    ("16cpu-4way-16B", 16, 4, 16),
    ("32cpu-4way-32B", 32, 4, 32),
]

#: Schemes of the machine comparison: the paper's coherence ladder plus
#: the adaptive hybrids at swept knob values (``Hyb_UpdN``/``Hyb_Deg``
#: are the canonical N=4 / T=2 points).
MACHINE_COMPARE_SCHEMES = ["Blk_Dma", "BCoh_Reloc", "BCoh_RelUp",
                           "Hyb_UpdN@N2", "Hyb_UpdN", "Hyb_UpdN@N8",
                           "Hyb_Deg@T1", "Hyb_Deg", "Hyb_Deg@T4"]

MACHINE_ROWS = ([f"{s} OS Time (% of Base)" for s in MACHINE_COMPARE_SCHEMES]
                + [f"{s} OS Misses (% of Base)"
                   for s in MACHINE_COMPARE_SCHEMES])


def machine_point(num_cpus: int, assoc: int, bus_width):
    """The :class:`MachineParams` of one ``MACHINE_POINTS`` entry."""
    from repro.common.params import machine_for
    return machine_for(num_cpus, assoc=assoc, bus_width_bytes=bus_width)


def machine_workload(num_cpus: int) -> str:
    """The server-family workload sized to one machine point.

    A self-describing ``gen:`` name, so worker processes reconstruct
    the profile without any registry side channel.
    """
    return f"gen:server:c{num_cpus}:i060:steady:0:0"


def machines_table(runner: ExperimentRunner) -> TableData:
    """Scheme comparison across machine shapes (normalized per machine).

    Every column is one machine point of :data:`MACHINE_POINTS` running
    the server workload family scaled to its own CPU count; every cell
    is normalized to the *same machine's* Base, so columns answer "does
    this scheme still pay off on this machine?" rather than comparing
    absolute times across machine sizes.
    """
    table = TableData("machines",
                      "Schemes across machine shapes "
                      "(normalized to each machine's Base)",
                      MACHINE_ROWS,
                      [label for label, _, _, _ in MACHINE_POINTS])
    n = len(MACHINE_COMPARE_SCHEMES)
    for col, (_label, cpus, assoc, bus_width) in enumerate(MACHINE_POINTS):
        machine = machine_point(cpus, assoc, bus_width)
        workload = machine_workload(cpus)
        base = runner.run(workload, "Base", machine=machine)
        base_time = max(1, base.os_time().total)
        base_misses = max(1, base.os_read_misses())
        for row, scheme in enumerate(MACHINE_COMPARE_SCHEMES):
            m = runner.run(workload, scheme, machine=machine)
            table.set(row, col, 100.0 * m.os_time().total / base_time)
            table.set(row + n, col,
                      100.0 * m.os_read_misses() / base_misses)
    return table


ALL_TABLES = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "machines": machines_table,
}
