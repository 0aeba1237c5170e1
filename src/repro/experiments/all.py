"""Regenerate every table and figure of the paper.

``repro report`` (:func:`repro.cli.cmd_report`) is the command;
this module holds what it sweeps and renders.  :func:`artifact_cells`
names the (workload, config, machine) cells behind each artifact,
:func:`make_runner` builds the runner a report sweeps on, and
:func:`build_report` pre-computes every selected cell through the
parallel engine (:mod:`repro.experiments.parallel`), then renders the
tables and figures from the warm runner.  The report is identical for
any worker count or cache temperature.

The committed ``results/full_report.txt`` is the output of
``repro report --scale 0.5 --seed 1996 --no-cache --workers 2 -o FILE``;
``benchmarks/test_paper_results.py`` holds it byte-identical and checks
the paper's shapes on the same runner.
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional

from repro.analysis.figures import (ALL_FIGURES, FIG2_SYSTEMS, FIG3_SYSTEMS,
                                    FIG4_SYSTEMS, FIG5_SYSTEMS, SWEEP_SYSTEMS)
from repro.analysis.report import render
from repro.analysis.tables import (ALL_TABLES, MACHINE_COMPARE_SCHEMES,
                                   MACHINE_POINTS, machine_point,
                                   machine_workload)
from repro.common.params import BASE_MACHINE
from repro.common.units import KB
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.runner import Cell, ExperimentRunner
from repro.synthetic.workloads import WORKLOAD_ORDER

#: Paper order of artifacts.
ARTIFACT_ORDER = [
    "table1", "table2", "figure1", "table3", "figure2", "figure3",
    "table4", "table5", "figure4", "figure5", "figure6", "figure7",
]

#: Artifacts ``--only`` accepts beyond the default report: the
#: machine-shape comparison is opt-in (it is not a paper reproduction).
EXTRA_ARTIFACTS = ["machines"]

#: L1D sizes (KB) swept by Figure 6 and line sizes (B) swept by Figure 7.
FIG6_SIZES_KB = (16, 32, 64)
FIG7_LINES = (16, 32, 64)


def artifact_cells(name: str) -> List[Cell]:
    """The (workload, config, machine) cells *name*'s builder will ask
    the runner for — the parallel engine pre-computes exactly these."""
    systems: List[str]
    if name in ("table1", "table2", "table4", "table5", "figure1"):
        systems = ["Base"]
    elif name == "table3":
        systems = ["Base", "Blk_Bypass"]
    elif name == "figure2":
        systems = FIG2_SYSTEMS
    elif name == "figure3":
        systems = FIG3_SYSTEMS
    elif name == "figure4":
        systems = FIG4_SYSTEMS
    elif name == "figure5":
        systems = FIG5_SYSTEMS
    elif name == "machines":
        # The machine axis: each point runs its own-sized server
        # workload on its own machine, Base plus the comparison ladder.
        return [(machine_workload(cpus), s, machine_point(cpus, assoc, bw))
                for (_label, cpus, assoc, bw) in MACHINE_POINTS
                for s in ["Base"] + MACHINE_COMPARE_SCHEMES]
    elif name in ("figure6", "figure7"):
        cells: List[Cell] = []
        if name == "figure6":
            machines = [BASE_MACHINE.with_l1d(size_bytes=kb * KB)
                        for kb in FIG6_SIZES_KB]
        else:
            machines = [BASE_MACHINE.with_l1d(line_bytes=b, l2_line_bytes=64)
                        for b in FIG7_LINES]
        for machine in machines:
            for workload in WORKLOAD_ORDER:
                for system in ["Base"] + [s for s in SWEEP_SYSTEMS
                                          if s != "Base"]:
                    cells.append((workload, system, machine))
        return cells
    else:
        raise KeyError(f"unknown artifact {name!r}; "
                       f"choose from {ARTIFACT_ORDER + EXTRA_ARTIFACTS}")
    return [(w, s, None) for w in WORKLOAD_ORDER for s in systems]


def make_runner(scale: float = 0.5, seed: int = 1996,
                workers: Optional[int] = 1,
                cache_dir: Optional[str] = None,
                ledger: Optional[str] = None) -> ExperimentRunner:
    """The runner a report sweeps on.

    *workers* is the engine's process count (``None`` means
    ``os.cpu_count()``); *cache_dir* attaches a persistent on-disk
    artifact cache; *ledger* is the sweep's run-ledger path.  None of
    them change a report's contents.
    """
    cache = ArtifactCache(cache_dir) if cache_dir else None
    return ExperimentRunner(scale=scale, seed=seed, cache=cache,
                            workers=workers, ledger_path=ledger)


def build_report(runner: ExperimentRunner,
                 only: Optional[List[str]] = None,
                 verbose: bool = True) -> str:
    """Sweep the cells behind the selected artifacts on *runner*, then
    render them; returns the report.  The runner keeps every metric, so
    further renders from it (``repro report --ascii``) simulate nothing.
    """
    wanted = only if only else ARTIFACT_ORDER
    unknown = [n for n in wanted
               if n not in ALL_TABLES and n not in ALL_FIGURES]
    if unknown:
        raise KeyError(f"unknown artifact {unknown[0]!r}; "
                       f"choose from {ARTIFACT_ORDER + EXTRA_ARTIFACTS}")
    cells = list(dict.fromkeys(cell for name in wanted
                               for cell in artifact_cells(name)))
    runner.run_cells(cells, verbose=verbose)
    chunks = [f"Reproduction report (scale={runner.scale}, "
              f"seed={runner.seed})", "=" * 60, ""]
    for name in wanted:
        builder = ALL_TABLES.get(name) or ALL_FIGURES.get(name)
        # Monotonic, like every other duration in the package: an NTP
        # step or suspend must not corrupt the reported build time.
        start = time.monotonic()
        artifact = builder(runner)
        elapsed = time.monotonic() - start
        if verbose:
            print(f"[{name} built in {elapsed:.1f}s]", file=sys.stderr)
        chunks.append(f"### {name}")
        chunks.append(render(artifact))
        chunks.append("")
    if verbose and runner.cache is not None:
        print(f"[artifact cache: {runner.cache.summary()}]", file=sys.stderr)
    if verbose and runner.last_ledger_path:
        print(f"[run ledger: {runner.last_ledger_path} — summarize with "
              f"'python -m repro.experiments.ledger --summarize "
              f"{runner.last_ledger_path}']", file=sys.stderr)
    return "\n".join(chunks)
