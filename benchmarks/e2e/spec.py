"""What the end-to-end benchmark measures: workloads, cells, metrics.

The parent process of ``run.py`` imports this module without importing
``repro``, so cell lists are built lazily by :func:`cells`.  The names,
units, directions and bounds of the driver-facing metrics, and each
workload's reason, live in ``BENCHMARK.json`` at the repository root;
README.md maps every per-layer metric to its layer and to the
end-to-end metric it should move.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_DIR = os.path.join(HERE, "expected")
#: Scratch space for artifact caches, ledgers and span files; removed
#: piecewise as runs finish.  The root .gitignore already ignores
#: ``.benchmarks/``.
WORK_DIR = os.path.join(ROOT, ".benchmarks", "e2e")

DEFAULT_SEED = 1996


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    #: The workload whose cells the cProfile pass of a traced run replays.
    profile_trace: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Scale 0.25 is the golden pins' scale; 0.05 is the 4-round floor of
    # compile_profile for the generated server workloads.
    Workload("paper-grid", 0.25, "Shell"),
    Workload("machine-axis", 0.05, "gen:server:c16:i060:steady:0:0"),
    Workload("cache-geometry", 0.1, "Shell"),
)}


def cells(name: str) -> List[Tuple[str, str, object]]:
    """The (workload, config, machine) cells of benchmark workload *name*."""
    from repro.analysis.tables import (MACHINE_POINTS, machine_point,
                                       machine_workload)
    from repro.common.params import BASE_MACHINE
    from repro.experiments.all import artifact_cells
    from repro.sim.config import all_configs
    from repro.synthetic.workloads import WORKLOAD_ORDER

    schemes = list(all_configs())
    if name == "paper-grid":
        return [(w, s, BASE_MACHINE) for w in WORKLOAD_ORDER for s in schemes]
    if name == "machine-axis":
        return [(machine_workload(cpus), s, machine_point(cpus, assoc, bw))
                for (_label, cpus, assoc, bw) in MACHINE_POINTS
                if cpus > 4 for s in schemes]
    if name == "cache-geometry":
        return artifact_cells("figure6") + artifact_cells("figure7")
    raise KeyError(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")


def machine_label(machine) -> str:
    """Readable identity of a machine, stable across new parameter fields."""
    return (f"{machine.num_cpus}cpu-{machine.l1d.assoc}way"
            f"-l1d{machine.l1d.size_bytes // 1024}Kx{machine.l1d.line_bytes}B"
            f"-l2line{machine.l2.line_bytes}B-bus{machine.bus.width_bytes}B")


def cell_label(workload: str, config: str, machine) -> str:
    return f"{workload}|{config}|{machine_label(machine)}"


# ----------------------------------------------------------------------
# Metric tables
# ----------------------------------------------------------------------
#: Every timed end-to-end number of an untraced run, (name, unit).  The
#: BENCHMARK.json end_to_end metrics are among them; the rest are
#: reported beside them.  Times are in reference seconds
#: (:mod:`hostspeed`) unless named ``*_raw_s``.
E2E_METRICS: List[Tuple[str, str]] = [
    ("setup_s", "s"), ("sweep_rec_per_s", "1/s"), ("warm_s", "s"),
    ("peak_rss_mb", "MB"), ("sweep_s", "s"), ("setup_raw_s", "s"),
    ("sweep_raw_s", "s"), ("warm_raw_s", "s"),
]

#: Exact end-to-end checks, (name, unit).  Not driver metrics:
#: failed_frac is 0 on a healthy run (the driver's ``failed`` and
#: ``attempted`` carry it) and the figure errors exist only on
#: paper-grid.
EXACT_E2E: List[Tuple[str, str]] = [
    ("failed_frac", "ratio"), ("fig3_err", "abs"), ("fig2_err", "abs"),
]

#: Host-profile buckets of the cProfile pass, by ``repro`` module.
HOST_MODULES = ["sim.system", "sim.processor", "sim.sync", "sim.metrics",
                "memsys.cache", "memsys.hierarchy", "memsys.writebuffer",
                "memsys.bus", "memsys.coherence", "memsys.adaptive",
                "memsys.dma", "memsys.prefetch", "trace.columns", "other"]


def load_benchmark_json(path: str = BENCHMARK_JSON) -> dict:
    with open(path) as fp:
        return json.load(fp)
