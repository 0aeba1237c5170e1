"""Extension experiments: section 7's future-work directions, built out.

The paper's discussion names two further optimizations it did not
evaluate:

* *"page placement schemes that reduce conflicts in the secondary
  cache"* (Bershad et al., Kessler & Hill) — :func:`page_coloring_study`
  re-generates a workload with a cache-color-aware frame allocator and
  measures the conflict-miss change, including the paper's caveat that
  page-grain placement cannot help the kernel's many sub-page
  structures;
* *"the insertion of more prefetches"*, limited by the kernel's
  pointer-intensive nature — covered by
  :func:`repro.experiments.ablations.hotspot_count_study`.

Both are reported as extensions in EXPERIMENTS.md rather than as paper
reproductions: the paper gives no numbers to match, only the direction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro.common.params import BASE_MACHINE, MachineParams
from repro.common.types import MissKind
from repro.sim.config import SystemConfig
from repro.sim.system import simulate
from repro.synthetic.workloads import WORKLOAD_ORDER, generate


@dataclasses.dataclass(frozen=True)
class ColoringResult:
    """Default-vs-colored page placement on one workload."""

    workload: str
    default_misses: int
    colored_misses: int
    default_other: int
    colored_other: int
    default_os_time: int
    colored_os_time: int

    @property
    def miss_ratio(self) -> float:
        return self.colored_misses / max(1, self.default_misses)

    @property
    def time_ratio(self) -> float:
        return self.colored_os_time / max(1, self.default_os_time)


def page_coloring_study(workload: str, seed: int = 1996, scale: float = 0.3,
                        machine: MachineParams = BASE_MACHINE,
                        ) -> ColoringResult:
    """Measure cache-color-aware page placement on *workload*."""
    config = SystemConfig("coloring-probe", machine)
    default = simulate(generate(workload, seed=seed, scale=scale), config)
    colored = simulate(
        generate(workload, seed=seed, scale=scale, frame_policy="colored"),
        config)
    return ColoringResult(
        workload=workload,
        default_misses=default.os_read_misses(),
        colored_misses=colored.os_read_misses(),
        default_other=default.os_miss_kind.get(MissKind.OTHER, 0),
        colored_other=colored.os_miss_kind.get(MissKind.OTHER, 0),
        default_os_time=default.os_time().total,
        colored_os_time=colored.os_time().total,
    )


def page_coloring_sweep(seed: int = 1996, scale: float = 0.3,
                        workloads: List[str] = None,
                        ) -> Dict[str, ColoringResult]:
    """Run the coloring study on every workload, in workload order."""
    return {w: page_coloring_study(w, seed=seed, scale=scale)
            for w in workloads or WORKLOAD_ORDER}

