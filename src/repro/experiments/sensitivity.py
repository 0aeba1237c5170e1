"""Seed-sensitivity analysis: how stable are the reported quantities?

The synthetic workloads are stochastic; before arguing from a measured
ratio the harness should know its spread.  :func:`seed_sweep` re-runs a
workload across seeds and reports mean/min/max/stddev for the key
normalized quantities of Tables 1-2 and Figure 3:

* OS share of time, reads and misses;
* the block/coherence/other miss split;
* the Blk_Dma and BCPref speedups over Base.

Each seed runs on its own :class:`~repro.experiments.runner.ExperimentRunner`
(every quantity is a handful of :meth:`~ExperimentRunner.run` calls, not
a sweep).  The benchmark/shape assertions in ``benchmarks/`` were set
with these spreads in mind.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence

from repro.common.types import MissKind, Mode
from repro.experiments.runner import ExperimentRunner


@dataclasses.dataclass(frozen=True)
class Spread:
    """Summary statistics of one quantity across seeds."""

    mean: float
    stddev: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Spread":
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        return cls(mean, math.sqrt(var), min(values), max(values))

    @property
    def relative_spread(self) -> float:
        """(max - min) / mean — a quick stability indicator."""
        return (self.maximum - self.minimum) / self.mean if self.mean else 0.0


def _quantities(runner: ExperimentRunner, workload: str,
                with_optimized: bool) -> Dict[str, float]:
    base = runner.run(workload, "Base")
    kinds = base.miss_kind_fractions()
    out = {
        "os_time_share": base.mode_fraction(Mode.OS),
        "os_read_share": base.os_read_share(),
        "os_miss_share": base.os_miss_share(),
        "block_miss_share": kinds[MissKind.BLOCK_OP],
        "coherence_miss_share": kinds[MissKind.COHERENCE],
        "other_miss_share": kinds[MissKind.OTHER],
    }
    if with_optimized:
        base_time = max(1, base.os_time().total)
        out["dma_time_ratio"] = (
            runner.run(workload, "Blk_Dma").os_time().total / base_time)
        out["bcpref_time_ratio"] = (
            runner.run(workload, "BCPref").os_time().total / base_time)
        out["bcpref_miss_ratio"] = (
            runner.run(workload, "BCPref").os_read_misses()
            / max(1, base.os_read_misses()))
    return out


def seed_sweep(workload: str, seeds: Sequence[int] = (1, 2, 3, 4, 5),
               scale: float = 0.25,
               with_optimized: bool = False) -> Dict[str, Spread]:
    """Run *workload* across *seeds* and summarize the key quantities."""
    samples: Dict[str, List[float]] = {}
    for seed in seeds:
        runner = ExperimentRunner(scale=scale, seed=seed)
        for name, value in _quantities(runner, workload,
                                       with_optimized).items():
            samples.setdefault(name, []).append(value)
    return {name: Spread.of(values) for name, values in samples.items()}


def render_sweep(workload: str, spreads: Dict[str, Spread]) -> str:
    """Aligned-text rendering of a seed sweep."""
    name_w = max(len(n) for n in spreads) + 2
    lines = [f"Seed sensitivity: {workload}", ""]
    lines.append(f"{'quantity':<{name_w}}{'mean':>9}{'std':>9}"
                 f"{'min':>9}{'max':>9}{'spread':>9}")
    lines.append("-" * (name_w + 45))
    for name, spread in spreads.items():
        lines.append(
            f"{name:<{name_w}}{spread.mean:>9.3f}{spread.stddev:>9.3f}"
            f"{spread.minimum:>9.3f}{spread.maximum:>9.3f}"
            f"{spread.relative_spread:>9.2f}")
    return "\n".join(lines)
