"""Ablation studies on the paper's design choices.

The paper justifies several specific choices with side measurements; each
function here reproduces one of those arguments as a parameter study:

* :func:`update_policy_study` — invalidate-only vs *selective* update vs
  *pure* update (section 5.2: selective update gets within a few percent
  of pure update's misses while saving a large share of its traffic).
* :func:`prefetch_lead_study` — the software-pipelining depth of
  Blk_Pref (section 4.1.1: prefetches must be issued early enough, but
  the prolog grows with the depth).
* :func:`dma_rate_study` — the Blk_Dma bus transfer rate (section 4.2:
  8 bytes per 2 bus cycles; a slower engine erodes the win).
* :func:`write_buffer_depth_study` — write-buffer depth (section 4.1.2:
  "obvious techniques to reduce this stall include deeper write
  buffers").
* :func:`hotspot_count_study` — how many miss hot spots to prefetch
  (section 6 picks 12).

Each study returns a list of :class:`AblationPoint` rows, ready for
:func:`render_study`.  A study simulates its own parameter variants
with :func:`~repro.sim.system.simulate`, in process, and takes its
inputs (traces, the update selection, the BCoh_RelUp profile) from the
runner's caches; it runs no sweep, so it never uses the parallel engine.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.common.types import MissKind, Scheme
from repro.experiments.runner import ExperimentRunner
from repro.optim.hotspots import HotspotPrefetcher
from repro.sim.config import SystemConfig
from repro.sim.system import simulate


@dataclasses.dataclass(frozen=True)
class AblationPoint:
    """One configuration point of a study."""

    label: str
    os_misses: int
    os_time: int
    extra: Dict[str, float]

    def normalized(self, base: "AblationPoint") -> Dict[str, float]:
        return {
            "os_misses": self.os_misses / max(1, base.os_misses),
            "os_time": self.os_time / max(1, base.os_time),
        }


def _point(label: str, metrics, **extra: float) -> AblationPoint:
    return AblationPoint(label, metrics.os_read_misses(),
                         metrics.os_time().total, dict(extra))


def update_policy_study(runner: ExperimentRunner,
                        workload: str) -> List[AblationPoint]:
    """Invalidate-only vs selective update vs pure update (section 5.2)."""
    trace = runner.privatized_trace(workload)
    pages = runner.update_selection(workload).pages
    machine = runner.machine
    invalidate = simulate(trace, SystemConfig(
        "Invalidate", machine, Scheme.DMA, privatize=True))
    selective = simulate(trace, SystemConfig(
        "Selective", machine, Scheme.DMA, privatize=True,
        selective_update=True), update_pages=pages)
    pure = simulate(trace, SystemConfig(
        "Pure", machine, Scheme.DMA, privatize=True, pure_update=True))
    return [
        _point("invalidate", invalidate,
               update_cycles=invalidate.update_traffic_cycles(),
               bus_busy=invalidate.bus_busy_cycles,
               coherence=invalidate.os_miss_kind.get(MissKind.COHERENCE, 0)),
        _point("selective", selective,
               update_cycles=selective.update_traffic_cycles(),
               bus_busy=selective.bus_busy_cycles,
               coherence=selective.os_miss_kind.get(MissKind.COHERENCE, 0)),
        _point("pure", pure,
               update_cycles=pure.update_traffic_cycles(),
               bus_busy=pure.bus_busy_cycles,
               coherence=pure.os_miss_kind.get(MissKind.COHERENCE, 0)),
    ]


def prefetch_lead_study(runner: ExperimentRunner, workload: str,
                        leads: Sequence[int] = (2, 4, 8, 12)
                        ) -> List[AblationPoint]:
    """Blk_Pref software-pipelining depth sweep."""
    trace = runner.trace(workload)
    points = []
    for lead in leads:
        config = SystemConfig(f"Blk_Pref/{lead}", runner.machine,
                              Scheme.PREF, pref_lead_lines=lead)
        metrics = simulate(trace, config)
        points.append(_point(
            f"lead={lead}", metrics,
            block_misses=metrics.os_miss_kind.get(MissKind.BLOCK_OP, 0),
            pref_stall=metrics.os_time().pref,
            prefetches=metrics.prefetches_issued))
    return points


def dma_rate_study(runner: ExperimentRunner, workload: str,
                   bus_cycles_per_beat: Sequence[int] = (1, 2, 4, 8)
                   ) -> List[AblationPoint]:
    """Blk_Dma transfer-rate sweep (the paper's engine: 2 bus cycles)."""
    trace = runner.trace(workload)
    points = []
    for beat in bus_cycles_per_beat:
        machine = dataclasses.replace(
            runner.machine,
            dma=dataclasses.replace(runner.machine.dma,
                                    bus_cycles_per_beat=beat))
        metrics = simulate(trace, SystemConfig(f"Blk_Dma/{beat}", machine,
                                               Scheme.DMA))
        points.append(_point(f"{beat} bus cycles / 8 B", metrics,
                             dma_stall=metrics.dma_stall,
                             dma_ops=metrics.dma_ops))
    return points


def write_buffer_depth_study(runner: ExperimentRunner, workload: str,
                             depths: Sequence[int] = (1, 2, 4, 8, 16)
                             ) -> List[AblationPoint]:
    """Word write-buffer depth sweep (Base machine: 4 entries)."""
    trace = runner.trace(workload)
    points = []
    for depth in depths:
        machine = dataclasses.replace(
            runner.machine,
            write_buffers=dataclasses.replace(
                runner.machine.write_buffers, l1_depth=depth))
        metrics = simulate(trace, SystemConfig(f"wb{depth}", machine))
        points.append(_point(f"depth={depth}", metrics,
                             dwrite=metrics.os_time().dwrite))
    return points


def hotspot_count_study(runner: ExperimentRunner, workload: str,
                        counts: Sequence[int] = (4, 8, 12, 18, 24)
                        ) -> List[AblationPoint]:
    """How many miss hot spots to prefetch (the paper picks 12)."""
    profile = runner.run(workload, "BCoh_RelUp")
    trace = runner.privatized_trace(workload)
    pages = runner.update_selection(workload).pages
    points = []
    for count in counts:
        hot = profile.hottest_pcs(count)
        prefetcher = HotspotPrefetcher(hot)
        transformed = prefetcher.apply(trace)
        config = SystemConfig(f"BCPref/{count}", runner.machine, Scheme.DMA,
                              privatize=True, selective_update=True,
                              hotspot_prefetch=True)
        metrics = simulate(transformed, config, update_pages=pages,
                           hotspot_pcs=hot)
        points.append(_point(f"top-{count}", metrics,
                             prefetches=prefetcher.inserted,
                             pref_stall=metrics.os_time().pref))
    return points


ALL_STUDIES = {
    "update_policy": update_policy_study,
    "prefetch_lead": prefetch_lead_study,
    "dma_rate": dma_rate_study,
    "write_buffer_depth": write_buffer_depth_study,
    "hotspot_count": hotspot_count_study,
}


def render_study(title: str, points: List[AblationPoint]) -> str:
    """Aligned-text rendering of one study's rows."""
    extra_keys: List[str] = []
    for point in points:
        for key in point.extra:
            if key not in extra_keys:
                extra_keys.append(key)
    label_w = max(len(p.label) for p in points) + 2
    lines = [title, ""]
    header = (f"{'point':<{label_w}}{'OS misses':>12}{'OS time':>14}"
              + "".join(f"{k:>14}" for k in extra_keys))
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        row = (f"{p.label:<{label_w}}{p.os_misses:>12,}{p.os_time:>14,}"
               + "".join(f"{p.extra.get(k, 0):>14,.0f}" for k in extra_keys))
        lines.append(row)
    return "\n".join(lines)


def run_study(name: str, workload: str = "TRFD_4", scale: float = 0.3,
              seed: int = 1996,
              runner: Optional[ExperimentRunner] = None,
              cache_dir: Optional[str] = None) -> List[AblationPoint]:
    """Run one named study (convenience for the CLI and benches).

    *cache_dir* attaches the on-disk artifact cache so a study reuses
    traces/derivations produced by earlier sweeps.
    """
    if runner is None:
        from repro.experiments.artifacts import ArtifactCache
        cache = ArtifactCache(cache_dir) if cache_dir else None
        runner = ExperimentRunner(scale=scale, seed=seed, cache=cache)
    try:
        study = ALL_STUDIES[name]
    except KeyError:
        raise KeyError(f"unknown study {name!r}; "
                       f"choose from {sorted(ALL_STUDIES)}") from None
    return study(runner, workload)
