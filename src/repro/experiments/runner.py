"""Experiment runner: the per-process cache of artifacts and metrics.

Reproducing a figure needs several coordinated steps — generate the
workload trace, profile it on the Base machine, derive the optimization
inputs (the privatized trace, the update-protocol page set, the hot-spot
basic blocks, the prefetch-annotated trace), and simulate the requested
configuration.  :class:`ExperimentRunner` performs and caches each step so
a full table/figure sweep generates each trace and derived artifact once.
:meth:`ExperimentRunner.run` is the body of every sweep job and the
serial reference the determinism tests compare against; sweeps
themselves (:meth:`~ExperimentRunner.run_cells`) always run through
:meth:`repro.experiments.parallel.ParallelEngine.execute`, at any worker
count.

Caching is two-level: every artifact lives in this process's in-memory
maps, and — when the runner is given an
:class:`~repro.experiments.artifacts.ArtifactCache` — the raw trace, the
update selection and the hot spots also persist in the
content-addressed on-disk cache, shared across runs and across the
parallel engine's worker processes.  The privatized and prefetched
traces are never stored: rebuilding them from the raw trace and the
cached hot spots takes a few tens of milliseconds, less than writing
and reading them back.  A sweep process keeps one runner for the whole
sweep and calls :meth:`~ExperimentRunner.retain` before each job, so
it holds the traces of one workload at a time.

Every trace the runner holds is read-only
(:meth:`~repro.trace.stream.Trace.freeze`), so the simulations of one
trace share one conversion of its columns to the simulator's int lists
(:meth:`~repro.trace.columns.StreamColumns.sim_lists`).  The runner
keeps those lists for one trace at a time: the one it simulated last.

A simulation is identified by its behaviour
(:attr:`~repro.sim.config.SystemConfig.behaviour`, the resolved
configuration without its name): :meth:`~ExperimentRunner.run`
simulates each (workload, behaviour) once and returns that result
under every name that resolves to it (``Hyb_Static`` is
``BCoh_RelUp``).  Results are keyed by the frozen
:class:`~repro.experiments.artifacts.SimKey` dataclass.

The derivation pipeline mirrors the paper's methodology:

* privatization/relocation and hot-spot prefetching are kernel source
  changes -> trace transformations;
* the update-protocol core is chosen by analyzing coherence misses of a
  profiling run (section 5.2) and handed to the static update policy;
* hot spots are the 12 basic blocks with the most misses remaining after
  the block and coherence optimizations (section 6), i.e. they are
  measured on the BCoh_RelUp system, not on Base.

Profiling runs (and therefore the derived artifacts) always use the
runner's *own* machine, even when :meth:`run` is asked to simulate a
machine variant: Figures 6 and 7 sweep the hardware under a kernel that
was tuned on the Base machine.  The one exception is a workload wider
than the runner's machine (e.g. a 16-CPU ``gen:`` profile under a
4-CPU runner), whose profiling runs widen the CPU count — and nothing
else — so the trace fits.
"""

from __future__ import annotations

import dataclasses
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.params import BASE_MACHINE, MachineParams
from repro.experiments.artifacts import ArtifactCache, SimKey, stage_key
from repro.optim.hotspots import HotspotPrefetcher, find_hotspots
from repro.optim.privatize import privatize_and_relocate
from repro.optim.update_select import UpdateSelection, select_update_core
from repro.sim.config import SystemConfig, resolve_config, standard_configs
from repro.sim.metrics import SystemMetrics
from repro.sim.system import simulate
from repro.synthetic.profiles import generate
from repro.trace.stream import Trace

#: Number of hot spots the paper selects (section 6).
NUM_HOTSPOTS = 12

#: A simulation cell: (workload, config name, machine or None=runner's).
Cell = Tuple[str, str, Optional[MachineParams]]


class ExperimentRunner:
    """Caches traces, derived artifacts, and simulation results.

    :param cache: optional on-disk artifact cache shared across runs and
        the engine's jobs.  A runner without one keeps artifacts in
        memory until its first sweep, which attaches a throwaway
        temporary cache for the life of the runner: sweep jobs exchange
        artifacts through the cache directory.
    :param workers: the engine's process count for :meth:`run_cells`;
        ``1`` runs the jobs in this process, ``None`` means
        ``os.cpu_count()``.
    :param ledger_path: JSONL run-ledger destination for sweeps;
        ``None`` writes one inside the cache directory.  The ledger of
        the most recent sweep is on :attr:`last_ledger_path`.
    """

    def __init__(self, scale: float = 0.5, seed: int = 1996,
                 machine: MachineParams = BASE_MACHINE,
                 cache: Optional[ArtifactCache] = None,
                 workers: Optional[int] = 1,
                 ledger_path: Optional[str] = None) -> None:
        self.scale = scale
        self.seed = seed
        self.machine = machine
        self.workers = workers
        self.ledger_path = ledger_path
        #: Ledger written by the most recent run_cells() sweep.
        self.last_ledger_path: Optional[str] = None
        self._tmp_cache_dir: Optional[tempfile.TemporaryDirectory] = None
        self.cache = cache
        self._traces: Dict[str, Trace] = {}
        self._privatized: Dict[str, Trace] = {}
        self._update: Dict[str, UpdateSelection] = {}
        self._hot_pcs: Dict[str, List[int]] = {}
        self._prefetched: Dict[str, Trace] = {}
        self._metrics: Dict[SimKey, SystemMetrics] = {}
        #: (workload, config behaviour) -> its one simulation's metrics.
        self._sims: Dict[Tuple[str, SystemConfig], SystemMetrics] = {}
        #: The trace whose simulator lists are kept: the last simulated.
        self._listed: Optional[Trace] = None

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def _key(self, stage: str, workload: str, **extra) -> str:
        machine = self.machine if stage in ("update", "hotspots") else None
        return stage_key(stage, self.scale, self.seed, workload,
                         machine=machine, extra=extra or None)

    def _profiling_machine(self, workload: str) -> MachineParams:
        """The machine derivation profiling runs use: the runner's own,
        with only the CPU count widened when *workload* needs more."""
        from repro.synthetic.profiles import get_profile
        cpus = get_profile(workload).num_cpus
        if cpus <= self.machine.num_cpus:
            return self.machine
        return dataclasses.replace(self.machine, num_cpus=cpus)

    # ------------------------------------------------------------------
    # Cached artifacts
    # ------------------------------------------------------------------
    def trace(self, workload: str) -> Trace:
        """The raw trace of *workload*."""
        if workload not in self._traces:
            trace = None
            key = self._key("trace", workload)
            if self.cache is not None:
                trace = self.cache.load_trace(key, "trace")
            if trace is None:
                trace = generate(workload, seed=self.seed, scale=self.scale)
                if self.cache is not None:
                    self.cache.store_trace(key, trace, "trace")
            self._traces[workload] = trace.freeze()
        return self._traces[workload]

    def privatized_trace(self, workload: str) -> Trace:
        """The trace after privatization/relocation (section 5.1)."""
        if workload not in self._privatized:
            raw = self.trace(workload)
            self._privatized[workload] = privatize_and_relocate(
                raw, raw.num_cpus).freeze()
        return self._privatized[workload]

    def update_selection(self, workload: str) -> UpdateSelection:
        """The update-protocol core chosen from a Base profiling run."""
        if workload not in self._update:
            selection = None
            key = self._key("update", workload)
            if self.cache is not None:
                selection = self.cache.load_update_selection(key)
            if selection is None:
                base = self.run(workload, "Base",
                                machine=self._profiling_machine(workload))
                selection = select_update_core(
                    base, self.trace(workload).symbols,
                    page_bytes=self.machine.page_bytes)
                if self.cache is not None:
                    self.cache.store_update_selection(key, selection)
            self._update[workload] = selection
        return self._update[workload]

    def hotspots(self, workload: str) -> List[int]:
        """The 12 hottest basic blocks, measured on BCoh_RelUp."""
        if workload not in self._hot_pcs:
            pcs = None
            key = self._key("hotspots", workload, count=NUM_HOTSPOTS)
            if self.cache is not None:
                pcs = self.cache.load_hotspots(key)
            if pcs is None:
                profile = self.run(workload, "BCoh_RelUp",
                                   machine=self._profiling_machine(workload))
                pcs = find_hotspots(profile, NUM_HOTSPOTS)
                if self.cache is not None:
                    self.cache.store_hotspots(key, pcs)
            self._hot_pcs[workload] = pcs
        return self._hot_pcs[workload]

    def prefetched_trace(self, workload: str) -> Trace:
        """The privatized trace with hot-spot prefetches inserted."""
        if workload not in self._prefetched:
            config = standard_configs()["BCPref"]
            prefetcher = HotspotPrefetcher(
                self.hotspots(workload), lead=config.hotspot_lead_records,
                line_bytes=self.machine.l1d.line_bytes)
            self._prefetched[workload] = prefetcher.apply(
                self.privatized_trace(workload)).freeze()
        return self._prefetched[workload]

    def retain(self, workload: str) -> None:
        """Drop the in-memory traces of every workload but *workload*.

        A sweep process calls this before each job, so its runner holds
        one workload's raw, privatized and prefetched traces at a time;
        derived selections, hot spots and metrics are small and stay.
        """
        for traces in (self._traces, self._privatized, self._prefetched):
            for name in [w for w in traces if w != workload]:
                self._forget(traces.pop(name))

    def drop_trace(self, workload: str) -> None:
        """Drop *workload*'s raw trace from memory, for a caller that will
        simulate no more configurations reading it (privatized and
        prefetched traces do not)."""
        trace = self._traces.pop(workload, None)
        if trace is not None:
            self._forget(trace)

    def _forget(self, trace: Trace) -> None:
        """Release the simulator lists of *trace* if they are kept."""
        if trace is self._listed:
            trace.drop_sim_lists()
            self._listed = None

    def derive_all(self, workload: str) -> None:
        """Materialize every derived artifact of *workload*.

        Runs the full derivation chain (Base profile -> update selection
        -> BCoh_RelUp profile -> hot spots -> prefetched trace); with a
        disk cache attached this persists the update selection and the
        hot spots.  The parallel engine's "derive" jobs call this.
        """
        self.prefetched_trace(workload)
        self.update_selection(workload)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self, workload: str, config_name: str,
            machine: Optional[MachineParams] = None) -> SystemMetrics:
        """Simulate *workload* under the named configuration.

        A name whose behaviour this runner has already simulated on
        *workload* gets that result without a second simulation.
        """
        machine = machine if machine is not None else self.machine
        key = SimKey.of(workload, config_name, machine)
        metrics = self._metrics.get(key)
        if metrics is None:
            config = resolve_config(config_name, machine)
            behaviour = (workload, config.behaviour)
            metrics = self._sims.get(behaviour)
            if metrics is None:
                metrics = self._run_config(workload, config)
                self._sims[behaviour] = metrics
            self._metrics[key] = metrics
        return metrics

    def _run_config(self, workload: str,
                    config: SystemConfig) -> SystemMetrics:
        if config.hotspot_prefetch:
            trace = self.prefetched_trace(workload)
        elif config.privatize:
            trace = self.privatized_trace(workload)
        else:
            trace = self.trace(workload)
        update_pages: Iterable[int] = ()
        if config.selective_update:
            update_pages = self.update_selection(workload).pages
        hotspot_pcs: Iterable[int] = ()
        if config.hotspot_prefetch:
            hotspot_pcs = self.hotspots(workload)
        if trace is not self._listed:
            if self._listed is not None:
                self._listed.drop_sim_lists()
            self._listed = trace
        return simulate(trace, config, update_pages=update_pages,
                        hotspot_pcs=hotspot_pcs)

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell],
                  verbose: bool = False) -> Dict[SimKey, SystemMetrics]:
        """Run many (workload, config, machine) cells through the
        parallel engine, with the runner's worker count.  Cells whose
        results an earlier sweep stored in the runner's cache are served
        from it without a job.

        Results are merged into the in-memory metrics cache, so later
        :meth:`run` calls (e.g. from table/figure builders) are cache
        hits.  The returned map covers exactly the requested cells; its
        contents are independent of worker count and job completion
        order.
        """
        from repro.experiments.parallel import ParallelEngine

        cells = [(w, c, m if m is not None else self.machine)
                 for (w, c, m) in cells]
        wanted = {SimKey.of(w, c, m) for (w, c, m) in cells}
        todo = [(w, c, m) for (w, c, m) in cells
                if SimKey.of(w, c, m) not in self._metrics]
        if todo:
            if self.cache is None:
                self._tmp_cache_dir = tempfile.TemporaryDirectory(
                    prefix="repro-artifacts-")
                self.cache = ArtifactCache(self._tmp_cache_dir.name)
            engine = ParallelEngine(scale=self.scale, seed=self.seed,
                                    machine=self.machine, cache=self.cache,
                                    workers=self.workers,
                                    ledger_path=self.ledger_path)
            self._metrics.update(engine.execute(todo, verbose=verbose))
            self.last_ledger_path = engine.ledger_path
        return {key: self._metrics[key] for key in wanted}
