"""Parallel experiment engine: the sweep matrix as a job DAG.

A paper sweep is a workload x configuration matrix.  Serially it is
bottlenecked by Python's single-core simulation loop; but the matrix
decomposes naturally into independent jobs:

* ``trace`` — generate one workload's trace (no dependencies);
* ``derive`` — run the derivation pipeline of one workload (profile on
  Base, select the update core, profile on BCoh_RelUp, pick hot spots);
  depends on that workload's trace;
* ``sim`` — simulate one behaviour
  (:attr:`~repro.sim.config.SystemConfig.behaviour`) of one workload on
  one machine, and return it under every requested name that resolves
  to it; depends on the trace, plus the derivation when the config uses
  privatization, selective update, or hot-spot prefetching.

:class:`ParallelEngine` is the one sweep executor: every sweep in the
package runs through :meth:`ParallelEngine.execute`.  Every process
that takes part in a sweep keeps one
:class:`~repro.experiments.runner.ExperimentRunner` for the
:meth:`~ParallelEngine.execute` call, holding the traces of the
workload its latest job was for.  With one worker the jobs run in
process, one workload at a time — its trace, derive and sim jobs back
to back — so no job reads back a trace another job of the sweep wrote;
within a workload they run in the order of the trace they read, so the
simulations of each trace share one conversion to the simulator's
lists.
With more they are scheduled across a private
:class:`ProcessPoolExecutor` that lives for one
:meth:`~ParallelEngine.execute` call (worker count configurable,
default ``os.cpu_count()``, capped at the number of jobs), and a worker
loads from the content-addressed on-disk cache
(:mod:`repro.experiments.artifacts`) what its runner does not hold:
the raw trace, update pages and hot-spot list, never pickled over
pipes.  The privatized and prefetched traces are rebuilt in memory
from them.  Every job is a deterministic function of its inputs, so
the merged result map is bit-identical to a serial sweep regardless of
worker count, completion order or cache temperature.

Every job stores the simulation results it produced in the cache, and
:meth:`~ParallelEngine.execute` first serves every cell it finds there
(:func:`~repro.experiments.artifacts.metrics_key` names the scale, seed,
cell, profiling machine and the package's code digest); jobs are
planned only for the rest, so a sweep of stored cells runs no job.

Failures are fatal, since a deterministic job that failed once fails
again.  The first job that raises, or a worker process that dies, ends
the sweep with :class:`~repro.common.errors.JobFailedError`: no further
job is submitted, queued ones are cancelled and the pool is shut down
before :meth:`~ParallelEngine.execute` raises, so no worker outlives
it.  Cache artifacts that fail hash verification are not failures: the
owning job quarantines and regenerates them (see
:class:`~repro.experiments.artifacts.ArtifactCache`).

Every lifecycle event is appended to a JSONL run ledger
(:mod:`repro.experiments.ledger`); the ledger path is reported at sweep
end and kept on :attr:`ParallelEngine.ledger_path`.  All
``duration``/``elapsed`` fields are measured with ``time.monotonic()``
so wall-clock steps cannot corrupt the profile.

The ``derive`` job necessarily simulates Base and BCoh_RelUp on the
engine's machine (the paper derives its optimizations from profiling
runs); those metrics are returned as results, so requested cells with
their behaviour (``Hyb_Static`` has BCoh_RelUp's) are never simulated
twice.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from collections import Counter
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import JobFailedError
from repro.common.params import BASE_MACHINE, MachineParams
from repro.experiments.artifacts import (ArtifactCache, SimKey,
                                         machine_fingerprint, metrics_key)
from repro.experiments.ledger import RunLedger, default_path
from repro.sim.config import SystemConfig, resolve_config
from repro.sim.metrics import SystemMetrics

#: A simulation cell: (workload, config name, machine).
Cell = Tuple[str, str, MachineParams]

#: Config names whose metrics fall out of a derivation run for free.
DERIVE_PROFILES = ("Base", "BCoh_RelUp")


@dataclasses.dataclass(frozen=True)
class Job:
    """One node of the sweep DAG."""

    job_id: str
    kind: str  # "trace" | "derive" | "sim"
    workload: str
    #: Requested config names whose metrics this job returns.  A sim
    #: job's names share one behaviour, simulated under the first; a
    #: derive job's are its covered profiles (on a warm cache the
    #: derivation alone runs no sims).
    configs: Tuple[str, ...] = ()
    machine: Optional[MachineParams] = None
    deps: Tuple[str, ...] = ()

    @property
    def config(self) -> str:
        """The config a sim job simulates; ``""`` for other kinds."""
        return self.configs[0] if self.kind == "sim" else ""

    def label(self) -> str:
        parts = [self.kind, self.workload]
        if self.config:
            parts.append(self.config)
        return " ".join(parts)

    def cell(self) -> Tuple[str, str, str]:
        """(workload, config, machine fingerprint); a trace or derive job
        has no config, and only a sim job names its machine."""
        machine = (machine_fingerprint(self.machine)
                   if self.machine is not None else "")
        return (self.workload, self.config, machine)


def _needs_derivation(config_name: str) -> bool:
    config = resolve_config(config_name)
    return (config.privatize or config.selective_update
            or config.hotspot_prefetch)


#: The trace a job reads, in serial run order within a workload:
#: generate, raw-trace sims, derive, then the sims of the privatized
#: and the prefetched trace.  Jobs up to the derive read the raw trace.
_TRACE, _RAW_SIM, _DERIVE, _PRIVATIZED_SIM, _PREFETCHED_SIM = range(5)


def _trace_stage(job: Job) -> int:
    """Where *job* runs among its workload's jobs (the stages above)."""
    if job.kind == "trace":
        return _TRACE
    if job.kind == "derive":
        return _DERIVE
    config = resolve_config(job.config)
    if config.hotspot_prefetch:
        return _PREFETCHED_SIM
    if config.privatize or config.selective_update:
        return _PRIVATIZED_SIM
    return _RAW_SIM


def plan_jobs(cells: Sequence[Cell],
              machine: MachineParams) -> List[Job]:
    """Decompose *cells* into a dependency-ordered job list.

    *machine* is the engine's profiling machine: derivations run on it
    (matching :class:`~repro.experiments.runner.ExperimentRunner`), and
    cells on it with the behaviour of one of :data:`DERIVE_PROFILES` get
    no ``sim`` job.  The other cells get one ``sim`` job per
    (workload, behaviour, machine).
    """
    workloads: List[str] = []
    derive: List[str] = []
    for workload, config, _m in cells:
        if workload not in workloads:
            workloads.append(workload)
        if _needs_derivation(config) and workload not in derive:
            derive.append(workload)

    profiles = {resolve_config(name, machine).behaviour
                for name in DERIVE_PROFILES}
    covered: Dict[str, List[str]] = {w: [] for w in derive}
    producers: Dict[Tuple[str, SystemConfig], List[str]] = {}
    seen = set()
    for workload, config, cell_machine in cells:
        key = SimKey.of(workload, config, cell_machine)
        if key in seen:
            continue
        seen.add(key)
        behaviour = resolve_config(config, cell_machine).behaviour
        if workload in derive and behaviour in profiles \
                and cell_machine == machine:
            covered[workload].append(config)  # produced by the derive job
            continue
        producers.setdefault((workload, behaviour), []).append(config)

    jobs: List[Job] = []
    for workload in workloads:
        jobs.append(Job(f"trace:{workload}", "trace", workload))
    for workload in derive:
        jobs.append(Job(f"derive:{workload}", "derive", workload,
                        configs=tuple(covered[workload]),
                        deps=(f"trace:{workload}",)))
    for (workload, behaviour), configs in producers.items():
        dep = (f"derive:{workload}" if _needs_derivation(configs[0])
               else f"trace:{workload}")
        fingerprint = machine_fingerprint(behaviour.machine)
        jobs.append(Job(f"sim:{workload}:{configs[0]}:{fingerprint}", "sim",
                        workload, configs=tuple(configs),
                        machine=behaviour.machine, deps=(dep,)))
    return jobs


#: A pool worker's runner for the sweep its pool serves, set by
#: :func:`_start_worker`; the pool, and with it the runner, lives for
#: one :meth:`ParallelEngine.execute` call.
_worker_runner = None


def _sweep_runner(scale: float, seed: int, machine: MachineParams,
                  cache_dir: str):
    """A fresh runner on the sweep's artifact cache."""
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(scale=scale, seed=seed, machine=machine,
                            cache=ArtifactCache(cache_dir))


def _start_worker(scale: float, seed: int, machine: MachineParams,
                  cache_dir: str) -> None:
    """Pool initializer: give this worker process its sweep runner."""
    global _worker_runner
    _worker_runner = _sweep_runner(scale, seed, machine, cache_dir)


def _execute_job(payload: dict, runner=None) -> dict:
    """Run one job on *runner*, this process's runner for the sweep.

    A pool worker passes none and uses the one :func:`_start_worker`
    gave it.  The runner first drops the traces of other workloads
    (:meth:`~repro.experiments.runner.ExperimentRunner.retain`).  The
    returned ``stats`` are the cache events of this job alone.

    ``elapsed`` is measured with ``time.monotonic()``: job durations feed
    the ledger's timing profile and must survive wall-clock steps (NTP,
    suspend/resume) without going negative.  The job appends its own
    cache-corruption events to the shared ledger file — safe because
    :meth:`RunLedger.record` writes whole lines through ``O_APPEND``.
    """
    start = time.monotonic()
    with RunLedger(payload.get("ledger_path")) as ledger:
        if runner is None:
            runner = _worker_runner
        cache = runner.cache
        cache.ledger = ledger
        before = Counter(cache.stats)
        workload = payload["workload"]
        runner.retain(workload)
        kind = payload["kind"]
        results: List[Tuple[SimKey, SystemMetrics]] = []
        if kind == "trace":
            runner.trace(workload)
        elif kind == "derive":
            known = set(runner._metrics)
            runner.derive_all(workload)
            for config in payload["configs"]:
                runner.run(workload, config)
            results = sorted(((key, metrics) for key, metrics
                              in runner._metrics.items()
                              if key not in known),
                             key=lambda item: (item[0].workload,
                                               item[0].config))
        elif kind == "sim":
            machine = payload["sim_machine"]
            results = [(SimKey.of(workload, config, machine),
                        runner.run(workload, config, machine=machine))
                       for config in payload["configs"]]
        else:  # pragma: no cover - planner only emits the kinds above
            raise ValueError(f"unknown job kind {kind!r}")
        # Persist every simulation result so a later sweep on the same
        # cache serves repeat cells without a job.
        profiling = machine_fingerprint(payload["machine"])
        for sim_key, metrics in results:
            cache.store_metrics(
                metrics_key(payload["scale"], payload["seed"], sim_key,
                            profiling), metrics)
        stats = Counter(cache.stats)
        stats.subtract(before)
    return {
        "job_id": payload["job_id"],
        "elapsed": time.monotonic() - start,
        "results": results,
        "stats": {event: n for event, n in stats.items() if n},
        "worker_pid": os.getpid(),
    }


class ParallelEngine:
    """Executes a sweep's job DAG across a process pool, and stops at the
    first job that fails or worker that dies.

    Cells whose results an earlier sweep stored in *cache* are served
    from it without a job.  *reuse_sims* exists only for the end-to-end
    benchmark's harness, which passes ``True``, the default; no sweep in
    the package sets it.
    """

    def __init__(self, scale: float = 0.5, seed: int = 1996,
                 machine: MachineParams = BASE_MACHINE,
                 cache: Optional[ArtifactCache] = None,
                 workers: Optional[int] = None,
                 ledger_path: Optional[str] = None,
                 reuse_sims: bool = True) -> None:
        self.scale = scale
        self.seed = seed
        self.machine = machine
        self.cache = cache
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._ledger_path_arg = ledger_path
        #: Serve stored cells without a job (see the class docstring).
        self.reuse_sims = reuse_sims
        #: Aggregated worker-side cache stats of the last execute() call.
        self.last_stats: Counter = Counter()
        #: The JSONL run ledger written by the last execute() call.
        self.ledger_path: Optional[str] = None
        #: Cells of the last execute() call served straight from the
        #: artifact store's cached simulation results.
        self.last_cached = 0
        #: Jobs finished by the last execute() call, per kind.
        self.last_job_kinds: Counter = Counter()

    def _payload(self, job: Job, cache_dir: str) -> dict:
        return {
            "job_id": job.job_id,
            "kind": job.kind,
            "workload": job.workload,
            "configs": job.configs,
            "sim_machine": job.machine,
            "scale": self.scale,
            "seed": self.seed,
            "machine": self.machine,
            "cache_dir": cache_dir,
            "ledger_path": self.ledger_path,
        }

    def execute(self, cells: Sequence[Cell], verbose: bool = False,
                ) -> Dict[SimKey, SystemMetrics]:
        """Run every cell; returns metrics keyed by :class:`SimKey`.

        The result map also contains the Base/BCoh_RelUp profiling
        metrics of derived workloads (they fall out of the derive jobs),
        which callers may merge into their own caches.

        Jobs exchange artifacts through the engine's cache, so an engine
        without one cannot execute (``ExperimentRunner.run_cells`` gives
        a cacheless runner a throwaway one).

        :raises JobFailedError: when a job raises or a worker dies; no
            worker process of the sweep is left running.
        """
        if self.cache is None:
            raise ValueError("ParallelEngine.execute needs an artifact cache")
        cells = [(w, c, m if m is not None else self.machine)
                 for (w, c, m) in cells]
        cached, cached_stats = self._preload_cached(cells)
        todo = [(w, c, m) for (w, c, m) in cells
                if SimKey.of(w, c, m) not in cached]
        jobs = plan_jobs(todo, self.machine)
        cache_dir = self.cache.root
        self.ledger_path = (self._ledger_path_arg
                            or default_path(os.path.join(cache_dir,
                                                         "ledgers")))
        with RunLedger(self.ledger_path) as ledger:
            return _Scheduler(self, jobs, cache_dir, ledger, verbose,
                              cached=cached, cached_stats=cached_stats).run()

    def _preload_cached(self, cells: Sequence[Cell],
                        ) -> Tuple[Dict[SimKey, SystemMetrics], Counter]:
        """Cells answerable from the artifact store's cached simulation
        results, plus the cache stats the lookups accrued.

        A corrupt entry quarantines (inside
        :meth:`ArtifactCache.load_metrics`) and falls through to a
        normal recompute.
        """
        found: Dict[SimKey, SystemMetrics] = {}
        if not self.reuse_sims:
            return found, Counter()
        before = Counter(self.cache.stats)
        profiling = machine_fingerprint(self.machine)
        for (workload, config, machine) in cells:
            key = SimKey.of(workload, config, machine)
            if key in found:
                continue
            metrics = self.cache.load_metrics(
                metrics_key(self.scale, self.seed, key, profiling))
            if metrics is not None:
                found[key] = metrics
        return found, Counter(self.cache.stats) - before

    @staticmethod
    def _log(verbose: bool, message: str) -> None:
        if verbose:
            print(message, file=sys.stderr, flush=True)


class _Scheduler:
    """One execute() call's mutable scheduling state.

    Separated from :class:`ParallelEngine` so the pool lifecycle and
    ledger plumbing live in one place with a clear lifetime (the engine
    itself stays reusable and nearly stateless).
    """

    def __init__(self, engine: ParallelEngine, jobs: List[Job],
                 cache_dir: str, ledger: RunLedger,
                 verbose: bool,
                 cached: Optional[Dict[SimKey, SystemMetrics]] = None,
                 cached_stats: Optional[Counter] = None) -> None:
        self.engine = engine
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.ledger = ledger
        self.verbose = verbose
        #: Cells pre-answered from the artifact store and the cache
        #: stats those lookups accrued.
        self.cached = cached or {}
        self.cached_stats = cached_stats or Counter()
        self.by_id = {job.job_id: job for job in jobs}
        self.pending: Dict[str, Set[str]] = {
            job.job_id: set(job.deps) for job in jobs}
        for job_id, deps in self.pending.items():
            missing = deps - self.by_id.keys()
            if missing:  # pragma: no cover - planner invariant
                raise ValueError(f"job {job_id} depends on unknown {missing}")
        self.results: Dict[SimKey, SystemMetrics] = {}
        self.done_count = 0

    def _log(self, message: str) -> None:
        ParallelEngine._log(self.verbose, message)

    def run(self) -> Dict[SimKey, SystemMetrics]:
        engine = self.engine
        # Durations come from the monotonic clock; the ledger's own
        # ``ts`` fields stay wall-clock for human readers.
        start = time.monotonic()
        engine.last_stats = Counter()
        engine.last_cached = len(self.cached)
        engine.last_job_kinds = Counter()
        self._log(f"[engine] {len(self.jobs)} jobs across "
                  f"{engine.workers} workers (cache: {self.cache_dir})")
        self.ledger.record("sweep_start", jobs=len(self.jobs),
                           workers=engine.workers, scale=engine.scale,
                           seed=engine.seed, cache_dir=self.cache_dir)
        if self.cached:
            # Cells answered straight from the artifact store's cached
            # simulation results: no jobs were planned.
            self.results.update(self.cached)
            engine.last_stats.update(self.cached_stats)
            self.ledger.record(
                "served_cached", cells=len(self.cached),
                sim_keys=[{"workload": k.workload, "config": k.config,
                           "machine": k.machine}
                          for k in sorted(self.cached,
                                          key=lambda k: (k.workload,
                                                         k.config,
                                                         k.machine))])
            self._log(f"[engine] {len(self.cached)} cells served from "
                      f"cached simulation results")
        try:
            if engine.workers > 1 and len(self.jobs) > 1:
                self._run_pooled()
            else:
                self._run_serial()
        except JobFailedError as err:
            self.ledger.record("job_failed", job=err.job_id or None,
                               cell=list(err.cell) or None,
                               in_flight=list(err.in_flight),
                               error=str(err))
            self.ledger.record("sweep_end", ok=False,
                               elapsed=round(time.monotonic() - start, 3))
            raise
        hits = sum(n for e, n in engine.last_stats.items()
                   if e.endswith(".hit"))
        stores = sum(n for e, n in engine.last_stats.items()
                     if e.endswith(".store"))
        self.ledger.record("sweep_end", ok=True,
                           elapsed=round(time.monotonic() - start, 3),
                           jobs=self.done_count,
                           cached_cells=len(self.cached))
        self._log(f"[engine] sweep finished in "
                  f"{time.monotonic() - start:.1f}s "
                  f"({self.done_count} jobs, cache: {hits} hits, "
                  f"{stores} stores)")
        self._log(f"[engine] run ledger: {self.engine.ledger_path}")
        return self.results

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _run_pooled(self) -> None:
        """Run the jobs on a private pool whose workers each keep a
        runner for this sweep (:func:`_start_worker`)."""
        engine = self.engine
        pool = ProcessPoolExecutor(
            max_workers=min(engine.workers, len(self.jobs)),
            initializer=_start_worker,
            initargs=(engine.scale, engine.seed, engine.machine,
                      self.cache_dir))
        running: Dict[object, str] = {}  # future -> job id
        try:
            self._submit_ready(pool, running)
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    self._collect(future, running)
                self._submit_ready(pool, running)
        finally:
            # After a failure: drop the queued jobs and wait out the
            # running ones, so no worker process outlives execute().
            pool.shutdown(wait=True, cancel_futures=True)

    def _submit_ready(self, pool: ProcessPoolExecutor,
                      running: Dict[object, str]) -> None:
        for job_id in [job_id for job_id, deps in self.pending.items()
                       if not deps]:
            del self.pending[job_id]
            job = self._scheduled(job_id)
            future = pool.submit(_execute_job,
                                 self.engine._payload(job, self.cache_dir))
            running[future] = job_id

    def _collect(self, future, running: Dict[object, str]) -> None:
        """Fold one finished future into the sweep state, or raise
        :class:`JobFailedError` for its failure."""
        job_id = running[future]
        try:
            outcome = future.result()
        except BrokenExecutor as err:
            # The pool does not say which worker died, or how: name
            # every job it was running.
            in_flight = tuple(sorted(running.values()))
            raise JobFailedError(
                f"a worker process died with {len(in_flight)} job(s) in "
                f"flight: " + "; ".join(self._describe(j) for j in in_flight),
                in_flight=in_flight) from err
        except Exception as err:
            raise self._failed(job_id, err) from err
        del running[future]
        self._finish(job_id, outcome)

    # ------------------------------------------------------------------
    # Serial execution (workers == 1, or a single job)
    # ------------------------------------------------------------------
    def _run_serial(self) -> None:
        """Run the jobs in process on one runner, one workload at a
        time, in the order of the trace each job reads
        (:func:`_trace_stage`), so each trace is converted to the
        simulator's lists once.  The raw trace is dropped after the
        last job that reads it."""
        engine = self.engine
        runner = _sweep_runner(engine.scale, engine.seed, engine.machine,
                               self.cache_dir)
        rank: Dict[str, int] = {}
        for job in self.jobs:
            rank.setdefault(job.workload, len(rank))
        index = {job.job_id: i for i, job in enumerate(self.jobs)}
        order = sorted(self.pending, key=lambda job_id: (
            rank[self.by_id[job_id].workload],
            _trace_stage(self.by_id[job_id]), index[job_id]))
        last_raw = {self.by_id[job_id].workload: job_id for job_id in order
                    if _trace_stage(self.by_id[job_id]) <= _DERIVE}
        for job_id in order:
            if self.pending.pop(job_id):  # pragma: no cover - plan order
                raise ValueError(f"job {job_id} reached before its "
                                 f"dependencies finished")
            job = self._scheduled(job_id, serial=True)
            try:
                outcome = _execute_job(
                    engine._payload(job, self.cache_dir), runner)
            except Exception as err:
                raise self._failed(job_id, err) from err
            self._finish(job_id, outcome)
            if last_raw.get(job.workload) == job_id:
                runner.drop_trace(job.workload)

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------
    def _scheduled(self, job_id: str, **extra) -> Job:
        job = self.by_id[job_id]
        self.ledger.record("scheduled", job=job_id, kind=job.kind,
                           workload=job.workload, config=job.config or None,
                           **extra)
        return job

    def _describe(self, job_id: str) -> str:
        workload, config, machine = self.by_id[job_id].cell()
        return (f"{job_id} (workload {workload}, config {config or '-'}, "
                f"machine {machine or '-'})")

    def _failed(self, job_id: str, err: Exception) -> JobFailedError:
        return JobFailedError(f"job {self._describe(job_id)} failed: {err!r}",
                              job_id=job_id, cell=self.by_id[job_id].cell(),
                              in_flight=(job_id,))

    def _finish(self, job_id: str, outcome: dict) -> None:
        assert outcome["job_id"] == job_id
        job = self.by_id[job_id]
        for key, metrics in outcome["results"]:
            self.results[key] = metrics
        stats = outcome["stats"]
        self.engine.last_stats.update(stats)
        self.done_count += 1
        self.engine.last_job_kinds[job.kind] += 1
        quarantines = {stage: n for stage, n in stats.items()
                       if stage.endswith(".quarantine") and n}
        if quarantines:
            self.ledger.record("quarantined", job=job_id,
                               stages=quarantines)
            self._log(f"[engine] quarantined corrupt artifacts during "
                      f"{job.label()}: {quarantines}")
        cache = {"hits": sum(n for e, n in stats.items()
                             if e.endswith(".hit")),
                 "misses": sum(n for e, n in stats.items()
                               if e.endswith(".miss")),
                 "stores": sum(n for e, n in stats.items()
                               if e.endswith(".store")),
                 "quarantines": sum(quarantines.values())}
        self.ledger.record(
            "finished", job=job_id, kind=job.kind, workload=job.workload,
            config=job.config or None,
            duration=round(outcome["elapsed"], 3),
            worker_pid=outcome["worker_pid"], cache=cache,
            sim_keys=[{"workload": k.workload, "config": k.config,
                       "machine": k.machine}
                      for k, _m in outcome["results"]])
        self._log(f"[{self.done_count:>3}/{len(self.jobs)}] "
                  f"{outcome['elapsed']:>6.1f}s  {job.label()}")
        for deps in self.pending.values():
            deps.discard(job_id)
