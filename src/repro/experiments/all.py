"""Regenerate every table and figure of the paper.

Usage::

    python -m repro.experiments.all [--scale 0.5] [--seed 1996]
        [--only table1,figure3] [--out results.txt]
        [--workers N] [--cache-dir DIR] [--no-cache]
        [--ledger PATH] [--max-retries N] [--job-timeout SECONDS]

One :class:`~repro.experiments.runner.ExperimentRunner` is shared across
all artifacts so each trace, transform and simulation runs once.  The
full workload x configuration matrix behind the selected artifacts is
decomposed into jobs and pre-computed by the parallel engine
(:mod:`repro.experiments.parallel`) with ``--workers`` processes — one
worker runs the jobs in this process — printing a live job ledger; the
table/figure builders then render from the warm in-memory cache.
``--cache-dir`` (default ``.repro-cache``) persists traces and derived
artifacts across runs — a repeat sweep skips every generation and
derivation stage; ``--no-cache`` sweeps through a throwaway temporary
cache.  The rendered output prints the same rows/series the paper
reports and is identical for any worker count and cache temperature.

Sweeps are fault tolerant: failed or timed-out jobs are
retried with deterministic backoff (``--max-retries``,
``--job-timeout``), dead workers get a rebuilt pool, and corrupt cache
artifacts are quarantined and regenerated.  Every lifecycle event lands
in a JSONL run ledger (``--ledger``, default: inside the cache
directory) whose path is printed at sweep end; summarize it with
``python -m repro.experiments.ledger --summarize <path>``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.analysis.figures import (ALL_FIGURES, FIG2_SYSTEMS, FIG3_SYSTEMS,
                                    FIG4_SYSTEMS, FIG5_SYSTEMS, SWEEP_SYSTEMS)
from repro.analysis.report import render
from repro.analysis.tables import (ALL_TABLES, HYBRID_COMPARE_SCHEMES,
                                   HYBRID_FAMILIES, MACHINE_COMPARE_SCHEMES,
                                   MACHINE_POINTS, machine_point,
                                   machine_workload)
from repro.common.params import BASE_MACHINE
from repro.common.units import KB
from repro.experiments.artifacts import DEFAULT_CACHE_DIR, ArtifactCache
from repro.experiments.faults import RetryPolicy
from repro.experiments.runner import Cell, ExperimentRunner
from repro.synthetic.workloads import WORKLOAD_ORDER

#: Paper order of artifacts.
ARTIFACT_ORDER = [
    "table1", "table2", "figure1", "table3", "figure2", "figure3",
    "table4", "table5", "figure4", "figure5", "figure6", "figure7",
]

#: Artifacts ``--only`` accepts beyond the default report: the hybrid
#: comparison table and the machine-shape comparison are opt-in (they
#: are not paper reproductions).
EXTRA_ARTIFACTS = ["hybrid", "machines"]

#: L1D sizes (KB) swept by Figure 6 and line sizes (B) swept by Figure 7.
FIG6_SIZES_KB = (16, 32, 64)
FIG7_LINES = (16, 32, 64)


def artifact_cells(name: str) -> List[Cell]:
    """The (workload, config, machine) cells *name*'s builder will ask
    the runner for — the parallel engine pre-computes exactly these."""
    systems: List[str]
    if name in ("table1", "table2", "table5", "figure1"):
        systems = ["Base"]
    elif name == "table3":
        systems = ["Base", "Blk_Bypass"]
    elif name == "table4":
        return []  # static trace analysis; no simulation cells
    elif name == "figure2":
        systems = FIG2_SYSTEMS
    elif name == "figure3":
        systems = FIG3_SYSTEMS
    elif name == "figure4":
        systems = FIG4_SYSTEMS
    elif name == "figure5":
        systems = FIG5_SYSTEMS
    elif name == "hybrid":
        # Off the paper's workload grid: the generated profile families
        # against Base plus the hybrid comparison ladder.
        return [(w, s, None) for w in HYBRID_FAMILIES
                for s in ["Base"] + HYBRID_COMPARE_SCHEMES]
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
                ledger: Optional[str] = None,
                max_retries: Optional[int] = None,
                job_timeout: Optional[float] = None) -> ExperimentRunner:
    """The runner a report sweeps on; the options are :func:`run_all`'s."""
    cache = ArtifactCache(cache_dir) if cache_dir else None
    policy = None
    if max_retries is not None or job_timeout is not None:
        defaults = RetryPolicy()
        policy = RetryPolicy(
            max_retries=(max_retries if max_retries is not None
                         else defaults.max_retries),
            job_timeout=job_timeout)
    return ExperimentRunner(scale=scale, seed=seed, cache=cache,
                            workers=workers, retry_policy=policy,
                            ledger_path=ledger)


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


def run_all(scale: float = 0.5, seed: int = 1996,
            only: Optional[List[str]] = None, verbose: bool = True,
            workers: Optional[int] = 1,
            cache_dir: Optional[str] = None,
            ledger: Optional[str] = None,
            max_retries: Optional[int] = None,
            job_timeout: Optional[float] = None) -> str:
    """Build the selected artifacts; returns the rendered report.

    The sweep runs through the parallel engine with *workers* processes
    (``None`` means ``os.cpu_count()``); *cache_dir* attaches a
    persistent on-disk artifact cache.  *ledger*, *max_retries* and
    *job_timeout* tune the engine's fault tolerance.  None of these
    change the report's contents — a sweep that survived retries, pool
    rebuilds, or artifact quarantine renders bit-identically to a clean
    one-worker run.
    """
    runner = make_runner(scale=scale, seed=seed, workers=workers,
                         cache_dir=cache_dir, ledger=ledger,
                         max_retries=max_retries, job_timeout=job_timeout)
    return build_report(runner, only=only, verbose=verbose)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce every table and figure of the paper")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload length multiplier (default 0.5)")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--only", type=str, default="",
                        help="comma-separated artifact names")
    parser.add_argument("--out", type=str, default="",
                        help="also write the report to this file")
    parser.add_argument("--workers", type=int, default=os.cpu_count(),
                        help="parallel sweep processes "
                             "(default: os.cpu_count())")
    parser.add_argument("--cache-dir", type=str, default=DEFAULT_CACHE_DIR,
                        help="on-disk artifact cache directory "
                             f"(default {DEFAULT_CACHE_DIR!r})")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not persist traces/artifacts on disk")
    parser.add_argument("--ledger", type=str, default="",
                        help="JSONL run-ledger path (default: a fresh "
                             "file inside the cache directory)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="re-submissions allowed per failed job "
                             "(default 2)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-job wall-clock timeout in seconds "
                             "(default: unlimited)")
    args = parser.parse_args(argv)
    only = [n.strip() for n in args.only.split(",") if n.strip()] or None
    cache_dir = None if args.no_cache else args.cache_dir
    report = run_all(scale=args.scale, seed=args.seed, only=only,
                     workers=args.workers, cache_dir=cache_dir,
                     ledger=args.ledger or None,
                     max_retries=args.max_retries,
                     job_timeout=args.job_timeout)
    print(report)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
