"""Command-line interface.

Subcommands::

    repro generate  <profile> -o trace.npz [--scale S] [--seed N] [--text]
                    [--profile-spec FILE] [--frame-policy P]
    repro inspect   <trace.npz|.txt>
    repro simulate  <profile|trace file> [--config Base] [--scale S]
                    [--profile-spec FILE] [--frame-policy P]
                    [--check] [--trace-out t.json] [--trace-limit N]
                    [--profile] [--timeline]
                    [--assoc A] [--bus-width B]
    repro sweep     [--samples N] [--families F1,F2] [--configs C1,C2]
                    [--scale S] [--seed N] [--cpus 2,4] [--workers N]
                    [--assoc A] [--bus-width B]
    repro report    [--scale S] [--only table1,figure3] [--ascii] [-o FILE]
                    [--workers N] [--cache-dir DIR] [--no-cache]
                    [--ledger PATH]
    repro ablation  <study> [--workload W] [--scale S] [--cache-dir DIR]
    repro calibrate [--scale S] [--only table2]

``generate``/``simulate``/``sweep`` accept any workload-profile name: the
four paper workloads, the built-in families (``server``, ``bursty_mp``,
``gang_diurnal``), self-describing ``gen:...`` sweep names, or a custom
spec file via ``--profile-spec`` (see docs/workloads.md).

Run as ``python -m repro.cli`` (or the module functions directly).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.common.errors import (ConfigError, JobFailedError, ProfileError,
                                 TraceError)
from repro.common.params import machine_for
from repro.common.types import Mode
from repro.experiments.artifacts import DEFAULT_CACHE_DIR
from repro.sim.config import resolve_config
from repro.sim.system import simulate
from repro.synthetic.profiles import (PROFILE_ORDER, available_profiles,
                                      generate, load_profile,
                                      register_profile)
from repro.trace import npzio, textio
from repro.trace.stream import Trace


def _load_trace(path: str, command: str) -> Optional[Trace]:
    """The trace at *path*, validated, or ``None`` (having printed the
    error) when the file is not a valid trace, so callers can exit with
    status 2."""
    try:
        if path.endswith(".npz"):
            trace = npzio.load(path)
        else:
            with open(path) as fp:
                trace = textio.load(fp)
    except TraceError as err:
        print(f"repro {command}: error: {err}", file=sys.stderr)
        return None
    try:
        trace.validate()
    except TraceError as err:
        print(f"repro {command}: error: {path}: {err}", file=sys.stderr)
        return None
    return trace


def _save_trace(trace: Trace, path: str, text: bool) -> None:
    if text or path.endswith(".txt"):
        with open(path, "w") as fp:
            textio.dump(trace, fp)
    else:
        npzio.save(trace, path)


def _machine_from_args(num_cpus: int, args: argparse.Namespace):
    """Machine sized to *num_cpus* with the CLI's --assoc/--bus-width.

    Sizing the machine to the trace's actual CPU count (rather than
    keeping the 4-CPU Base for narrower traces) means a 1-2-CPU trace
    no longer simulates with phantom idle processors.
    """
    return machine_for(num_cpus,
                       assoc=getattr(args, "assoc", 1),
                       bus_width_bytes=getattr(args, "bus_width", None))


def _resolve_workload(args: argparse.Namespace) -> Optional[str]:
    """The workload name to generate, after loading any ``--profile-spec``.

    Returns ``None`` (having printed the error) when the name cannot be
    resolved, so callers can exit with status 2.
    """
    name = args.workload
    if getattr(args, "profile_spec", ""):
        try:
            profile = register_profile(load_profile(args.profile_spec))
        except ProfileError as err:
            print(f"bad --profile-spec: {err}", file=sys.stderr)
            return None
        if not name:
            name = profile.name
        elif name != profile.name:
            print(f"--profile-spec defines {profile.name!r} but "
                  f"{name!r} was requested", file=sys.stderr)
            return None
    if not name:
        print("no workload given (name argument or --profile-spec)",
              file=sys.stderr)
        return None
    from repro.synthetic.profiles import get_profile
    try:
        get_profile(name)
    except (KeyError, ProfileError):
        print(f"unknown workload {name!r}; available profiles: "
              f"{', '.join(available_profiles())} "
              "(or a gen:... sweep name, or --profile-spec FILE)",
              file=sys.stderr)
        return None
    return name


def cmd_generate(args: argparse.Namespace) -> int:
    name = _resolve_workload(args)
    if name is None:
        return 2
    trace = generate(name, seed=args.seed, scale=args.scale,
                     frame_policy=args.frame_policy)
    _save_trace(trace, args.output, args.text)
    print(f"{name}: {len(trace):,} records, "
          f"{len(trace.blockops)} block ops -> {args.output}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.analysis.tracestats import TraceStats
    trace = _load_trace(args.trace, "inspect")
    if trace is None:
        return 2
    print(f"trace: {args.trace}")
    print(f"metadata: {trace.metadata}")
    print(TraceStats(trace).summary())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.common.errors import ConformanceError
    # Scheme names are machine-independent: validate them up front, before
    # any (possibly expensive) trace load or generation happens, so a typo
    # fails as fast as an unknown --profile-spec does.
    try:
        resolve_config(args.config)
    except KeyError as err:
        print(f"{err.args[0]}", file=sys.stderr)
        return 2
    if os.path.exists(args.input) and not args.profile_spec:
        trace = _load_trace(args.input, "simulate")
        if trace is None:
            return 2
    else:
        args.workload = args.input
        name = _resolve_workload(args)
        if name is None:
            return 2
        trace = generate(name, seed=args.seed, scale=args.scale,
                         frame_policy=args.frame_policy)
    try:
        machine = _machine_from_args(trace.num_cpus, args)
    except ConfigError as err:
        print(f"bad machine: {err}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out or args.profile or args.timeline:
        from repro.obs import Tracer
        tracer = Tracer(max_events=args.trace_limit)
    try:
        metrics = simulate(trace, resolve_config(args.config, machine),
                           check=True if args.check else None,
                           tracer=tracer)
    except ConformanceError as err:
        print(f"conformance violation [{err.kind}]: {err}", file=sys.stderr)
        return 1
    if args.check:
        print("conformance: ok (oracle + invariants)")
    tb = metrics.os_time()
    print(f"config:      {args.config}")
    print(f"makespan:    {metrics.makespan:,} cycles")
    print(f"OS time:     {tb.total:,} cycles "
          f"(exec {tb.exec_cycles:,}, imiss {tb.imiss:,}, "
          f"dread {tb.dread:,}, dwrite {tb.dwrite:,}, pref {tb.pref:,})")
    print(f"OS misses:   {metrics.os_read_misses():,}")
    print(f"miss rate:   {metrics.data_miss_rate():.2%}")
    print(f"mode shares: " + ", ".join(
        f"{m.name.lower()} {metrics.mode_fraction(m):.0%}" for m in Mode))
    print(f"bus busy:    {metrics.bus_utilization():.0%} of makespan")
    if tracer is not None:
        if args.trace_out:
            from repro.obs import save_chrome_trace
            count = save_chrome_trace(tracer, args.trace_out)
            dropped = (f" ({tracer.dropped:,} dropped past --trace-limit)"
                       if tracer.dropped else "")
            print(f"trace:       {count:,} events -> {args.trace_out}"
                  f"{dropped}")
        if args.profile:
            from repro.obs import MissProfile
            print()
            print(MissProfile(tracer).render())
        if args.timeline:
            from repro.analysis.timeline_view import render_miss_timeline
            print()
            print(render_miss_timeline(tracer))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Generate a seeded batch of random workloads and simulate them."""
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.runner import ExperimentRunner
    from repro.synthetic import generator

    families = tuple(f.strip() for f in args.families.split(",")
                     if f.strip()) or generator.SWEEP_FAMILIES
    cpus = tuple(int(c) for c in args.cpus.split(",") if c.strip()) or (4,)
    intensities = tuple(float(v) for v in args.intensities.split(",")
                        if v.strip()) or (0.6, 1.0)
    patterns = tuple(p.strip() for p in args.patterns.split(",")
                     if p.strip()) or None
    try:
        workloads = generator.sample(
            args.samples, seed=args.seed, families=families,
            num_cpus=cpus, intensities=intensities,
            **({"patterns": patterns} if patterns else {}))
    except ProfileError as err:
        print(f"bad sweep: {err}", file=sys.stderr)
        return 2
    config_names = [c.strip() for c in args.configs.split(",") if c.strip()]
    try:
        machine = _machine_from_args(max(cpus), args)
    except ConfigError as err:
        print(f"bad sweep machine: {err}", file=sys.stderr)
        return 2
    unknown = []
    for c in config_names:
        try:
            resolve_config(c, machine)
        except KeyError:
            unknown.append(c)
    if unknown:
        print(f"unknown configs {unknown}; registered schemes plus "
              "'Hyb_UpdN@N<k>' / 'Hyb_Deg@T<k>' are accepted",
              file=sys.stderr)
        return 2
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    runner = ExperimentRunner(scale=args.scale, seed=args.seed,
                              machine=machine, cache=cache,
                              workers=args.workers)
    print(f"sweep: {len(workloads)} workloads x {len(config_names)} "
          f"configs at scale {args.scale} (seed {args.seed})")
    cells = [(w.name, c, None) for w in workloads for c in config_names]
    try:
        runner.run_cells(cells, verbose=not args.quiet)
    except JobFailedError as err:
        print(f"sweep failed: {err}", file=sys.stderr)
        return 1
    name_w = max(len(w.name) for w in workloads)
    conf_w = max(10, max(len(c) for c in config_names))
    header = (f"{'workload':<{name_w}}  {'config':<{conf_w}}  "
              f"{'OS time':>12}  {'OS misses':>10}  {'miss rate':>9}")
    lines = [header, "-" * len(header)]
    for w in workloads:
        base_total = None
        for config_name in config_names:
            metrics = runner.run(w.name, config_name)
            total = metrics.os_time().total
            if base_total is None:
                base_total = total
            rel = (f"  ({total / base_total:.2f}x)"
                   if config_name != config_names[0] and base_total else "")
            lines.append(
                f"{w.name:<{name_w}}  {config_name:<{conf_w}}  {total:>12,}  "
                f"{metrics.os_read_misses():>10,}  "
                f"{metrics.data_miss_rate():>8.2%}{rel}")
    report = "\n".join(lines)
    print(report)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(report + "\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.all import build_report, make_runner
    only = [n.strip() for n in args.only.split(",") if n.strip()] or None
    runner = make_runner(scale=args.scale, seed=args.seed,
                         workers=args.workers,
                         cache_dir=None if args.no_cache else args.cache_dir,
                         ledger=args.ledger or None)
    try:
        report = build_report(runner, only=only, verbose=not args.quiet)
    except JobFailedError as err:
        print(f"sweep failed: {err}", file=sys.stderr)
        return 1
    if args.ascii:
        from repro.analysis.ascii_charts import ascii_render
        from repro.analysis.figures import ALL_FIGURES
        # The report's runner holds every figure cell's metrics.
        chunks = [report]
        for name in (only or list(ALL_FIGURES)):
            if name in ALL_FIGURES:
                chunks.append(f"### {name} (ascii)")
                chunks.append(ascii_render(ALL_FIGURES[name](runner)))
        report = "\n\n".join(chunks)
    print(report)
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(report)
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ALL_STUDIES, render_study, run_study
    if args.study not in ALL_STUDIES:
        print(f"unknown study {args.study!r}; choose from "
              f"{sorted(ALL_STUDIES)}", file=sys.stderr)
        return 2
    points = run_study(args.study, workload=args.workload, scale=args.scale,
                       seed=args.seed, cache_dir=args.cache_dir or None)
    print(render_study(f"{args.study} ({args.workload})", points))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.compare import calibration_report
    only = [n.strip() for n in args.only.split(",") if n.strip()] or None
    print(calibration_report(scale=args.scale, seed=args.seed, which=only))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for Xia & Torrellas, HPCA 1996")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a workload trace")
    p.add_argument("workload", nargs="?", default="",
                   help="profile name (paper workload, built-in family, "
                        "or gen:... sweep name); optional with "
                        "--profile-spec")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--profile-spec", default="",
                   help="load a custom workload profile from this "
                        "JSON/YAML spec file")
    p.add_argument("--frame-policy", default="default",
                   choices=["default", "colored"],
                   help="physical frame allocation policy "
                        "(default: 'default')")
    p.add_argument("--text", action="store_true",
                   help="write the text format instead of .npz")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("inspect", help="summarize a trace file")
    p.add_argument("trace")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("simulate", help="simulate a workload or trace file")
    p.add_argument("input", nargs="?", default="",
                   help="profile name (paper workload, built-in family, "
                        "gen:... sweep name) or trace file path")
    p.add_argument("--config", default="Base")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--profile-spec", default="",
                   help="load a custom workload profile from this "
                        "JSON/YAML spec file")
    p.add_argument("--frame-policy", default="default",
                   choices=["default", "colored"],
                   help="frame allocation policy for generated workloads")
    p.add_argument("--check", action="store_true",
                   help="run the coherence conformance checker "
                        "(reference oracle + MESI/Firefly invariants)")
    p.add_argument("--trace-out", default="",
                   help="write a Chrome/Perfetto trace JSON of the miss "
                        "lifecycle to this path (load in ui.perfetto.dev)")
    p.add_argument("--trace-limit", type=int, default=1_000_000,
                   help="cap on recorded trace events (profile stats stay "
                        "exact past the cap; default 1000000)")
    p.add_argument("--profile", action="store_true",
                   help="print the per-site miss profile (Table 6 style) "
                        "and per-service attribution")
    p.add_argument("--timeline", action="store_true",
                   help="print an ASCII miss/bus density timeline")
    p.add_argument("--assoc", type=int, default=1,
                   help="set associativity of all caches (power of two; "
                        "default 1 = the paper's direct-mapped machine)")
    p.add_argument("--bus-width", type=int, default=None,
                   help="bus width in bytes (power of two; default 8)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep",
                       help="simulate a seeded batch of generated "
                            "workloads (LITMUS-RT-style random sweep)")
    p.add_argument("--samples", type=int, default=6,
                   help="number of generated workloads (default 6)")
    p.add_argument("--families", default="",
                   help="comma-separated profile families "
                        "(default: all sweepable families)")
    p.add_argument("--configs", default="Base,Blk_Dma",
                   help="comma-separated scheme names "
                        "(default Base,Blk_Dma)")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cpus", default="4",
                   help="comma-separated CPU counts to sweep (default 4)")
    p.add_argument("--assoc", type=int, default=1,
                   help="set associativity of all caches (power of two; "
                        "default 1 = the paper's direct-mapped machine)")
    p.add_argument("--bus-width", type=int, default=None,
                   help="bus width in bytes (power of two; default 8)")
    p.add_argument("--intensities", default="0.6,1.0",
                   help="comma-separated intensity levels in (0, 1]")
    p.add_argument("--patterns", default="",
                   help="comma-separated intensity patterns "
                        "(default: steady,bursty,diurnal)")
    p.add_argument("--workers", type=int, default=os.cpu_count(),
                   help="parallel sweep processes (default: os.cpu_count())")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="on-disk artifact cache directory "
                        f"(default {DEFAULT_CACHE_DIR!r})")
    p.add_argument("--no-cache", action="store_true",
                   help="do not persist traces/artifacts on disk")
    p.add_argument("-o", "--output", default="")
    p.add_argument("-q", "--quiet", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="regenerate tables and figures")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--only", default="")
    p.add_argument("--ascii", action="store_true",
                   help="append ASCII drawings of the figures")
    p.add_argument("-o", "--output", default="")
    p.add_argument("-q", "--quiet", action="store_true")
    p.add_argument("--workers", type=int, default=os.cpu_count(),
                   help="parallel sweep processes (default: os.cpu_count())")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="on-disk artifact cache directory "
                        f"(default {DEFAULT_CACHE_DIR!r})")
    p.add_argument("--no-cache", action="store_true",
                   help="do not persist traces/artifacts on disk")
    p.add_argument("--ledger", default="",
                   help="JSONL run-ledger path (default: a fresh file "
                        "inside the cache directory)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("ablation", help="run a design-choice study")
    p.add_argument("study")
    p.add_argument("--workload", default="TRFD_4", choices=PROFILE_ORDER)
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--cache-dir", default="",
                   help="reuse/populate this artifact cache directory")
    p.set_defaults(fn=cmd_ablation)

    p = sub.add_parser("calibrate",
                       help="measured-vs-paper report for Tables 1-5")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--only", default="")
    p.set_defaults(fn=cmd_calibrate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
