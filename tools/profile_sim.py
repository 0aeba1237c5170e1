#!/usr/bin/env python
"""Profile one simulator cell under cProfile.

Runs a single (workload, config, scale, machine) simulation and prints
the top functions by cumulative or total time — the quickest way to see
where the per-record hot path spends its cycles after a change.

The cell takes the path a sweep's sim job takes: the generated trace is
saved to a temporary npz and loaded back, and the profile covers the
``MultiprocessorSystem`` construction as well as the run.

Examples::

    PYTHONPATH=src python tools/profile_sim.py
    PYTHONPATH=src python tools/profile_sim.py --workload ARC2D+Fsck \\
        --config Blk_Pref --scale 0.5 --sort tottime --limit 25
    PYTHONPATH=src python tools/profile_sim.py --scan   # reference scheduler
    PYTHONPATH=src python tools/profile_sim.py \\
        --workload gen:server:c32:i060:steady:0:0 \\
        --machine 32cpu-4way-32B --scale 0.05 --sort tottime

See docs/performance.md for how to read the output.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="Shell",
                        help="workload or gen: profile name (default: Shell)")
    parser.add_argument("--config", default="Base",
                        help="scheme name, including the Hyb_UpdN@N<k> / "
                             "Hyb_Deg@T<k> forms (default: Base)")
    parser.add_argument("--machine", default="4cpu-1way-8B",
                        help="machine point label (default: 4cpu-1way-8B, "
                             "the paper machine)")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="trace scale factor (default: 0.5)")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default: cumulative)")
    parser.add_argument("--limit", type=int, default=20,
                        help="rows to print (default: 20)")
    parser.add_argument("--scan", action="store_true",
                        help="profile the reference scan scheduler "
                             "(run_scan) instead of the heap scheduler")
    args = parser.parse_args(argv)

    from repro.analysis.tables import MACHINE_POINTS, machine_point
    from repro.sim.config import resolve_config
    from repro.sim.system import MultiprocessorSystem
    from repro.synthetic.profiles import generate
    from repro.trace import npzio

    points = {label: rest for label, *rest in MACHINE_POINTS}
    if args.machine not in points:
        parser.error(f"unknown machine {args.machine!r}; "
                     f"choose from {list(points)}")
    machine = machine_point(*points[args.machine])
    try:
        config = resolve_config(args.config, machine)
    except KeyError as exc:
        parser.error(exc.args[0])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.npz")
        npzio.save(generate(args.workload, seed=args.seed, scale=args.scale),
                   path)
        trace = npzio.load(path)

    print(f"profiling {args.workload}/{args.config} on {args.machine} "
          f"scale={args.scale} "
          f"({len(trace)} records from npz, "
          f"{'scan' if args.scan else 'heap'} scheduler)", file=sys.stderr)
    profiler = cProfile.Profile()
    profiler.enable()
    system = MultiprocessorSystem(trace, config)
    if args.scan:
        system.run_scan()
    else:
        system.run()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
