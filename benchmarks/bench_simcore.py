#!/usr/bin/env python
"""Simulator-core throughput benchmark: the ``BENCH_simcore.json`` writer.

Measures serial simulation throughput (trace records per second) of
:meth:`MultiprocessorSystem.run` for every workload x scheme cell at one
or more workload scales.  Trace generation happens outside the timer; each
cell is simulated ``--repeats`` times and the best wall time is kept.

Schema 3 cells hold ``records``, ``best_seconds``, ``records_per_sec``
and ``normalized``, the schema-1 keys, so the regression check compares
like with like across schema bumps.

Because absolute records/sec depends on the host, every run also measures
a fixed pure-Python *calibration* kernel (dict/int/attribute traffic much
like the simulator's own inner loop).  Each cell stores both the raw
``records_per_sec`` and ``normalized`` = records/sec divided by the
calibration score; the regression check compares *normalized* values so a
committed baseline from one machine remains meaningful on another (e.g.
CI runners).

Usage::

    PYTHONPATH=src python benchmarks/bench_simcore.py \
        --scales 0.25,0.5 --out BENCH_simcore.json

    # CI: measure at scale 0.25 and fail on a >20% normalized regression
    # against the committed trajectory file.
    python benchmarks/bench_simcore.py --scales 0.25 --repeats 2 \
        --out bench-ci.json --check BENCH_simcore.json --max-regression 0.2

``--baseline-from FILE`` embeds a previous result file under the
``baseline`` key of the output, which is how before/after numbers of an
optimization PR are recorded in one committed artifact.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List, Optional

from repro.sim.config import standard_configs
from repro.sim.system import MultiprocessorSystem
from repro.synthetic.workloads import WORKLOAD_ORDER, generate

#: Pure-scheme systems that simulate the raw trace directly.  The derived
#: systems (BCoh_*, BCPref) need the runner's profiling chain and measure
#: the same inner loop, so the bench sticks to these five.
DEFAULT_SCHEMES = ("Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma")

DEFAULT_SCALES = (0.25, 0.5)

SCHEMA_VERSION = 3

#: Iterations of the calibration kernel (fixed; part of the metric).
_CALIBRATION_ITERS = 200_000


def calibrate(rounds: int = 3) -> float:
    """Machine-speed score: iterations/sec of a fixed pure-Python kernel."""
    best: Optional[float] = None
    for _ in range(rounds):
        table: Dict[int, int] = {}
        acc = 0
        t0 = time.perf_counter()
        for i in range(_CALIBRATION_ITERS):
            table[i & 1023] = i
            acc += table.get((i * 7) & 1023, 0)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None and acc >= 0
    return _CALIBRATION_ITERS / best


def bench_cell(trace, config, repeats: int) -> Dict[str, float]:
    """Best-of-*repeats* wall time and throughput of one cell."""
    best: Optional[float] = None
    for _ in range(repeats):
        system = MultiprocessorSystem(trace, config)
        t0 = time.perf_counter()
        system.run()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    n = len(trace)
    return {"records": n, "best_seconds": best, "records_per_sec": n / best}


def run_bench(scales: List[float], schemes: List[str], workloads: List[str],
              seed: int, repeats: int) -> Dict[str, object]:
    calibration = calibrate()
    configs = standard_configs()
    cells: Dict[str, Dict[str, float]] = {}
    for scale in scales:
        for workload in workloads:
            trace = generate(workload, seed=seed, scale=scale)
            for scheme in schemes:
                cell = bench_cell(trace, configs[scheme], repeats)
                cell["normalized"] = cell["records_per_sec"] / calibration
                key = f"{scale}/{workload}/{scheme}"
                cells[key] = cell
                print(f"  {key}: {cell['records_per_sec']:,.0f} rec/s "
                      f"(norm {cell['normalized']:.3f})", flush=True)
    return {
        "schema": SCHEMA_VERSION,
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "seed": seed,
            "repeats": repeats,
            "calibration_iters_per_sec": calibration,
            "unix_time": int(time.time()),
        },
        "cells": cells,
    }


def check_regression(current: Dict[str, object], baseline_path: str,
                     max_regression: float) -> int:
    """Compare normalized throughput against a committed result file.

    Returns the number of regressed cells (0 means the check passed).
    """
    with open(baseline_path) as fh:
        committed = json.load(fh)
    committed_cells = committed.get("cells", {})
    current_cells = current["cells"]
    shared = sorted(set(committed_cells) & set(current_cells))
    if not shared:
        print(f"check: no overlapping cells with {baseline_path}",
              file=sys.stderr)
        return 1
    failures = 0
    for key in shared:
        base = committed_cells[key]["normalized"]
        cur = current_cells[key]["normalized"]
        floor = base * (1.0 - max_regression)
        status = "ok" if cur >= floor else "REGRESSED"
        if cur < floor:
            failures += 1
        print(f"  check {key}: baseline {base:.3f} -> current {cur:.3f} "
              f"(floor {floor:.3f}) {status}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", default=",".join(map(str, DEFAULT_SCALES)),
                        help="comma-separated workload scales")
    parser.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES),
                        help="comma-separated scheme config names")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_ORDER),
                        help="comma-separated workload names")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--repeats", type=int, default=2,
                        help="simulations per cell; best time kept")
    parser.add_argument("--out", default=None,
                        help="write the result JSON here")
    parser.add_argument("--baseline-from", default=None,
                        help="embed this earlier result file as 'baseline'")
    parser.add_argument("--check", default=None, metavar="FILE",
                        help="fail when normalized throughput regresses "
                             "against FILE's cells")
    parser.add_argument("--max-regression", type=float, default=0.2,
                        help="allowed fractional drop for --check")
    args = parser.parse_args(argv)

    scales = [float(s) for s in args.scales.split(",") if s]
    schemes = [s for s in args.schemes.split(",") if s]
    workloads = [w for w in args.workloads.split(",") if w]

    print(f"bench_simcore: scales={scales} schemes={schemes} "
          f"workloads={workloads} repeats={args.repeats}", flush=True)
    result = run_bench(scales, schemes, workloads, args.seed, args.repeats)

    if args.baseline_from:
        with open(args.baseline_from) as fh:
            earlier = json.load(fh)
        result["baseline"] = {"meta": earlier.get("meta"),
                              "cells": earlier.get("cells")}

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        failures = check_regression(result, args.check, args.max_regression)
        if failures:
            print(f"bench_simcore: {failures} cell(s) regressed more than "
                  f"{args.max_regression:.0%}", file=sys.stderr)
            return 1
        print("bench_simcore: regression check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
