#!/usr/bin/env python3
"""End-to-end sweep benchmark: three workloads through the real sweep path.

Run from the repository root::

    # every workload, --repeats untraced runs each plus one traced run;
    # prints every end-to-end and per-layer metric with its unit
    python3 benchmarks/e2e/run.py [--seed 1996] [--repeats 3] [--out FILE]

    # one run of one workload; the last stdout line is a JSON object
    # {"correct", "attempted", "failed", "metrics"} holding the
    # BENCHMARK.json end_to_end metrics (--trace 0) or per_layer ones (1)
    python3 benchmarks/e2e/run.py --workload paper-grid --seed 7 \\
        --seconds 10 --trace 0

    # before/after table of two --out files under the BENCHMARK.json bounds
    python3 benchmarks/e2e/run.py --compare A.json B.json

    # regenerate expected/<workload>-seed<seed>.json through serial
    # ExperimentRunner.run
    python3 benchmarks/e2e/run.py --write-expected [--workload W]

The load is a closed loop: one client submits a sweep and waits for it.
Every measurement runs in a fresh single-threaded subprocess
(``harness.py``); this process only launches them and checks results.
An untraced run launches :data:`SETUP_LAUNCHES` set-up children, then
cold-sweep children until their sweeps add up to ``--seconds`` (at least
one).  A traced run launches one traced child.  ``--seed`` is the only
workload input.

Correctness: every cell's ``SystemMetrics.snapshot()`` sha256 must match
``expected/<workload>-seed<seed>.json`` when that file exists for the
run's scale; otherwise every sweep must agree with the first.  Warm
results and a traced child's untraced replay must match their cold
sweep, and a warm resubmission must run 0 jobs.  The exit code is 0
only when every check passed.  A sweep that raised or a child that
crashed is still reported: the last line then reads ``correct: false``
and counts the failed cells (a crashed child counts as one).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import spec
from hostspeed import factor

HARNESS = os.path.join(spec.HERE, "harness.py")

#: Set-up launches per untraced run; setup_s is their median.
SETUP_LAUNCHES = 10
#: Longest any one child may take before it is killed.
CHILD_TIMEOUT_S = 600


class ChildError(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [spec.SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One thread per process: numpy's BLAS pools would otherwise start
    # one thread per core at import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed hash seed keeps dict and set layouts, and the host time
    # that depends on them, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    tmp = os.path.join(spec.WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def child(mode: str, workload: str, seed: int, scale: float,
          *extra: str) -> dict:
    """Run one harness child and return the JSON it printed."""
    argv = [sys.executable, HARNESS, mode, "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale), *extra]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, env=child_env(),
                          cwd=spec.ROOT, timeout=CHILD_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"harness {mode} {workload} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def scale_of(workload: str, override: Optional[float]) -> float:
    return override if override is not None else spec.WORKLOADS[workload].scale


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def untraced_run(workload: str, seed: int, scale: float,
                 seconds: float) -> dict:
    setups = [child("setup", workload, seed, scale,
                    "--t0", repr(time.monotonic()))
              for _ in range(SETUP_LAUNCHES)]
    sweeps: List[dict] = []
    measured = 0.0
    while not sweeps or measured < seconds:
        sweeps.append(child("sweep", workload, seed, scale))
        if "error" in sweeps[-1]:
            break
        measured += sweeps[-1]["sweep_raw_s"]
    ok = [s for s in sweeps if "error" not in s]
    values = {
        "setup_s": statistics.median(
            s["setup_raw_s"] * factor(s["probe_s"]) for s in setups),
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
    }
    for name, _unit in spec.E2E_METRICS:
        if ok and name not in values:
            values[name] = statistics.median(s[name] for s in ok)
    return {"values": values, "sweeps": sweeps}


def traced_run(workload: str, seed: int, scale: float) -> dict:
    spans = os.path.join(spec.WORK_DIR, f"spans-{workload}-seed{seed}.json")
    return child("traced", workload, seed, scale, "--spans", spans)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def expected_digests(workload: str, seed: int,
                     scale: float) -> Optional[Dict[str, str]]:
    path = os.path.join(spec.EXPECTED_DIR, f"{workload}-seed{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fp:
        doc = json.load(fp)
    return doc["cells"] if doc["scale"] == scale else None


def count_failed(reference: Dict[str, Optional[str]],
                 observed: dict) -> int:
    """Cells of one sweep or traced child that are missing or differ.

    A cell fails when its cold digest differs from *reference*, or its
    warm digest or (traced children) its untraced replay differs from
    its cold one.
    """
    cold = observed["digests"]
    warm = observed.get("warm_digests", cold)
    replayed = observed.get("untraced_digests", {})
    failed = 0
    for label, want in reference.items():
        got = cold.get(label)
        if (got is None or got != want or warm.get(label) != got
                or replayed.get(label, got) != got):
            failed += 1
    return failed + len(set(cold) - set(reference))


def check(workload: str, seed: int, scale: float, children: List[dict],
          crash: Optional[str] = None) -> dict:
    """Count failed cells over sweep/traced *children* and other faults.

    *crash* is the error of a child that printed no result; it counts as
    one failed attempt.
    """
    reference = expected_digests(workload, seed, scale)
    source = "committed digests"
    if reference is None:
        reference = children[0]["digests"] if children else {}
        source = "first sweep (no committed digests for this seed/scale)"
    attempted = sum(len(c["digests"]) for c in children)
    failed = sum(count_failed(reference, c) for c in children)
    problems = [c["error"] for c in children if "error" in c]
    if crash is not None:
        attempted += 1
        failed += 1
        problems.append(crash)
    if any(c.get("warm_jobs", 0) for c in children):
        problems.append("a warm resubmission ran jobs")
    for c in children:
        if "span_coverage" in c and not 0.9 <= c["span_coverage"] <= 1.0:
            problems.append(f"span self times cover {c['span_coverage']:.3f}"
                            f" of the traced sweep")
        if c.get("min_self_s", 0.0) < -1e-6:
            problems.append("a span has negative self time")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "reference": source,
            "correct": failed == 0 and not problems}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def summary(values: List[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else [values[0]] * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def exact(verdict: dict, sweep: dict) -> Dict[str, dict]:
    """The exact end-to-end checks of one run."""
    out = {}
    for name, unit in spec.EXACT_E2E:
        value = (verdict["failed"] / max(1, verdict["attempted"])
                 if name == "failed_frac" else sweep.get(name))
        out[name] = {"value": value, "unit": unit}
    return out


def print_checks(verdict: dict) -> None:
    print(f"  checks: {verdict['attempted'] - verdict['failed']}/"
          f"{verdict['attempted']} cells match the {verdict['reference']}")
    for problem in verdict["problems"]:
        print(f"  PROBLEM: {problem}")


def driver_mode(args, bench: dict) -> int:
    workload = args.workload
    scale = scale_of(workload, args.scale)
    print(f"{workload} seed={args.seed} scale={scale} trace={args.trace}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    children: List[dict] = []
    values: dict = {}
    crash = None
    try:
        if args.trace:
            traced = traced_run(workload, args.seed, scale)
            children, values = [traced], traced["layers"]
            print(f"  span file: {traced['spans_path']} ({traced['spans']} "
                  f"spans, shim coverage {traced['span_coverage']:.4f})")
        else:
            run = untraced_run(workload, args.seed, scale, args.seconds)
            children, values = run["sweeps"], run["values"]
    except ChildError as err:
        crash = str(err)
    verdict = check(workload, args.seed, scale, children, crash)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        verdict["problems"].append(f"not measured: {', '.join(missing)}")
        verdict["correct"] = False
    metrics = {}
    for metric in wanted:
        if metric["name"] in values:
            value = values[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<28} {value:.6g} {metric['unit']}")
    if not args.trace and children:
        print("  -- reported beside them --")
        for name, unit in spec.E2E_METRICS:
            if name in values and name not in metrics:
                print(f"  {name:<28} {values[name]:.6g} {unit}")
        for name, row in exact(verdict, children[0]).items():
            if row["value"] is not None:
                print(f"  {name:<28} {row['value']:.6g} {row['unit']}")
    print_checks(verdict)
    print(json.dumps({"correct": verdict["correct"],
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0 if verdict["correct"] else 1


def full_mode(args, bench: dict) -> int:
    names = list(spec.WORKLOADS)
    runs: Dict[str, List[dict]] = {w: [] for w in names}
    for repeat in range(args.repeats):
        # Alternate the order so slow drift of the host does not always
        # land on the same workload.
        for workload in names if repeat % 2 == 0 else names[::-1]:
            print(f"[repeat {repeat + 1}/{args.repeats}] {workload}",
                  file=sys.stderr, flush=True)
            runs[workload].append(untraced_run(
                workload, args.seed, scale_of(workload, args.scale),
                args.seconds))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report: Dict[str, dict] = {}
    correct = True
    for workload in names:
        scale = scale_of(workload, args.scale)
        print(f"[traced] {workload}", file=sys.stderr, flush=True)
        e2e = {}
        for name, unit in spec.E2E_METRICS:
            samples = [r["values"][name] for r in runs[workload]
                       if name in r["values"]]
            if samples:
                e2e[name] = dict(summary(samples), unit=unit)
        traced = traced_run(workload, args.seed, scale)
        sweeps = [s for r in runs[workload] for s in r["sweeps"]]
        verdict = check(workload, args.seed, scale, sweeps + [traced])
        correct = correct and verdict["correct"]
        extra = exact(verdict, sweeps[0])
        report[workload] = {
            "scale": scale, "cells": sweeps[0]["cells"], "e2e": e2e,
            "extra": extra,
            "layers": {name: {"value": value, "unit": units.get(name, "")}
                       for name, value in sorted(traced["layers"].items())},
            "checks": verdict,
            "span_coverage": traced["span_coverage"],
        }
        print(f"\n== {workload} (scale {scale}, {sweeps[0]['cells']} cells, "
              f"seed {args.seed}) ==")
        for name, row in e2e.items():
            print(f"  {name:<32} {row['median']:.6g} {row['unit']}  "
                  f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]")
        for name, row in extra.items():
            if row["value"] is not None:
                print(f"  {name:<32} {row['value']:.6g} {row['unit']}")
        print("  -- traced run --")
        for name, row in report[workload]["layers"].items():
            print(f"  {name:<32} {row['value']:.6g} {row['unit']}")
        print_checks(verdict)
    result = {"meta": {"seed": args.seed, "repeats": args.repeats,
                       "seconds": args.seconds,
                       "python": sys.version.split()[0],
                       "cpus": os.cpu_count(),
                       "unix_time": int(time.time())},
              "workloads": report}
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(result, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"wrote {args.out}")
    return 0 if correct else 1


def verdict_of(a: dict, b: dict, bound: float, better: str) -> str:
    """better / worse / unchanged / unresolved for one metric."""
    spread = max((a["q3"] - a["q1"]) / a["median"],
                 (b["q3"] - b["q1"]) / b["median"])
    change = (b["median"] - a["median"]) / a["median"]
    worse_by = change if better == "lower" else -change
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare_mode(paths: List[str], bench: dict) -> int:
    docs = []
    for path in paths:
        with open(path) as fp:
            docs.append(json.load(fp))
    a, b = docs

    def row(name, cell_a, cell_b, change, bound, verdict):
        print(f"  {name:<16} {cell_a:<32} {cell_b:<32} {change:>7} "
              f"{bound:>6}  {verdict}")

    def quartiles(r):
        return f"{r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}]"

    for workload in spec.WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            print(f"\n== {workload} ==  missing from A or B")
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        print(f"\n== {workload} ==  A={paths[0]}  B={paths[1]}")
        row("metric", "A median [q1, q3]", "B median [q1, q3]", "change",
            "bound", "verdict")
        for metric in bench["end_to_end"]:
            ra, rb = wa["e2e"][metric["name"]], wb["e2e"][metric["name"]]
            change = (rb["median"] - ra["median"]) / ra["median"]
            row(metric["name"], quartiles(ra), quartiles(rb), f"{change:+.1%}",
                f"{metric['bound']:.0%}",
                verdict_of(ra, rb, metric["bound"], metric["better"]))
        for name, exact_a in wa["extra"].items():
            va, vb = exact_a["value"], wb["extra"][name]["value"]
            if va is None or vb is None:
                continue
            row(name, f"{va:.5g}", f"{vb:.5g}", "", "exact",
                "unchanged" if va == vb else "worse" if vb > va else "better")
    return 0


def write_expected(args) -> int:
    os.makedirs(spec.EXPECTED_DIR, exist_ok=True)
    for workload in [args.workload] if args.workload else list(spec.WORKLOADS):
        doc = child("expected", workload, args.seed,
                    scale_of(workload, args.scale))
        path = os.path.join(spec.EXPECTED_DIR,
                            f"{workload}-seed{args.seed}.json")
        with open(path, "w") as fp:
            json.dump(doc, fp, indent=1, sort_keys=True)
            fp.write("\n")
        print(f"wrote {path} ({len(doc['cells'])} cells)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="one run of this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sweep seconds to measure per untraced run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload without --workload")
    parser.add_argument("--scale", type=float, default=None,
                        help="override every workload's scale (tests, quick "
                             "checks; not comparable with default runs)")
    parser.add_argument("--out", default="",
                        help="write the all-workload results here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate the committed snapshot digests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(spec.SRC, "repro")):
        print(f"no repro package under {spec.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = spec.load_benchmark_json()
    if args.compare:
        return compare_mode(args.compare, bench)
    if args.write_expected:
        return write_expected(args)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload:
        return driver_mode(args, bench)
    return full_mode(args, bench)


if __name__ == "__main__":
    sys.exit(main())
