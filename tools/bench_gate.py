#!/usr/bin/env python3
"""Throughput gate: compare an end-to-end benchmark run with a reference.

Run from the repository root::

    python3 benchmarks/e2e/run.py --repeats 3 --out e2e-ci.json
    python3 tools/bench_gate.py BENCH_e2e.json e2e-ci.json

Both files are ``benchmarks/e2e/run.py --out`` documents; the committed
``BENCH_e2e.json`` is the reference.  For every workload and every
``end_to_end`` metric of ``BENCHMARK.json``, the run's median may be
worse than the reference median by at most that metric's ``bound``, a
share of the reference median (``better`` says which direction is
worse).  A workload or metric missing from either file fails, and so
does a run whose correctness checks did not pass.  Exit status 0 means
the run passed; 1 means it failed, with one ``FAIL`` line per reason.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def failures(bench: dict, reference: dict, run: dict) -> List[str]:
    """Why *run* fails against *reference* under *bench*'s bounds; prints
    one row per compared metric."""
    out = []
    for workload in (w["name"] for w in bench["workloads"]):
        ref = reference["workloads"].get(workload)
        got = run["workloads"].get(workload)
        if ref is None or got is None:
            side = "reference" if ref is None else "run"
            out.append(f"{workload}: missing from the {side}")
            continue
        if not got["checks"]["correct"]:
            out.append(f"{workload}: checks not correct "
                       f"({'; '.join(got['checks']['problems']) or 'failed cells'})")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in ref["e2e"] or name not in got["e2e"]:
                out.append(f"{workload} {name}: not measured")
                continue
            before = ref["e2e"][name]["median"]
            after = got["e2e"][name]["median"]
            change = (after - before) / before
            worse_by = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if worse_by > bound:
                verdict = "WORSE"
                out.append(f"{workload} {name}: {after:.5g} against "
                           f"{before:.5g}, {worse_by:.1%} worse, bound "
                           f"{bound:.0%}")
            print(f"  {workload:<15} {name:<16} {before:>10.5g} -> "
                  f"{after:<10.5g} {change:+7.1%}  bound {bound:.0%}  "
                  f"{verdict}")
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in [BENCHMARK_JSON] + argv:
        with open(path) as fp:
            docs.append(json.load(fp))
    problems = failures(*docs)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"bench gate: {'FAIL' if problems else 'PASS'} "
          f"({argv[1]} against {argv[0]})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
