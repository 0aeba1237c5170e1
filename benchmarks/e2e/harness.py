"""Child-process side of the end-to-end benchmark.

``run.py`` launches this script once per measurement, always in a fresh
single-threaded interpreter, and reads the one JSON line it prints:

* ``setup``    -- import the pipeline, resolve the cell list, build the
  engine and cache, report when that finished;
* ``sweep``    -- one cold sweep on a fresh artifact cache, then warm
  resubmissions, snapshot digests and peak RSS;
* ``traced``   -- the same cold sweep and one warm pass under span shims
  (:mod:`layers`), then the cProfile pass over one trace's cells;
* ``expected`` -- snapshot digests through serial
  ``ExperimentRunner.run``, which never touches the engine being timed.

The sweep path is the one ``repro.experiments.all`` and the sweep service
run: ``ParallelEngine(workers=1, reuse_sims=True)`` on a fresh
``ArtifactCache``.  Simulated caches start empty in every cell.  Times
are in reference seconds (:mod:`hostspeed`); raw wall times are
reported beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import spec
from hostspeed import Sampler, factor, probe, scaled

#: Warm resubmissions per sweep child; warm_s is their median.
WARM_PASSES = 20


def digest(metrics) -> str:
    """sha256 of a metrics snapshot in canonical JSON."""
    blob = json.dumps(metrics.snapshot(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build(workload: str, seed: int, scale: float, cache_dir: str):
    """Resolve the cells and build the engine a sweep runs on."""
    from repro.common.params import BASE_MACHINE
    from repro.experiments.artifacts import ArtifactCache
    from repro.experiments.parallel import ParallelEngine

    cells = spec.cells(workload)
    engine = ParallelEngine(scale=scale, seed=seed, machine=BASE_MACHINE,
                            cache=ArtifactCache(cache_dir), workers=1,
                            reuse_sims=True)
    return cells, engine


def execute(engine, cells, recorder=None, name: str = "sweep") -> dict:
    """One engine pass over *cells*; the root span *name* when traced."""
    root = recorder.open(name) if recorder is not None else None
    start = time.perf_counter()
    try:
        results = engine.execute(cells)
    finally:
        end = time.perf_counter()
        if root is not None:
            recorder.close(root)
    return {"results": results, "start": start, "end": end,
            "jobs": sum(engine.last_job_kinds.values()),
            "stats": dict(engine.last_stats)}


def cell_digests(cells, results) -> Dict[str, Optional[str]]:
    """Digest per requested cell; ``None`` where the sweep returned none."""
    from repro.experiments.artifacts import SimKey

    out: Dict[str, Optional[str]] = {}
    for workload, config, machine in cells:
        metrics = results.get(SimKey.of(workload, config, machine))
        out[spec.cell_label(workload, config, machine)] = (
            digest(metrics) if metrics is not None else None)
    return out


def figure_errors(results) -> Dict[str, Optional[float]]:
    """Mean |measured - paper| of the Figure 3 and Figure 2 targets.

    ``None`` for a workload whose cells do not cover the paper grid.
    """
    from repro.analysis.targets import FIGURE2, FIGURE3, WORKLOADS
    from repro.common.params import BASE_MACHINE
    from repro.experiments.artifacts import SimKey

    def get(workload, config):
        return results.get(SimKey.of(workload, config, BASE_MACHINE))

    if any(get(w, s) is None for w in WORKLOADS for s in FIGURE3):
        return {"fig3_err": None, "fig2_err": None}
    fig3, fig2 = [], []
    for col, workload in enumerate(WORKLOADS):
        base = get(workload, "Base")
        base_time = max(1, base.os_time().total)
        base_misses = max(1, base.os_read_misses())
        for system, values in FIGURE3.items():
            if system != "Base":
                measured = get(workload, system).os_time().total / base_time
                fig3.append(abs(measured - values[col]))
        for system, values in FIGURE2.items():
            if system != "Base":
                measured = get(workload, system).os_read_misses() / base_misses
                fig2.append(abs(measured - values[col]))
    return {"fig3_err": statistics.fmean(fig3),
            "fig2_err": statistics.fmean(fig2)}


def model_fingerprints(cells, results) -> Dict[str, int]:
    """Simulated quantities summed over the requested cells."""
    from repro.experiments.artifacts import SimKey

    totals = {"model.cycles": 0, "model.os_read_misses": 0,
              "model.os_dread_cycles": 0, "model.update_traffic_cycles": 0}
    for workload, config, machine in cells:
        m = results[SimKey.of(workload, config, machine)]
        totals["model.cycles"] += m.total_cpu_cycles
        totals["model.os_read_misses"] += m.os_read_misses()
        totals["model.os_dread_cycles"] += m.os_time().dread
        totals["model.update_traffic_cycles"] += m.update_traffic_cycles()
    return totals


def input_records(engine, cells) -> int:
    """Records of the workload traces the sweep generated, read back
    from its cache."""
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=engine.scale, seed=engine.seed,
                              machine=engine.machine, cache=engine.cache)
    return sum(len(runner.trace(w)) for w in dict.fromkeys(c[0] for c in cells))


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def mode_setup(args, cache_dir: str) -> dict:
    build(args.workload, args.seed, args.scale, cache_dir)
    ready = time.monotonic()
    return {"setup_raw_s": ready - args.t0, "probe_s": probe()}


def mode_sweep(args, cache_dir: str) -> dict:
    cells, engine = build(args.workload, args.seed, args.scale, cache_dir)
    out: dict = {"cells": len(cells)}
    try:
        with Sampler() as speed:
            cold = execute(engine, cells)
    except Exception as err:  # a failed sweep is a result, not a crash
        traceback.print_exc()
        out["error"] = f"{type(err).__name__}: {err}"
        out["digests"] = {spec.cell_label(*c): None for c in cells}
        return out
    sweep_s = speed.reference(cold["start"], cold["end"])
    probes = [probe()]
    passes = []
    for _ in range(WARM_PASSES):
        passes.append(execute(engine, cells))
        probes.append(probe())
    seconds = [p["end"] - p["start"] for p in passes]
    digests = cell_digests(cells, cold["results"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = input_records(engine, cells)
    out.update({
        "digests": digests,
        "warm_digests": cell_digests(cells, passes[-1]["results"]),
        "records": records,
        "sweep_s": sweep_s,
        "sweep_raw_s": speed.busy(cold["start"], cold["end"]),
        "sweep_rec_per_s": records / sweep_s,
        "jobs": cold["jobs"],
        "warm_s": statistics.median(scaled(seconds, probes)),
        "warm_raw_s": statistics.median(seconds),
        "warm_jobs": max(p["jobs"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    })
    if None not in digests.values():
        out.update(figure_errors(cold["results"]))
        out["model"] = model_fingerprints(cells, cold["results"])
    return out


def mode_traced(args, cache_dir: str) -> dict:
    import layers

    cells, engine = build(args.workload, args.seed, args.scale, cache_dir)
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        with Sampler() as speed:
            recorder.active = True
            cold = execute(engine, cells, recorder, "sweep")
            warm = execute(engine, cells, recorder, "sweep.warm")
    finally:
        recorder.active = False
        recorder.uninstall()
    sweep_s = speed.reference(cold["start"], cold["end"])
    workload = spec.WORKLOADS[args.workload]
    profiled = [c for c in cells if c[0] == workload.profile_trace]
    host, replayed = layers.host_profile(args.scale, args.seed, cache_dir,
                                         profiled, recorder, speed)
    metrics = layers.layer_metrics(recorder, speed,
                                   [cold["stats"], warm["stats"]])
    metrics.update(host)
    metrics.update(model_fingerprints(cells, cold["results"]))
    # Overhead of tracing: the calibrated cost of every recorded span,
    # in reference seconds, over the untraced remainder of the sweep.
    shims = recorder.count("sweep") * layers.span_cost() * factor(probe())
    metrics["tracing.overhead_frac"] = shims / (sweep_s - shims)
    os.makedirs(os.path.dirname(os.path.abspath(args.spans)), exist_ok=True)
    with open(args.spans, "w") as fp:
        json.dump(recorder.chrome_trace(), fp)
    return {
        "cells": len(cells),
        "digests": cell_digests(cells, cold["results"]),
        "warm_digests": cell_digests(cells, warm["results"]),
        "untraced_digests": {label: digest(m)
                             for label, m in replayed.items()},
        "warm_jobs": warm["jobs"],
        "sweep_s": sweep_s,
        "sweep_raw_s": speed.busy(cold["start"], cold["end"]),
        "span_coverage": recorder.coverage("sweep", speed),
        "min_self_s": recorder.min_self(),
        "spans": len(recorder.spans), "spans_path": args.spans,
        "layers": metrics,
    }


def mode_expected(args, cache_dir: str) -> dict:
    from repro.common.params import BASE_MACHINE
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=args.scale, seed=args.seed,
                              machine=BASE_MACHINE, workers=1)
    return {"workload": args.workload, "seed": args.seed,
            "scale": args.scale,
            "cells": {spec.cell_label(w, c, m):
                      digest(runner.run(w, c, machine=m))
                      for w, c, m in spec.cells(args.workload)}}


MODES = {"setup": mode_setup, "sweep": mode_sweep, "traced": mode_traced,
         "expected": mode_expected}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--t0", type=float, default=0.0,
                        help="parent's time.monotonic() at launch (setup)")
    parser.add_argument("--spans", default="",
                        help="Chrome-trace output path (traced)")
    args = parser.parse_args(argv)
    cache_dir = os.path.join(spec.WORK_DIR, f"cache-{os.getpid()}")
    try:
        result = MODES[args.mode](args, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
