"""Per-layer measurement of a traced run: span shims and a host profile.

:class:`SpanRecorder` replaces public entry points of each layer with
shims that record a span (name, start, end, parent, args) while the
recorder is active.  Spans stay in memory; :meth:`SpanRecorder.chrome_trace`
renders them as Chrome-trace JSON at the end.  A span's self time is its
duration minus its children's.

:func:`host_profile` is the second pass: it replays one trace's cells
with ``simulate`` under cProfile and buckets ``tottime`` and ``ncalls``
by ``repro`` module.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence

import spec
from hostspeed import Sampler, factor, probe

#: ``validate_chrome_trace`` admits only the simulator's event
#: categories, so host spans are filed under one of them; their layer is
#: in ``args.layer``.
SPAN_CAT = "bus"

#: Span-name prefix -> the repro layer it measures.
LAYERS = {
    "sweep": "experiments.parallel", "job": "experiments.parallel",
    "runner": "experiments.parallel", "ledger": "experiments.ledger",
    "synthetic": "synthetic", "npz": "trace",
    "artifacts": "experiments.artifacts", "optim": "optim", "sim": "sim",
    "metrics": "sim.metrics",
}

ARTIFACT_METHODS = ("load_trace", "store_trace", "load_json", "store_json",
                    "load_update_selection", "store_update_selection",
                    "load_hotspots", "store_hotspots", "load_metrics",
                    "store_metrics")

#: Spans whose ``sim.simulate`` descendants are derivation profiling runs.
DERIVE_SPANS = ("runner.update_selection", "runner.hotspots")


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


def _describe_generate(args, kwargs, result) -> dict:
    return {"records": len(result)}


def _describe_simulate(args, kwargs, result) -> dict:
    trace, config = args[0], args[1]
    return {"records": len(trace), "config": config.name}


def _describe_run(args, kwargs, result) -> dict:
    runner, workload, config = args[0], args[1], args[2]
    machine = kwargs.get("machine", args[3] if len(args) > 3 else None)
    return {"cell": spec.cell_label(workload, config,
                                    machine or runner.machine)}


def _describe_save(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _describe_system_run(args, kwargs, result) -> dict:
    system = args[0]
    return {"records": len(system.trace),
            "batched": getattr(system, "batched_records", 0)}


class SpanRecorder:
    """In-memory span log fed by shims around each layer's entry points."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, args]`` in open order,
        #: so a parent always precedes its children.
        self.spans: List[list] = []
        #: Shims record only while this is set.
        self.active = False
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of "
                               f"order")

    def _shim(self, fn, name, describe=None):
        recorder = self

        def shim(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            index = recorder.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if describe is not None:
                recorder.spans[index][4] = describe(args, kwargs, result)
            return result

        return shim

    def install(self) -> None:
        """Put a shim in front of every measured entry point."""
        from repro.experiments import parallel, runner
        from repro.experiments.artifacts import ArtifactCache
        from repro.experiments.ledger import RunLedger
        from repro.optim.hotspots import HotspotPrefetcher
        from repro.sim.metrics import SystemMetrics
        from repro.sim.system import MultiprocessorSystem
        from repro.trace import npzio

        Runner = runner.ExperimentRunner
        targets = [
            (parallel, "_execute_job", lambda a: f"job.{a[0]['kind']}", None),
            (runner, "generate", "synthetic.generate", _describe_generate),
            (runner, "privatize_and_relocate", "optim.privatize", None),
            (runner, "select_update_core", "optim.update_select", None),
            (runner, "find_hotspots", "optim.hotspots", None),
            (HotspotPrefetcher, "apply", "optim.prefetch", None),
            (runner, "simulate", "sim.simulate", _describe_simulate),
            (Runner, "run", "runner.run", _describe_run),
            (Runner, "update_selection", "runner.update_selection", None),
            (Runner, "hotspots", "runner.hotspots", None),
            (npzio, "save", "npz.save", _describe_save),
            (npzio, "load", "npz.load", None),
            (RunLedger, "record", "ledger.record", None),
            (SystemMetrics, "snapshot", "metrics.snapshot", None),
            (MultiprocessorSystem, "run", "sim.system_run",
             _describe_system_run),
        ] + [(ArtifactCache, method, f"artifacts.{method}", None)
             for method in ARTIFACT_METHODS]
        for owner, attr, name, describe in targets:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._shim(original, name, describe))
        restore = SystemMetrics.__dict__["from_snapshot"]
        self._saved.append((SystemMetrics, "from_snapshot", restore))
        SystemMetrics.from_snapshot = classmethod(
            self._shim(restore.__func__, "metrics.restore"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def durations(self, speed: Optional[Sampler] = None) -> List[float]:
        """Each span's host seconds; reference seconds, probe time left
        out, when *speed* is given."""
        if speed is None:
            return [end - start for _n, start, end, _p, _a in self.spans]
        return [speed.reference(start, end)
                for _n, start, end, _p, _a in self.spans]

    def self_times(self, speed: Optional[Sampler] = None) -> List[float]:
        """Each span's duration minus its children's."""
        durations = self.durations(speed)
        selfs = list(durations)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                selfs[span[3]] -= durations[i]
        return selfs

    def _top(self, root_name: str) -> int:
        return next(i for i, s in enumerate(self.spans)
                    if s[0] == root_name and s[3] < 0)

    def _tree(self, root_name: str) -> List[int]:
        """Indices of root span *root_name* and all its descendants."""
        root: List[int] = []
        for i, span in enumerate(self.spans):
            root.append(i if span[3] < 0 else root[span[3]])
        top = self._top(root_name)
        return [i for i, r in enumerate(root) if r == top]

    def coverage(self, root_name: str,
                 speed: Optional[Sampler] = None) -> float:
        """Share of root span *root_name* that its shim children cover.

        That is the root's duration less its own self time, which no
        shim caught.  With *speed* the host-speed probes are left out of
        both sides.
        """
        measure = speed.busy if speed else (lambda start, end: end - start)
        top = self._top(root_name)
        covered = sum(measure(start, end)
                      for _n, start, end, parent, _a in self.spans
                      if parent == top)
        _name, start, end, _parent, _args = self.spans[top]
        return covered / measure(start, end)

    def min_self(self) -> float:
        return min(self.self_times())

    def count(self, root_name: str) -> int:
        """Shim spans recorded under root span *root_name*."""
        return len(self._tree(root_name)) - 1

    def _under_derive(self) -> List[bool]:
        flags: List[bool] = []
        for span in self.spans:
            parent = span[3]
            flags.append(parent >= 0 and (
                flags[parent] or self.spans[parent][0] in DERIVE_SPANS))
        return flags

    def simulate_seconds(self, cells: Sequence[tuple],
                         speed: Sampler) -> float:
        """Traced-sweep simulate reference seconds of *cells*."""
        wanted = {spec.cell_label(*cell) for cell in cells}
        total = 0.0
        for name, start, end, parent, _args in self.spans:
            if name != "sim.simulate" or parent < 0:
                continue
            label = self.spans[parent][4].get("cell")
            if label in wanted:
                wanted.discard(label)
                total += speed.reference(start, end)
        return total

    def chrome_trace(self) -> dict:
        origin = min((s[1] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [{"name": "process_name", "ph": "M", "pid": pid, "ts": 0,
                   "args": {"name": "repro sweep host time"}}]
        for name, start, end, _parent, args in self.spans:
            events.append({"name": name, "cat": SPAN_CAT, "ph": "X",
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6, "pid": pid, "tid": 0,
                           "args": dict(args, layer=layer_of(name))})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"clock": "host perf_counter; 1 ts unit = 1 us"}}


def span_cost(calls: int = 20_000) -> float:
    """Seconds one recorded span adds: an active shim around a no-op
    against the bare no-op, on a scratch recorder."""
    def noop():
        return None

    scratch = SpanRecorder()
    scratch.active = True
    shim = scratch._shim(noop, "bench.calibrate")
    start = time.perf_counter()
    for _ in range(calls):
        shim()
    shimmed = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    return max(0.0, (shimmed - bare) / calls)


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def layer_metrics(recorder: SpanRecorder, speed: Sampler,
                  stats: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced sweep and warm pass.

    Span times are in reference seconds; *stats* are the engine's
    artifact-cache counters of those passes.
    """
    spans = recorder.spans
    selfs = recorder.self_times(speed)
    seconds = recorder.durations(speed)
    derive = recorder._under_derive()
    total: Dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    self_by_layer: Dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        total[span[0]] += seconds[i]
        count[span[0]] += 1
        self_by_layer[span[0].split(".", 1)[0]] += selfs[i]

    cell_sims = [i for i, s in enumerate(spans)
                 if s[0] == "sim.simulate" and not derive[i]]
    cell_set = set(cell_sims)
    durations = [seconds[i] for i in cell_sims]
    records = sum(spans[i][4]["records"] for i in cell_sims)
    runs = [s[4] for s in spans
            if s[0] == "sim.system_run" and s[3] in cell_set]
    run_records = sum(r["records"] for r in runs)
    hits = sum(n for st in stats for k, n in st.items() if k.endswith(".hit"))
    misses = sum(n for st in stats for k, n in st.items()
                 if k.endswith(".miss"))
    p25_50_75 = _quartiles(durations)
    return {
        "engine.self_s": (self_by_layer["sweep"] + self_by_layer["job"]
                          + self_by_layer["runner"]),
        "engine.jobs": sum(n for k, n in count.items()
                           if k.startswith("job.")),
        "engine.ledger_s": total["ledger.record"],
        "synthetic.generate_s": total["synthetic.generate"],
        "synthetic.records": sum(s[4]["records"] for s in spans
                                 if s[0] == "synthetic.generate"),
        "trace.npz_save_s": total["npz.save"],
        "trace.npz_load_s": total["npz.load"],
        "trace.npz_loads": count["npz.load"],
        "trace.npz_mb": sum(s[4]["bytes"] for s in spans
                            if s[0] == "npz.save") / 2 ** 20,
        "artifacts.self_s": self_by_layer["artifacts"],
        "artifacts.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "optim.privatize_s": total["optim.privatize"],
        "optim.update_select_s": total["optim.update_select"],
        "optim.hotspots_s": total["optim.hotspots"],
        "optim.prefetch_s": total["optim.prefetch"],
        "derive.profile_sim_s": sum(
            seconds[i] for i, s in enumerate(spans)
            if s[0] == "sim.simulate" and derive[i]),
        "sim.cells": len(cell_sims),
        "sim.records": records,
        "sim.cell_total_s": sum(durations),
        "sim.rec_per_s": records / sum(durations) if durations else 0.0,
        "sim.cell_s.p50": p25_50_75[1],
        "sim.cell_s.p75": p25_50_75[2],
        "sim.batched_frac": (sum(r["batched"] for r in runs) / run_records
                             if run_records else 0.0),
        "metrics.snapshot_s": total["metrics.snapshot"],
        "metrics.restore_s": total["metrics.restore"],
    }


def module_of(filename: str) -> str:
    """The :data:`spec.HOST_MODULES` bucket of a profiled function."""
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    name = filename[at + len(marker):].rsplit(".", 1)[0].replace(os.sep, ".")
    return name if name in spec.HOST_MODULES else "other"


def host_profile(scale: float, seed: int, cache_dir: str,
                 cells: Sequence[tuple], recorder: SpanRecorder,
                 speed: Sampler):
    """Replay *cells* with ``simulate`` under cProfile; bucket by module.

    The cells run through a fresh serial ``ExperimentRunner`` that reads
    traces and derived artifacts from the traced sweep's warm cache, so
    only the simulations run.  The profile overhead compares against the
    same cells' traced-sweep spans.  Returns the metrics and the replayed
    cells' results by :func:`spec.cell_label`.
    """
    from repro.common.params import BASE_MACHINE
    from repro.experiments import runner as runner_module
    from repro.experiments.artifacts import ArtifactCache

    runner = runner_module.ExperimentRunner(
        scale=scale, seed=seed, machine=BASE_MACHINE,
        cache=ArtifactCache(cache_dir))
    profiler = cProfile.Profile()
    original = runner_module.simulate
    done = {"records": 0, "seconds": 0.0}

    def profiled(trace, config, *args, **kwargs):
        done["records"] += len(trace)
        before = probe()
        start = time.perf_counter()
        profiler.enable()
        try:
            return original(trace, config, *args, **kwargs)
        finally:
            profiler.disable()
            elapsed = time.perf_counter() - start
            done["seconds"] += elapsed * factor(before, probe())

    runner_module.simulate = profiled
    try:
        results = {spec.cell_label(*cell): runner.run(*cell[:2],
                                                      machine=cell[2])
                   for cell in cells}
    finally:
        runner_module.simulate = original

    tottime: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        _cc, ncalls, tt = row[0], row[1], row[2]
        module = module_of(filename)
        tottime[module] += tt
        calls[module] += ncalls
    grand = sum(tottime.values())
    out: Dict[str, float] = {}
    for module in spec.HOST_MODULES:
        out[f"host.{module}.share"] = tottime[module] / grand
        out[f"host.{module}.calls_per_rec"] = calls[module] / done["records"]
    out["host.profile_overhead"] = (
        done["seconds"] / recorder.simulate_seconds(cells, speed) - 1)
    return out, results
