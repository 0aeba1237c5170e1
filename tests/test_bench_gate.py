"""``tools/bench_gate.py`` on small synthetic ``benchmarks/e2e/run.py
--out`` documents: a run passes unless a workload's median for a
``BENCHMARK.json`` end-to-end metric is worse than the reference median
by more than the metric's bound, a workload or metric is missing, or the
run's checks failed.  The bounds are read from ``BENCHMARK.json``."""

import copy
import json
import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(REPO, "BENCHMARK.json")) as _fp:
    BENCH = json.load(_fp)

MEDIANS = {"setup_s": 0.25, "sweep_rec_per_s": 30000.0, "warm_s": 0.015,
           "peak_rss_mb": 150.0}


def _document():
    def row(value, unit):
        return {"median": value, "q1": value * 0.99, "q3": value * 1.01,
                "n": 3, "samples": [value * 0.99, value, value * 1.01],
                "unit": unit}

    return {"meta": {"seed": 1996, "repeats": 3},
            "workloads": {
                w["name"]: {
                    "e2e": {m["name"]: row(MEDIANS[m["name"]], m["unit"])
                            for m in BENCH["end_to_end"]},
                    "checks": {"attempted": 44, "failed": 0, "problems": [],
                               "correct": True}}
                for w in BENCH["workloads"]}}


def _gate(tmp_path, reference, run, root=REPO):
    paths = []
    for name, doc in (("reference.json", reference), ("run.json", run)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "bench_gate.py"),
         *paths], capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _scaled(workload, metric, factor):
    doc = _document()
    doc["workloads"][workload]["e2e"][metric]["median"] *= factor
    return doc


def test_identical_run_passes(tmp_path):
    code, out = _gate(tmp_path, _document(), _document())
    assert code == 0, out
    assert "bench gate: PASS" in out


def test_paper_grid_throughput_bound(tmp_path):
    code, out = _gate(tmp_path, _document(),
                      _scaled("paper-grid", "sweep_rec_per_s", 0.84))
    assert code == 1
    assert "FAIL paper-grid sweep_rec_per_s" in out
    code, out = _gate(tmp_path, _document(),
                      _scaled("paper-grid", "sweep_rec_per_s", 0.90))
    assert code == 0, out


def test_machine_axis_peak_rss_bound(tmp_path):
    code, out = _gate(tmp_path, _document(),
                      _scaled("machine-axis", "peak_rss_mb", 1.30))
    assert code == 1
    assert "FAIL machine-axis peak_rss_mb" in out


def test_incorrect_run_fails(tmp_path):
    run = _document()
    run["workloads"]["cache-geometry"]["checks"].update(
        failed=1, correct=False)
    code, out = _gate(tmp_path, _document(), run)
    assert code == 1
    assert "FAIL cache-geometry: checks not correct" in out


def test_missing_workload_or_metric_fails(tmp_path):
    run = _document()
    del run["workloads"]["machine-axis"]
    code, out = _gate(tmp_path, _document(), run)
    assert code == 1
    assert "FAIL machine-axis: missing from the run" in out
    run = _document()
    del run["workloads"]["paper-grid"]["e2e"]["warm_s"]
    code, out = _gate(tmp_path, _document(), run)
    assert code == 1
    assert "FAIL paper-grid warm_s: not measured" in out


def test_bounds_come_from_benchmark_json(tmp_path):
    """The same runs flip verdict when BENCHMARK.json's bounds change."""
    root = tmp_path / "repo"
    (root / "tools").mkdir(parents=True)
    shutil.copy(os.path.join(REPO, "tools", "bench_gate.py"),
                root / "tools" / "bench_gate.py")
    bench = copy.deepcopy(BENCH)
    for metric in bench["end_to_end"]:
        metric["bound"] = {"sweep_rec_per_s": 0.05,
                           "peak_rss_mb": 0.5}.get(metric["name"],
                                                   metric["bound"])
    (root / "BENCHMARK.json").write_text(json.dumps(bench))
    slower = _scaled("paper-grid", "sweep_rec_per_s", 0.90)
    assert _gate(tmp_path, _document(), slower)[0] == 0
    code, out = _gate(tmp_path, _document(), slower, root=str(root))
    assert code == 1 and "bound 5%" in out
    larger = _scaled("machine-axis", "peak_rss_mb", 1.30)
    assert _gate(tmp_path, _document(), larger)[0] == 1
    assert _gate(tmp_path, _document(), larger, root=str(root))[0] == 0
