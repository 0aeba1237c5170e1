"""Harness tests for the end-to-end benchmark.

Not part of tier-1; run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They drive the benchmark at a tiny scale on paper-grid, so every check
runs through the same children and checks as a real run in about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import layers
import run
import spec
from repro.obs.export import validate_chrome_trace

WORKLOAD = "paper-grid"
SEED = 3
TINY = 0.02


def run_cli(*args: str, cwd: str = spec.ROOT):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def untraced():
    return run.child("sweep", WORKLOAD, SEED, TINY)


@pytest.fixture(scope="module")
def traced():
    return run.traced_run(WORKLOAD, SEED, TINY)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_benchmark_metric_is_emitted_with_its_unit(trace, section):
    proc = run_cli("--workload", WORKLOAD, "--seed", str(SEED),
                   "--seconds", "0", "--trace", trace, "--scale", str(TINY))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in spec.load_benchmark_json()[section]}
    assert {name: row["unit"] for name, row in result["metrics"].items()} \
        == wanted
    for name, row in result["metrics"].items():
        assert isinstance(row["value"], (int, float)), name


def test_traced_snapshots_are_bit_identical_to_untraced(untraced, traced):
    assert None not in untraced["digests"].values()
    assert traced["digests"] == untraced["digests"]
    assert traced["warm_digests"] == untraced["digests"]
    replayed = traced["untraced_digests"]
    assert replayed
    assert replayed == {k: untraced["digests"][k] for k in replayed}


def test_span_self_times_cover_the_traced_sweep(traced):
    assert traced["min_self_s"] >= -1e-9
    assert 0.9 <= traced["span_coverage"] <= 1.0


def test_coverage_leaves_out_the_root_self_time():
    recorder = layers.SpanRecorder()
    recorder.spans = [["sweep", 0.0, 10.0, -1, {}],
                      ["job.sim", 0.0, 4.0, 0, {}],
                      ["artifacts.load_trace", 1.0, 2.0, 1, {}],
                      ["ledger.record", 6.0, 7.0, 0, {}]]
    assert recorder.coverage("sweep") == pytest.approx(0.5)


def test_sampler_leaves_probe_time_out():
    with hostspeed.Sampler() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 1.0:
            pass
        end = time.perf_counter()
    probes = sum(e - s for s, e, _p in speed.samples
                 if start <= s and e <= end)
    assert len(speed.samples) > 3
    assert speed.busy(start, end) == pytest.approx(end - start - probes,
                                                   abs=1e-6)
    factors = [hostspeed.factor(p) for _s, _e, p in speed.samples]
    assert (min(factors) * speed.busy(start, end)
            <= speed.reference(start, end)
            <= max(factors) * speed.busy(start, end))


def test_warm_pass_runs_no_jobs(untraced, traced):
    assert untraced["warm_jobs"] == 0
    assert traced["warm_jobs"] == 0


def test_span_file_is_a_valid_chrome_trace(traced):
    assert validate_chrome_trace(traced["spans_path"]) == traced["spans"] + 1


def test_tampered_digest_makes_failed_frac_positive(untraced, monkeypatch):
    expected = run.child("expected", WORKLOAD, SEED, TINY)["cells"]
    assert run.count_failed(expected, untraced) == 0
    label = sorted(expected)[0]
    tampered = dict(expected, **{label: "0" * 64})
    monkeypatch.setattr(run, "expected_digests", lambda *a: tampered)
    verdict = run.check(WORKLOAD, SEED, TINY, [untraced])
    assert verdict["failed"] / verdict["attempted"] > 0
    assert not verdict["correct"]


def _crashed_child(mode, *args):
    raise run.ChildError(f"harness {mode} exited 1")


def _failed_sweep(mode, *args):
    if mode == "setup":
        return {"setup_raw_s": 0.2, "probe_s": 0.003}
    return {"cells": 2, "error": "RuntimeError: boom",
            "digests": {"a": None, "b": None}}


@pytest.mark.parametrize("fake,failed", [(_crashed_child, 1),
                                         (_failed_sweep, 2)])
def test_a_failed_sweep_is_reported_not_raised(fake, failed, monkeypatch,
                                               capsys):
    monkeypatch.setattr(run, "child", fake)
    code = run.main(["--workload", WORKLOAD, "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == failed


def test_compare_verdicts():
    a = {"median": 10.0, "q1": 9.9, "q3": 10.1}
    assert run.verdict_of(a, a, 0.1, "lower") == "unchanged"
    assert run.verdict_of(a, {"median": 12.0, "q1": 11.9, "q3": 12.1},
                          0.1, "lower") == "worse"
    assert run.verdict_of(a, {"median": 8.0, "q1": 7.9, "q3": 8.1},
                          0.1, "lower") == "better"
    assert run.verdict_of(a, {"median": 10.0, "q1": 8.0, "q3": 12.0},
                          0.1, "lower") == "unresolved"


def test_fails_without_the_repository_source(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path)
    shutil.copytree(spec.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", WORKLOAD, "--seed", str(SEED),
                   "--seconds", "10", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
