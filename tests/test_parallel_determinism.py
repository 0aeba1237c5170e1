"""Serial/parallel equivalence of the experiment engine.

The contract of :mod:`repro.experiments.parallel`: a sweep's metrics are
a pure function of (scale, seed, workload, config, machine) — worker
count, job completion order, and artifact-cache temperature must not
change a single counter.  These tests run the same matrix serially and
through the engine with 1, 2, and 4 workers, cold- and warm-cache, and
compare full :meth:`SystemMetrics.snapshot` dumps cell by cell.  The
serial reference is a plain :meth:`ExperimentRunner.run` loop, which
never touches the engine.
"""

import os
import shutil

import pytest

from repro.common.params import BASE_MACHINE
from repro.common.units import KB
from repro.experiments.artifacts import (ArtifactCache, SimKey,
                                         machine_fingerprint, metrics_key)
from repro.experiments.ledger import read_events
from repro.experiments.parallel import ParallelEngine, plan_jobs
from repro.experiments.runner import ExperimentRunner
from repro.synthetic.workloads import WORKLOAD_ORDER

SCALE = 0.04
SEED = 5

#: Every workload crossed with a raw-trace config, the DMA scheme, a
#: derive-covered profile, and the full optimization stack.
CONFIGS = ["Base", "Blk_Dma", "BCoh_RelUp", "BCPref"]
CELLS = [(w, c, None) for w in WORKLOAD_ORDER for c in CONFIGS]


def _snapshots(results):
    return {key: metrics.snapshot() for key, metrics in results.items()}


def _assert_identical(expected, actual, label):
    assert set(expected) == set(actual), label
    for key in expected:
        assert expected[key] == actual[key], (
            f"{label}: metrics diverged for {key}")


def _run_serially(cells):
    """Every cell through ExperimentRunner.run, in process, no engine."""
    runner = ExperimentRunner(scale=SCALE, seed=SEED)
    results = {}
    for workload, config, machine in cells:
        machine = machine if machine is not None else runner.machine
        results[SimKey.of(workload, config, machine)] = runner.run(
            workload, config, machine=machine)
    return _snapshots(results)


@pytest.fixture(scope="module")
def serial():
    return _run_serially(CELLS)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """An artifact cache warmed by one cold parallel sweep."""
    root = tmp_path_factory.mktemp("sweep-cache")
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(root), workers=2)
    runner.run_cells(CELLS)
    return root


def test_serial_covers_matrix(serial):
    assert len(serial) == len(WORKLOAD_ORDER) * len(CONFIGS)


def test_parallel_cold_cache_matches_serial(serial, tmp_path):
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(tmp_path), workers=2)
    parallel = _snapshots(runner.run_cells(CELLS))
    _assert_identical(serial, parallel, "2 workers, cold cache")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_warm_cache_matches_serial(serial, cache_dir, workers):
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(cache_dir),
                              workers=workers)
    warm = _snapshots(runner.run_cells(CELLS))
    _assert_identical(serial, warm, f"{workers} workers, warm cache")


def test_warm_cache_skips_generation_and_derivation(serial, cache_dir,
                                                   drop_stored_metrics,
                                                   tmp_path):
    # Warm: every cell is served from its stored result; no job runs.
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(cache_dir), workers=2)
    results = engine.execute(CELLS)
    _assert_identical(serial, _snapshots(results), "engine warm cache")
    assert engine.last_job_kinds == {}
    assert engine.last_cached == len(CELLS)
    assert engine.last_stats == {"metrics.hit": len(CELLS)}

    # Partly warm: without the stored results only simulations run;
    # no stage is recomputed (all loads, no stores) across every worker.
    partly = tmp_path / "partly-warm"
    shutil.copytree(cache_dir, partly)
    assert drop_stored_metrics(partly) > 0
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(partly), workers=2)
    results = engine.execute(CELLS)
    _assert_identical(serial, _snapshots(
        {k: v for k, v in results.items()
         if k in serial}), "engine partly warm cache")
    assert engine.last_cached == 0 and engine.last_job_kinds["sim"]
    stages = {event: count for event, count in engine.last_stats.items()
              if not event.startswith("metrics.")}
    assert stages and all(
        not event.endswith((".miss", ".store", ".corrupt")) or count == 0
        for event, count in stages.items()), dict(engine.last_stats)


def test_warm_report_runs_no_job(tmp_path):
    """A second runner on a warm cache builds the report without a
    trace, derive or sim job: the run ledger serves every cell, and the
    text is byte-identical to the cold build."""
    from repro.experiments.all import artifact_cells, build_report

    only = ["table2", "table4", "figure3"]
    cells = {SimKey.of(w, c, m if m is not None else BASE_MACHINE)
             for name in only for (w, c, m) in artifact_cells(name)}
    reports = []
    for name in ("cold", "warm"):
        runner = ExperimentRunner(scale=SCALE, seed=SEED,
                                  cache=ArtifactCache(tmp_path / "cache"),
                                  workers=1,
                                  ledger_path=str(tmp_path / f"{name}.jsonl"))
        reports.append(build_report(runner, only=only, verbose=False))
    assert reports[1] == reports[0]
    events = read_events(str(tmp_path / "warm.jsonl"))
    assert not [ev for ev in events if ev["event"] == "scheduled"]
    (served,) = [ev for ev in events if ev["event"] == "served_cached"]
    assert served["cells"] == len(cells)
    assert {SimKey(**key) for key in served["sim_keys"]} == cells


def test_machine_variant_cells(serial, cache_dir):
    """Figure 6/7-style cells (machine overrides) stay deterministic."""
    small = BASE_MACHINE.with_l1d(size_bytes=16 * KB)
    cells = [("Shell", "Base", small), ("Shell", "BCPref", small)]
    expected = _run_serially(cells)
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(cache_dir), workers=2)
    actual = _snapshots(runner.run_cells(cells))
    _assert_identical(expected, actual, "machine-variant cells")
    # The variant cells are distinct keys from the Base-machine ones.
    assert set(expected).isdisjoint(serial)


def test_plan_shares_stages_across_cells():
    """One trace + one derive job per workload, however many sim cells."""
    cells = [("Shell", c, BASE_MACHINE) for c in CONFIGS]
    jobs = plan_jobs(cells, BASE_MACHINE)
    kinds = [job.kind for job in jobs]
    assert kinds.count("trace") == 1
    assert kinds.count("derive") == 1
    # Base and BCoh_RelUp fall out of the derive job's profiling runs.
    derive = next(job for job in jobs if job.kind == "derive")
    assert set(derive.configs) == {"Base", "BCoh_RelUp"}
    sims = [job.config for job in jobs if job.kind == "sim"]
    assert sorted(sims) == ["BCPref", "Blk_Dma"]


def test_plan_folds_hyb_static_into_bcoh_relup_producer():
    """Hyb_Static has BCoh_RelUp's behaviour: the derive job that
    profiles BCoh_RelUp returns it, and on another machine one sim job
    returns both names."""
    cells = [("Shell", c, BASE_MACHINE)
             for c in ("Base", "BCoh_RelUp", "Hyb_Static", "Hyb_UpdN")]
    jobs = plan_jobs(cells, BASE_MACHINE)
    derive = next(job for job in jobs if job.kind == "derive")
    assert derive.configs == ("Base", "BCoh_RelUp", "Hyb_Static")
    assert [job.configs for job in jobs if job.kind == "sim"] == [
        ("Hyb_UpdN",)]

    small = BASE_MACHINE.with_l1d(size_bytes=16 * KB)
    jobs = plan_jobs([("Shell", "Hyb_Static", small),
                      ("Shell", "BCoh_RelUp", small)], BASE_MACHINE)
    sims = [job for job in jobs if job.kind == "sim"]
    assert len(sims) == 1
    assert sims[0].configs == ("Hyb_Static", "BCoh_RelUp")
    assert sims[0].config == "Hyb_Static"
    assert sims[0].machine == small


def test_result_independent_of_cell_order(cache_dir):
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(cache_dir), workers=2)
    forward = _snapshots(runner.run_cells(CELLS))
    shuffled = ExperimentRunner(scale=SCALE, seed=SEED,
                                cache=ArtifactCache(cache_dir), workers=2)
    backward = _snapshots(shuffled.run_cells(list(reversed(CELLS))))
    _assert_identical(forward, backward, "reversed cell order")


# ----------------------------------------------------------------------
# A warm engine serves stored simulation results
# ----------------------------------------------------------------------
#: One workload, every config kind: raw trace, DMA, derive-covered
#: profile and the full optimization stack.
REUSE_CELLS = [("Shell", c, BASE_MACHINE) for c in CONFIGS]


@pytest.fixture(scope="module")
def cold_store(tmp_path_factory):
    """A cache filled by one cold execute, and that run's snapshots."""
    root = tmp_path_factory.mktemp("reuse-cache")
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(root), workers=1)
    results = engine.execute(REUSE_CELLS)
    return root, _snapshots(results)


def _reuse_engine(root, ledger):
    return ParallelEngine(scale=SCALE, seed=SEED, cache=ArtifactCache(root),
                          workers=1, ledger_path=str(ledger))


def test_reuse_sims_serves_every_cell_from_store(cold_store, tmp_path):
    root, cold = cold_store
    engine = _reuse_engine(root, tmp_path / "warm.jsonl")
    warm = _snapshots(engine.execute(REUSE_CELLS))
    assert engine.last_job_kinds == {}
    assert engine.last_cached == len(REUSE_CELLS)
    assert set(warm) == {SimKey.of(*cell) for cell in REUSE_CELLS}
    _assert_identical({k: cold[k] for k in warm}, warm, "reuse_sims")
    events = [ev["event"] for ev in read_events(engine.ledger_path)]
    assert "served_cached" in events and "scheduled" not in events


def test_reuse_sims_resimulates_only_a_corrupt_entry(cold_store, tmp_path):
    root, cold = cold_store
    copy = tmp_path / "cache"
    shutil.copytree(root, copy)
    victim = SimKey.of("Shell", "Blk_Dma", BASE_MACHINE)
    key = metrics_key(SCALE, SEED, victim, machine_fingerprint(BASE_MACHINE))
    path = ArtifactCache(copy)._path(key, "json")
    with open(path, "r+b") as fp:  # flip one byte: the hash check fails
        first = fp.read(1)
        fp.seek(0)
        fp.write(bytes([first[0] ^ 0xFF]))
    engine = _reuse_engine(copy, tmp_path / "warm.jsonl")
    warm = _snapshots(engine.execute(REUSE_CELLS))
    assert os.path.exists(path + ".quarantined")
    assert engine.last_stats["metrics.quarantine"] == 1
    assert engine.last_cached == len(REUSE_CELLS) - 1
    assert engine.last_job_kinds["sim"] == 1
    assert "derive" not in engine.last_job_kinds
    events = read_events(engine.ledger_path)
    assert [ev["job"] for ev in events if ev["event"] == "finished"
            and ev["kind"] == "sim"] == [
        f"sim:Shell:Blk_Dma:{victim.machine}"]
    _assert_identical({k: cold[k] for k in warm}, warm, "after quarantine")
    # The re-simulated result was stored again: the next engine serves
    # every cell.
    again = _reuse_engine(copy, tmp_path / "again.jsonl")
    again.execute(REUSE_CELLS)
    assert again.last_cached == len(REUSE_CELLS)


# ----------------------------------------------------------------------
# One piece of work once: in-memory traces, one simulation per behaviour
# ----------------------------------------------------------------------
def test_cold_serial_sweep_loads_no_npz_and_simulates_each_behaviour_once(
        monkeypatch, tmp_path):
    """A cold 1-worker sweep of one workload x every scheme reads no
    trace back from disk, simulates each distinct behaviour once
    (Hyb_Static is BCoh_RelUp), and matches per-cell runner.run."""
    from repro.experiments import runner as runner_module
    from repro.sim.config import all_configs, resolve_config
    from repro.trace import npzio

    schemes = list(all_configs())
    cells = [("Shell", c, BASE_MACHINE) for c in schemes]
    reference = ExperimentRunner(scale=SCALE, seed=SEED)
    expected = {SimKey.of(*cell): reference.run("Shell", cell[1]).snapshot()
                for cell in cells}

    loads, sims = [], []
    load, simulate = npzio.load, runner_module.simulate
    monkeypatch.setattr(npzio, "load",
                        lambda *a, **k: loads.append(a) or load(*a, **k))
    monkeypatch.setattr(runner_module, "simulate",
                        lambda trace, config, **k: sims.append(config.name)
                        or simulate(trace, config, **k))
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(tmp_path), workers=1,
                            ledger_path=str(tmp_path / "sweep.jsonl"))
    results = engine.execute(cells)

    assert loads == []
    behaviours = {resolve_config(c).behaviour for c in schemes}
    assert len(behaviours) == len(schemes) - 1
    assert len(sims) == len(set(sims)) == len(behaviours)
    assert "Hyb_Static" not in sims
    _assert_identical(expected, _snapshots(
        {key: results[key] for key in expected}), "cold serial sweep")
    # Only the raw trace went to disk; the derived traces never do.
    assert engine.last_stats["trace.store"] == 1
    assert not any(event.startswith(("privatized", "prefetched"))
                   for event in engine.last_stats)
