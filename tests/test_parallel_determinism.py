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

import pytest

from repro.common.params import BASE_MACHINE
from repro.common.units import KB
from repro.experiments.artifacts import ArtifactCache, SimKey
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


def test_warm_cache_skips_generation_and_derivation(serial, cache_dir):
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(cache_dir), workers=2)
    results = engine.execute(CELLS)
    _assert_identical(serial, _snapshots(
        {k: v for k, v in results.items()
         if k in serial}), "engine warm cache")
    # No stage recomputed: all loads, no stores, across every worker.
    assert engine.last_stats and all(
        not event.endswith((".miss", ".store", ".corrupt")) or count == 0
        for event, count in engine.last_stats.items()), (
        dict(engine.last_stats))


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
    assert set(derive.profiles) == {"Base", "BCoh_RelUp"}
    sims = [job.config for job in jobs if job.kind == "sim"]
    assert sorted(sims) == ["BCPref", "Blk_Dma"]


def test_result_independent_of_cell_order(cache_dir):
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(cache_dir), workers=2)
    forward = _snapshots(runner.run_cells(CELLS))
    shuffled = ExperimentRunner(scale=SCALE, seed=SEED,
                                cache=ArtifactCache(cache_dir), workers=2)
    backward = _snapshots(shuffled.run_cells(list(reversed(CELLS))))
    _assert_identical(forward, backward, "reversed cell order")
