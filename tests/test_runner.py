"""Tests for the experiment runner (repro.experiments.runner)."""

import pytest

from repro.common.params import BASE_MACHINE
from repro.common.types import Op
from repro.common.units import KB
from repro.experiments.runner import ExperimentRunner, NUM_HOTSPOTS


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=0.06, seed=13)


def test_trace_is_cached(runner):
    assert runner.trace("Shell") is runner.trace("Shell")


def test_metrics_are_cached(runner):
    a = runner.run("Shell", "Base")
    b = runner.run("Shell", "Base")
    assert a is b


def test_machine_override_distinct_cache(runner):
    base = runner.run("Shell", "Base")
    small = runner.run("Shell", "Base",
                       machine=BASE_MACHINE.with_l1d(size_bytes=16 * KB))
    assert base is not small
    # A smaller cache can only miss at least as much.
    assert small.os_read_misses() >= base.os_read_misses()


def test_privatized_trace_differs(runner):
    raw = runner.trace("Shell")
    priv = runner.privatized_trace("Shell")
    assert priv is not raw
    assert priv.metadata.get("privatized") == 1


def test_update_selection_in_sync_page(runner):
    from repro.synthetic import layout as lay
    selection = runner.update_selection("TRFD_4")
    assert selection.pages == [lay.SYNC_PAGE]
    assert selection.core_bytes > 0


def test_hotspots_count(runner):
    hot = runner.hotspots("Shell")
    assert len(hot) == NUM_HOTSPOTS
    assert len(set(hot)) == NUM_HOTSPOTS


def test_prefetched_trace_has_prefetch_records(runner):
    trace = runner.prefetched_trace("Shell")
    assert any(r.op == Op.PREFETCH for r in trace.records())
    assert trace.metadata.get("hotspot_prefetch") == 1


def test_run_matrix_covers_pairs(runner):
    # A workload x config matrix of cells: one result per pair.
    results = runner.run_cells([("Shell", "Base", None),
                                ("TRFD_4", "Base", None)])
    assert {(k.workload, k.config) for k in results} == {
        ("Shell", "Base"), ("TRFD_4", "Base")}


def test_bcpref_uses_all_derivations(runner):
    metrics = runner.run("Shell", "BCPref")
    assert metrics.prefetches_issued > 0
    assert metrics.hotspot_pcs


def test_config_progression_reduces_misses(runner):
    base = runner.run("Shell", "Base").os_read_misses()
    full = runner.run("Shell", "BCPref").os_read_misses()
    assert full < base


def test_cold_serial_sweep_converts_each_trace_once(tmp_path, monkeypatch):
    """A cold 1-worker sweep of one workload under every scheme converts
    each of its three traces (raw, privatized, prefetched) to the
    simulator's lists once, and holds no raw trace after the derive
    job: the simulations that follow it never see the raw trace alive."""
    import weakref

    from repro.experiments import runner as runner_module
    from repro.experiments.artifacts import ArtifactCache
    from repro.sim.config import all_configs
    from repro.trace.columns import StreamColumns

    converted = []
    convert = StreamColumns._convert

    def counting_convert(cols):
        converted.append(cols)
        return convert(cols)

    raw = []
    generate = runner_module.generate

    def remembering_generate(*args, **kwargs):
        trace = generate(*args, **kwargs)
        raw.append(weakref.ref(trace))
        return trace

    sims = {}
    simulate = runner_module.simulate

    def noting_simulate(trace, config, **kwargs):
        sims[config.name] = raw[0]() is not None
        return simulate(trace, config, **kwargs)

    monkeypatch.setattr(StreamColumns, "_convert", counting_convert)
    monkeypatch.setattr(runner_module, "generate", remembering_generate)
    monkeypatch.setattr(runner_module, "simulate", noting_simulate)
    sweep = ExperimentRunner(scale=0.05, seed=13,
                             cache=ArtifactCache(str(tmp_path)), workers=1)
    sweep.run_cells([("Shell", c, None) for c in all_configs()])

    num_cpus = sweep.trace("Shell").num_cpus
    assert len(converted) == 3 * num_cpus
    assert len({id(cols) for cols in converted}) == len(converted)
    assert sims == {"Blk_Pref": True, "Blk_Bypass": True,
                    "Blk_ByPref": True, "Blk_Dma": True, "Base": True,
                    "BCoh_RelUp": True, "BCoh_Reloc": False,
                    "Hyb_UpdN": False, "Hyb_Deg": False, "BCPref": False}
