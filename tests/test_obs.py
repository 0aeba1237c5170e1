"""Tests for the observability subsystem (repro.obs).

The load-bearing guarantee: attaching a tracer never changes the
simulation.  ``test_tracer_metrics_bit_identical_all_schemes`` proves the
metrics snapshot stays bit-identical under every standard configuration;
the rest covers the event model, the Chrome-trace exporter and its
validator, the miss profile, and the ASCII miss timeline.
"""

import json
from collections import Counter

import pytest

from repro.common.errors import SimulationError
from repro.experiments.runner import ExperimentRunner
from repro.obs import (CATEGORIES, MissProfile, Tracer, attach_tracer,
                       chrome_trace, classify_miss, save_chrome_trace,
                       validate_chrome_trace)
from repro.obs.events import (CAT_BLOCKOP, CAT_BUS, CAT_COH, CAT_MISS,
                              KIND_BLOCK_OP, KIND_COHERENCE, KIND_CONFLICT,
                              KIND_DISPLACEMENT, KIND_REUSE, LANE_BUS,
                              MISS_KINDS, PH_BEGIN, PH_END)
from repro.memsys.sink import MissFlags
from repro.sim.config import SystemConfig, all_configs, standard_configs
from repro.sim.system import MultiprocessorSystem, simulate
from repro.synthetic.workloads import generate
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder


def small_trace():
    b = TraceBuilder(2)
    for cpu in range(2):
        for i in range(20):
            b.emit(cpu, rec.read(0x10000 * (cpu + 1) + i * 16, icount=2))
        b.emit(cpu, rec.lock_acquire(0x100))
        b.emit(cpu, rec.write(0x200, icount=2))
        b.emit(cpu, rec.lock_release(0x100))
        b.emit(cpu, rec.barrier(0x300, 2))
    b.emit_block_copy(0, src=0x40000, dst=0x51000, size=128)
    return b.build()


def traced_run(config=None, trace=None, **tracer_kw):
    trace = trace if trace is not None else small_trace()
    config = config if config is not None else SystemConfig("t")
    tracer = Tracer(**tracer_kw)
    metrics = simulate(trace, config, tracer=tracer)
    return tracer, metrics


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def test_classify_precedence():
    assert classify_miss(True, None) == KIND_BLOCK_OP
    assert classify_miss(True, MissFlags(True, True, True)) == KIND_BLOCK_OP
    assert classify_miss(False, MissFlags(True, True, True)) == KIND_COHERENCE
    assert (classify_miss(False, MissFlags(False, True, True))
            == KIND_DISPLACEMENT)
    assert classify_miss(False, MissFlags(False, False, True)) == KIND_REUSE
    assert classify_miss(False, MissFlags(False, False, False)) == KIND_CONFLICT
    assert classify_miss(False, None) == KIND_CONFLICT


# ----------------------------------------------------------------------
# The zero-perturbation guarantee
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(standard_configs()))
def test_tracer_metrics_bit_identical_all_schemes(name):
    trace = generate("Shell", seed=9, scale=0.02)
    config = standard_configs()[name]
    pages = ([0x100000, 0x201000]
             if (config.selective_update or config.pure_update) else None)
    plain = simulate(trace, config, update_pages=pages)
    tracer = Tracer()
    traced = simulate(trace, config, update_pages=pages, tracer=tracer)
    assert traced.snapshot() == plain.snapshot()
    assert tracer.events
    assert tracer.read_misses > 0


def test_tracer_composes_with_checker():
    trace = small_trace()
    plain = simulate(trace, SystemConfig("t"))
    tracer = Tracer()
    checked = simulate(trace, SystemConfig("t"), check=True, tracer=tracer)
    assert checked.snapshot() == plain.snapshot()
    assert tracer.events


@pytest.fixture(scope="module")
def shell_update_runs():
    """Shell at scale 0.1 with its derived update pages, traced under
    the Firefly page-set scheme and the three adaptive hybrids."""
    runner = ExperimentRunner(scale=0.1, seed=1996)
    trace = runner.privatized_trace("Shell")
    pages = runner.update_selection("Shell").pages
    runs = {}
    for name in ("BCoh_RelUp", "Hyb_Static", "Hyb_UpdN", "Hyb_Deg"):
        # Hyb_UpdN and Hyb_Deg are page-agnostic and ignore the pages.
        system = MultiprocessorSystem(trace, all_configs()[name],
                                      update_pages=pages)
        tracer = attach_tracer(system)
        system.run()
        runs[name] = (system, Counter(e.name for e in tracer.events),
                      tracer.events)
    return runs


@pytest.mark.parametrize("name", ["BCoh_RelUp", "Hyb_Static", "Hyb_UpdN",
                                  "Hyb_Deg"])
def test_update_route_events_match_controller(shell_update_runs, name):
    # Every update-route write is one firefly.update event, and every L2
    # fill is one fill.* event, whichever layer chose the route.
    system, names, events = shell_update_runs[name]
    controller = system.controller
    assert controller.updates_sent > 0
    assert names["firefly.update"] == controller.updates_sent
    fills = names["fill.shared"] + names["fill.owned"]
    assert fills == sum(mem.l2.fills for mem in system.memories)
    copies = sum(e.args["copies"] for e in events if e.name == "invalidate")
    assert copies == controller.invalidations_sent


def test_static_hybrid_traces_like_bcoh_relup(shell_update_runs):
    # Hyb_Static is metric-identical to BCoh_RelUp; so are its event counts.
    assert (shell_update_runs["Hyb_Static"][1]
            == shell_update_runs["BCoh_RelUp"][1])


def test_bypass_read_falling_back_to_cached_path_counts_once():
    """A Blk_Bypass source read whose line an earlier prefetch put in the
    L1D takes the cached path; its in-flight fill is one miss, reported
    once (not as both a read and a bypass read)."""
    b = TraceBuilder(1)
    b.emit(0, rec.prefetch(0x100100, pc=0x7000))
    b.emit_block_copy(0, 0x100100, 0x202000, 64, pc=0x7000)
    tracer = Tracer()
    metrics = simulate(b.build(), standard_configs()["Blk_Bypass"],
                       tracer=tracer)
    assert tracer.read_misses == sum(metrics.read_misses.values())
    misses = [e for e in tracer.events
              if e.cat == CAT_MISS and e.args.get("addr") == 0x100100]
    assert len(misses) == 1, [e.name for e in misses]


@pytest.mark.parametrize("name", list(all_configs()))
def test_tracer_miss_count_matches_metrics(name):
    trace = generate("Shell", seed=1996, scale=0.05)
    tracer = Tracer(max_events=0)
    metrics = simulate(trace, all_configs()[name], tracer=tracer)
    assert tracer.read_misses == sum(metrics.read_misses.values())


def test_double_attach_raises():
    system = MultiprocessorSystem(small_trace(), SystemConfig("t"))
    attach_tracer(system)
    with pytest.raises(SimulationError):
        attach_tracer(system)


# ----------------------------------------------------------------------
# Event content
# ----------------------------------------------------------------------
def test_event_categories_present():
    tracer, _ = traced_run()
    cats = {e.cat for e in tracer.events}
    assert CAT_MISS in cats
    assert CAT_BUS in cats
    assert CAT_COH in cats
    assert CAT_BLOCKOP in cats


def test_miss_events_carry_classification():
    tracer, metrics = traced_run()
    misses = [e for e in tracer.events
              if e.cat == CAT_MISS and e.name.startswith("read")]
    assert misses
    for ev in misses:
        assert ev.args["kind"] in MISS_KINDS
        assert ev.args["mode"] in ("USER", "OS", "IDLE")
        assert ev.dur >= 0
        assert 0 <= ev.lane < 2
    # Every demand read miss the metrics counted was traced, and the
    # per-site OS attribution agrees with the metrics layer exactly.
    assert tracer.read_misses == sum(metrics.read_misses.values())
    assert tracer.site_os == metrics.os_miss_pc


def test_blockop_brackets_balance():
    tracer, _ = traced_run()
    begins = [e for e in tracer.events if e.ph == PH_BEGIN]
    ends = [e for e in tracer.events if e.ph == PH_END]
    assert len(begins) == len(ends) == 1
    assert begins[0].args["kind"] == "copy"
    assert begins[0].args["size"] == 128


def test_blockop_brackets_balance_under_dma():
    # Blk_Dma swallows the word records; the end bracket must still close.
    trace = generate("Shell", seed=9, scale=0.02)
    tracer = Tracer()
    simulate(trace, standard_configs()["Blk_Dma"], tracer=tracer)
    begins = sum(1 for e in tracer.events if e.ph == PH_BEGIN)
    ends = sum(1 for e in tracer.events if e.ph == PH_END)
    assert begins == ends > 0
    assert any(e.cat == "dma" and e.lane == LANE_BUS for e in tracer.events)


def test_bus_events_on_bus_lane():
    tracer, _ = traced_run()
    bus = [e for e in tracer.events if e.cat == CAT_BUS]
    assert bus
    assert all(e.lane == LANE_BUS for e in bus)
    assert all(e.args["wait"] >= 0 and e.dur > 0 for e in bus)


def test_event_cap_drops_but_profile_stays_exact():
    full, _ = traced_run()
    capped, _ = traced_run(max_events=10)
    assert len(capped.events) == 10
    assert capped.dropped == len(full.events) - 10
    assert capped.read_misses == full.read_misses
    assert capped.site_os == full.site_os
    assert capped.line_misses == full.line_misses


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
def test_chrome_trace_roundtrip(tmp_path):
    tracer, _ = traced_run()
    path = str(tmp_path / "t.json")
    count = save_chrome_trace(tracer, path)
    with open(path) as fp:
        doc = json.load(fp)
    assert len(doc["traceEvents"]) == count
    assert validate_chrome_trace(path) == count
    # Metadata names both processes and every cpu lane.
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert {"cpus", "bus", "cpu0", "cpu1"} <= names
    # displayTimeUnit must be a value Chrome accepts.
    assert doc["displayTimeUnit"] in ("ms", "ns")
    for ev in doc["traceEvents"]:
        if ev["ph"] != "M":
            assert ev["cat"] in CATEGORIES


def test_validator_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"noTraceEvents": []})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "Z", "ts": 0,
                                                "name": "x"}]})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [
            {"ph": "X", "ts": -5, "name": "x", "cat": "miss", "dur": 1}]})
    with pytest.raises(ValueError):  # unbalanced B without E
        validate_chrome_trace({"traceEvents": [
            {"ph": "B", "ts": 0, "name": "x", "cat": "blockop",
             "pid": 0, "tid": 0}]})


def test_validator_tolerates_truncated_pairs_when_capped():
    doc = {"traceEvents": [{"ph": "B", "ts": 0, "name": "x",
                            "cat": "blockop", "pid": 0, "tid": 0}],
           "otherData": {"dropped_events": 3}}
    assert validate_chrome_trace(doc) == 1


# ----------------------------------------------------------------------
# Miss profile
# ----------------------------------------------------------------------
def test_profile_reproduces_hotspot_shape():
    from repro.synthetic.layout import HOTSPOT_BLOCKS
    trace = generate("Shell", seed=9, scale=0.05)
    tracer = Tracer()
    simulate(trace, standard_configs()["Base"], tracer=tracer)
    profile = MissProfile(tracer)
    rows = profile.top_sites(15)
    assert rows
    assert rows[0].os_misses >= rows[-1].os_misses  # ranked
    named = {row.name for row in rows}
    # The paper's hot spots (Table 6) show up prominently in the top of
    # the ranking, and nearly the whole set misses somewhere in the run.
    assert len(named & set(HOTSPOT_BLOCKS)) >= 3
    from repro.obs.profile import _block_name
    everywhere = {_block_name(pc) for pc in tracer.site_os}
    assert len(everywhere & set(HOTSPOT_BLOCKS)) >= 8
    for row in rows:
        assert row.total_misses >= row.os_misses
        assert set(row.kinds) <= set(MISS_KINDS)


def test_profile_service_attribution():
    trace = generate("Shell", seed=9, scale=0.05)
    tracer = Tracer()
    simulate(trace, standard_configs()["Base"], tracer=tracer)
    services = dict(MissProfile(tracer).services())
    assert sum(services.values()) == sum(tracer.site_os.values())
    # The synthetic Shell exercises block ops, file I/O and scheduling.
    assert services.get("block_ops", 0) > 0
    assert services.get("file_io", 0) > 0


def test_profile_render_smoke():
    tracer, _ = traced_run()
    out = MissProfile(tracer).render()
    assert "hot miss sites" in out
    assert "kernel service" in out
    assert "hot lines" in out


# ----------------------------------------------------------------------
# ASCII miss timeline
# ----------------------------------------------------------------------
def test_miss_timeline_render():
    from repro.analysis.timeline_view import render_miss_timeline
    tracer, _ = traced_run()
    out = render_miss_timeline(tracer, width=60)
    assert "miss timeline" in out
    lanes = [l for l in out.splitlines() if l.startswith(("cpu", "bus"))]
    assert len(lanes) == 3  # cpu0, cpu1, bus
    for lane in lanes:
        assert len(lane.split("|")[1]) == 60


def test_miss_timeline_empty():
    from repro.analysis.timeline_view import render_miss_timeline
    assert "no miss events" in render_miss_timeline(Tracer())


def test_bucket_span_matches_legacy_math():
    from repro.analysis.timeline_view import bucket_span
    # Zero-length events still occupy one column; spans clamp to width.
    assert bucket_span(0, 0, 0, 100, 10) == (0, 1)
    assert bucket_span(50, 50, 0, 100, 10) == (5, 6)
    assert bucket_span(0, 100, 0, 100, 10) == (0, 10)
    assert bucket_span(90, 400, 0, 100, 10) == (9, 10)


# ----------------------------------------------------------------------
# CLI validator entry point
# ----------------------------------------------------------------------
def test_obs_main_validate(tmp_path, capsys):
    from repro.obs.__main__ import main
    tracer, _ = traced_run()
    path = str(tmp_path / "t.json")
    save_chrome_trace(tracer, path)
    assert main(["--validate", path]) == 0
    assert "valid chrome trace" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [42]}')
    assert main(["--validate", str(bad)]) == 1
    assert main(["--validate", str(tmp_path / "missing.json")]) == 2
