"""Tests for deferred copying analysis/transform (repro.optim.deferred)."""

from repro.common.types import Op
from repro.optim.deferred import (
    analyze_deferred,
    apply_deferred,
    deferred_miss_saving,
)
from repro.sim.config import resolve_config
from repro.sim.system import simulate
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder

SRC = 0x10000
DST = 0x24000


def base_saving(trace):
    """Table 4's saving of *trace* under Base, given its Base metrics."""
    config = resolve_config("Base")
    return deferred_miss_saving(trace, config, simulate(trace, config))


def test_small_copy_fraction():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=4096)          # page-sized
    b.emit_block_copy(0, src=SRC, dst=DST + 0x9000, size=256)  # small
    analysis = analyze_deferred(b.build())
    assert analysis.total_copies == 2
    assert analysis.small_copies == 1
    assert analysis.small_copy_fraction == 0.5


def test_read_only_detection():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    b.emit(0, rec.read(DST + 16))  # read after: still read-only
    analysis = analyze_deferred(b.build())
    assert analysis.read_only_fraction == 1.0


def test_written_destination_not_read_only():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    b.emit(0, rec.write(DST + 16))
    analysis = analyze_deferred(b.build())
    assert analysis.read_only_fraction == 0.0


def test_written_source_not_read_only():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    b.emit(0, rec.write(SRC + 4))
    analysis = analyze_deferred(b.build())
    assert analysis.read_only_fraction == 0.0


def test_write_by_other_cpu_counts():
    b = TraceBuilder(2)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    # CPU 0 keeps working after the copy, so the op ends early in its
    # stream; CPU 1's write near the end of its own stream is "after".
    for _ in range(200):
        b.emit(0, rec.read(0x800))
    for _ in range(10):
        b.emit(1, rec.read(0x900))
    b.emit(1, rec.write(DST + 8))
    analysis = analyze_deferred(b.build())
    assert analysis.read_only_fraction == 0.0


def test_zero_ops_ignored():
    b = TraceBuilder(1)
    b.emit_block_zero(0, dst=DST, size=256)
    analysis = analyze_deferred(b.build())
    assert analysis.total_copies == 0
    assert analysis.small_copy_fraction == 0.0


def test_apply_deferred_removes_copy_records():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    b.emit(0, rec.read(DST + 16))
    trace = b.build()
    analysis = analyze_deferred(trace)
    out = apply_deferred(trace, analysis.read_only_ids)
    assert not any(r.blockop for r in out.records(0))
    assert not any(r.op in (Op.BLOCK_START, Op.BLOCK_END)
                   for r in out.records(0))


def test_apply_deferred_remaps_reads_to_source():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    b.emit(0, rec.read(DST + 16))
    trace = b.build()
    analysis = analyze_deferred(trace)
    out = apply_deferred(trace, analysis.read_only_ids)
    reads = [r for r in out.records(0) if r.op == Op.READ]
    assert reads[-1].addr == SRC + 16


def test_non_deferred_ops_kept():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    b.emit(0, rec.write(DST))
    trace = b.build()
    analysis = analyze_deferred(trace)
    out = apply_deferred(trace, analysis.read_only_ids)
    assert len(out.records(0)) == len(trace.records(0))


def test_saving_positive_when_deferrable():
    b = TraceBuilder(1)
    # A cold small copy whose data is never needed again: deferring it
    # removes its source-read misses entirely.
    b.emit_block_copy(0, src=SRC, dst=DST, size=512)
    for i in range(20):
        b.emit(0, rec.read(0x800 + i * 4))
    saving = base_saving(b.build())
    assert saving > 0


def test_saving_zero_without_candidates():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=4096)  # page-sized: COW
    assert base_saving(b.build()) == 0.0


def test_editing_the_deferred_trace_leaves_the_source():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=SRC, dst=DST, size=256)
    b.emit(0, rec.read(0x800))
    trace = b.build()
    before = trace.records()
    out = apply_deferred(trace, set())
    assert out.records() == before
    out.columns[0].addrs += 4
    assert trace.records() == before


def test_saving_from_the_sweeps_base_cell_matches_its_own_probe():
    """Table 4 passes the sweep's Base cell in; a Base simulation of the
    original trace made for the purpose gives the same saving."""
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(scale=0.02, seed=1996, workers=1)
    trace = runner.trace("Shell")
    config = resolve_config("Base", runner.machine)
    saving = deferred_miss_saving(trace, config,
                                  base=runner.run("Shell", "Base"))
    assert saving > 0
    assert saving == base_saving(trace)
