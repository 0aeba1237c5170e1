"""Tests for hot-spot detection and prefetch insertion (repro.optim.hotspots)."""

from repro.common.types import Op
from repro.optim.hotspots import HotspotPrefetcher, find_hotspots
from repro.sim import SystemConfig, simulate
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder

HOT = 0x1100
COLD = 0x2200


def conflict_trace(n=40):
    """A streaming loop whose reads miss at one hot basic block."""
    b = TraceBuilder(1)
    for i in range(n):
        # Stream through new lines: every HOT read is a cold/capacity miss.
        b.emit(0, rec.read(0x10000 + i * 64, pc=HOT, icount=3))
        b.emit(0, rec.read(0x500 + (i % 4) * 4, pc=COLD, icount=3))
    return b.build()


def test_find_hotspots_ranks_by_misses():
    metrics = simulate(conflict_trace(), SystemConfig("t"))
    hot = find_hotspots(metrics, count=1)
    assert hot == [HOT]


def test_hotspot_coverage():
    metrics = simulate(conflict_trace(), SystemConfig("t"), hotspot_pcs=[HOT])
    cov = metrics.os_hotspot_misses / metrics.os_read_misses()
    assert 0.5 < cov <= 1.0
    metrics = simulate(conflict_trace(), SystemConfig("t"), hotspot_pcs=[])
    assert metrics.os_hotspot_misses == 0


def test_insertion_adds_prefetch_records():
    trace = conflict_trace()
    out = HotspotPrefetcher([HOT], lead=8).apply(trace)
    prefetches = [r for r in out.records() if r.op == Op.PREFETCH]
    assert prefetches
    assert all(r.pc == HOT for r in prefetches)


def test_insertion_preserves_original_records():
    trace = conflict_trace()
    out = HotspotPrefetcher([HOT], lead=8).apply(trace)
    original_ops = [r for r in trace.records(0)]
    kept = [r for r in out.records(0) if r.op != Op.PREFETCH]
    assert kept == original_ops


def test_prefetch_leads_are_positive():
    out = HotspotPrefetcher([HOT], lead=12).apply(conflict_trace())
    stream = out.records(0)
    for i, r in enumerate(stream):
        if r.op == Op.PREFETCH:
            # The covered demand read appears later in the stream.
            assert any(s.op == Op.READ and s.addr == r.addr
                       for s in stream[i + 1:])


def test_duplicate_line_prefetches_skipped():
    b = TraceBuilder(1)
    for i in range(20):
        b.emit(0, rec.read(0x4000 + (i % 4) * 4, pc=HOT, icount=2))  # one line
    pref = HotspotPrefetcher([HOT], lead=10)
    out = pref.apply(b.build())
    prefetches = [r for r in out.records(0) if r.op == Op.PREFETCH]
    # Reads of one cache line within the lead window share one prefetch.
    assert len(prefetches) <= 3
    assert pref.skipped_duplicates > 0


def test_block_op_reads_not_prefetched():
    b = TraceBuilder(1)
    b.emit_block_copy(0, src=0x10000, dst=0x20000, size=256, pc=HOT)
    out = HotspotPrefetcher([HOT]).apply(b.build())
    assert not any(r.op == Op.PREFETCH for r in out.records(0))


def test_cold_pcs_untouched():
    out = HotspotPrefetcher([0x9999]).apply(conflict_trace())
    assert not any(r.op == Op.PREFETCH for r in out.records())


def test_prefetching_hides_hotspot_misses():
    base = simulate(conflict_trace(100), SystemConfig("t"))
    prefetched_trace = HotspotPrefetcher([HOT], lead=20).apply(
        conflict_trace(100))
    after = simulate(prefetched_trace, SystemConfig("t"),
                     hotspot_pcs=[HOT])
    assert after.os_miss_pc[HOT] < base.os_miss_pc[HOT]


def test_instruction_overhead_is_small():
    trace = conflict_trace(200)
    pref = HotspotPrefetcher([HOT], lead=16)
    out = pref.apply(trace)
    added = sum(r.icount for r in out.records()
                if r.op == Op.PREFETCH)
    total = sum(r.icount for r in trace.records())
    # Paper: prefetches add ~3.2% dynamic instructions in the hot spots.
    assert added / total < 0.25


def test_editing_the_prefetched_trace_leaves_the_source():
    trace = conflict_trace()
    before = trace.records()
    out = HotspotPrefetcher([HOT], lead=8, min_lead=2).apply(trace)
    assert len(out) > len(trace)
    for cols in out.columns:
        cols.addrs += 4
        cols.pcs[:] = 0
    assert trace.records() == before
