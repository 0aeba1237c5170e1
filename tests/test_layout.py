"""Unit tests for the synthetic kernel layout (repro.synthetic.layout)."""

import pytest

from repro.common.types import DataClass
from repro.synthetic import layout as lay
from repro.synthetic.layout import KERNEL_PC, HOTSPOT_BLOCKS, KernelLayout


@pytest.fixture(scope="module")
def layout():
    return KernelLayout()


def test_twelve_hotspot_blocks():
    # Section 6: five loops and seven sequences.
    assert len(HOTSPOT_BLOCKS) == 12
    loops = [b for b in HOTSPOT_BLOCKS if b.endswith("loop") or b.endswith("walk")]
    seqs = [b for b in HOTSPOT_BLOCKS if b.endswith("seq")]
    assert len(loops) == 5
    assert len(seqs) == 7


def test_kernel_pcs_distinct_lines():
    pcs = list(KERNEL_PC.values())
    assert len(set(pcs)) == len(pcs)
    # Each block sits on its own I-cache line (16-byte granularity).
    assert len({pc // 16 for pc in pcs}) == len(pcs)


def test_sync_page_holds_barriers_locks_shared(layout):
    page = lay.SYNC_PAGE
    for addr in layout.barrier_addrs:
        assert page <= addr < page + lay.PAGE
    for addr in layout.lock_addr.values():
        assert page <= addr < page + lay.PAGE
    for addr in layout.freq_shared_addr.values():
        assert page <= addr < page + lay.PAGE


def test_update_core_is_one_page(layout):
    # Section 5.2: every variable the update selection may choose lies
    # in one page.
    core = (DataClass.BARRIER_VAR, DataClass.LOCK_VAR, DataClass.FREQ_SHARED)
    pages = {s.base - s.base % lay.PAGE for s in layout.symbols
             if s.dclass in core}
    assert pages == {lay.SYNC_PAGE}


def test_freq_shared_core_is_176_bytes(layout):
    # Section 5.2: the producer-consumer core amounts to 176 bytes.
    total = sum(size for _name, size in lay.FREQ_SHARED_VARS)
    assert total == 176


def test_counters_pack_four_per_line(layout):
    # The false sharing section 5.1 removes: 4-byte counters, 16-byte lines.
    a = layout.counter("v_intr")
    b = layout.counter("v_xcall")
    assert b - a == 4
    assert a // 16 == b // 16


def test_locks_on_distinct_lines(layout):
    lines = {addr // 16 for addr in layout.lock_addr.values()}
    assert len(lines) == len(layout.lock_addr)


def test_symbol_map_classifies_structures(layout):
    def dclass(addr):
        return layout.symbols.lookup(addr).dclass

    assert dclass(layout.counter("v_pgfault")) == DataClass.INFREQ_COMM
    assert dclass(layout.proc_entry(5)) == DataClass.PROC_TABLE
    assert dclass(layout.pte(3, 10)) == DataClass.PAGE_TABLE
    assert dclass(layout.buffer(2)) == DataClass.BUFFER
    assert dclass(layout.frame(7)) == DataClass.PAGE_FRAME
    assert dclass(lay.KMEM_BASE + 100) == DataClass.OTHER_KERNEL


def test_accessors_wrap(layout):
    assert layout.proc_entry(0) == layout.proc_entry(lay.NUM_PROCS)
    assert layout.frame(0) == layout.frame(lay.NUM_FRAMES)
    assert layout.buffer(1) == layout.buffer(lay.NUM_BUFFERS + 1)


def test_user_segments_staggered():
    layout = KernelLayout()
    # Different pids' segments must not all map to the same L1 sets.
    sets = {layout.user_segment(pid) % 32768 for pid in range(8)}
    assert len(sets) > 1


def test_barrier_partition(layout):
    # Full-gang and partial-gang barrier words never overlap.
    assert len(layout.barrier_addrs) == lay.NUM_BARRIERS
    assert len(set(layout.barrier_addrs)) == lay.NUM_BARRIERS
