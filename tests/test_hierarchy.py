"""Unit tests for the per-CPU memory hierarchy access paths."""

import pytest

from repro.memsys.hierarchy import (
    LEVEL_BUFFER,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_MEM,
    LEVEL_PREF,
    LEVEL_REGISTER,
)
from repro.memsys.states import LineState

ADDR = 0x40000


class TestRead:
    def test_cold_read_misses_to_memory(self, rig):
        res = rig.read(0, ADDR, 0)
        assert res.miss and res.level == LEVEL_MEM
        assert res.done == 51
        assert res.stall == 50

    def test_second_read_hits_l1(self, rig):
        rig.read(0, ADDR, 0)
        res = rig.read(0, ADDR + 4, 100)
        assert not res.miss and res.level == LEVEL_L1
        assert res.done == 101

    def test_l2_hit_after_l1_conflict(self, rig):
        rig.read(0, ADDR, 0)
        # Evict from L1 (same L1 set, different line) but stay in L2.
        rig.read(0, ADDR + rig.machine.l1d.size_bytes, 100)
        res = rig.read(0, ADDR, 200)
        assert res.miss and res.level == LEVEL_L2
        assert res.done == 212

    def test_read_of_remote_dirty_line(self, rig):
        rig[1].write(ADDR, 0)
        assert rig[1].l2.state_of(ADDR) == LineState.MODIFIED
        res = rig.read(0, ADDR, 1000)
        assert res.miss
        assert res.done - 1000 == 35  # cache-to-cache supply

    def test_coherence_miss_flag_set(self, rig):
        rig.read(0, ADDR, 0)
        rig[1].write(ADDR, 100)  # invalidates cpu0's copy
        res = rig.read(0, ADDR, 1000)
        assert res.miss and res.flags.coherence


class TestWrite:
    def test_write_allocates_l1(self, rig):
        rig[0].write(ADDR, 0)
        assert rig[0].l1d.present(ADDR)

    def test_write_makes_line_modified(self, rig):
        rig[0].write(ADDR, 0)
        assert rig[0].l2.state_of(ADDR) == LineState.MODIFIED

    def test_write_to_owned_line_is_fast(self, rig):
        rig[0].write(ADDR, 0)
        assert rig[0].write(ADDR + 4, 1000) == (1001, 0)

    def test_write_to_shared_line_invalidates(self, rig):
        rig.read(0, ADDR, 0)
        rig.read(1, ADDR, 100)
        rig[0].write(ADDR, 1000)
        assert rig[1].l2.state_of(ADDR) == LineState.INVALID

    def test_write_buffer_overflow_stalls(self, rig):
        # A burst of bus-bound writes to distinct cold lines backs up
        # through WB2 (8 deep) into WB1 (4 deep) and stalls the processor.
        stalls = 0
        t = 0
        for i in range(30):
            t, stall = rig[0].write(ADDR + i * 0x1000, t)
            stalls += stall
        assert stalls > 0

    def test_release_drain_waits_for_writes(self, rig):
        rig[0].write(ADDR, 0)
        assert rig[0].drain_writes(0) > 0


class TestIfetch:
    def test_cold_ifetch_stalls(self, rig):
        stall = rig[0].ifetch(0x1000, 4, 0)
        assert stall > 0
        assert rig[0].l1i.present(0x1000)

    def test_warm_ifetch_free(self, rig):
        rig[0].ifetch(0x1000, 4, 0)
        assert rig[0].ifetch(0x1000, 4, 100) == 0

    def test_ifetch_spanning_lines(self, rig):
        rig[0].ifetch(0x1000, 8, 0)  # 32 bytes = 2 I-lines
        assert rig[0].l1i.present(0x1000)
        assert rig[0].l1i.present(0x1010)

    def test_ifetch_l2_hit_cheaper_than_memory(self, rig):
        cold = rig[0].ifetch(0x1000, 4, 0)
        # Drop the L1 lines of the L2 line, which the L2 keeps.
        rig[0].controller._drop_from_l1(rig[0].cpu_id, 0x1000, False)
        warm = rig[0].ifetch(0x1000, 4, 100)
        assert warm < cold


class TestPrefetch:
    def test_prefetch_then_late_read_hits(self, rig):
        rig[0].prefetch_line(ADDR, 0)
        res = rig.read(0, ADDR, 500)
        assert not res.miss

    def test_prefetch_then_early_read_partially_hidden(self, rig):
        rig[0].prefetch_line(ADDR, 0)
        res = rig.read(0, ADDR, 10)
        assert res.miss and res.level == LEVEL_PREF
        assert 0 < res.pref_stall < 51

    def test_prefetch_of_present_line_is_noop(self, rig):
        rig.read(0, ADDR, 0)
        rig[0].prefetch_line(ADDR, 100)
        assert not rig[0].pending.ready


class TestBypass:
    def test_bypass_read_does_not_fill_cache(self, rig):
        res = rig.read(0, ADDR, 0, bypass=True)
        assert res.miss and res.level == LEVEL_MEM
        assert not rig[0].l1d.present(ADDR)
        assert not rig[0].l2.present(ADDR)

    def test_bypass_read_register_reuse(self, rig):
        rig.read(0, ADDR, 0, bypass=True)
        res = rig.read(0, ADDR + 4, 100, bypass=True)
        assert not res.miss and res.level == LEVEL_REGISTER

    def test_bypass_read_of_cached_line_hits(self, rig):
        rig.read(0, ADDR, 0)
        res = rig.read(0, ADDR, 100, bypass=True)
        assert not res.miss

    def test_bypass_marks_line_for_reuse(self, rig):
        rig.read(0, ADDR, 0, bypass=True)
        assert ADDR in rig.trackers[0].bypassed

    def test_bypass_write_accumulates_then_flushes(self, rig):
        line_bytes = rig.machine.l1d.line_bytes
        for i in range(line_bytes // 4):
            res = rig[0].write_bypass(ADDR + i * 4, i)
            assert res.level == LEVEL_REGISTER
        # Crossing to the next line flushes the register via WB2.
        rig[0].write_bypass(ADDR + line_bytes, 100)
        assert rig[0].wb2.enqueues == 1
        assert not rig[0].l1d.present(ADDR)

    def test_bypass_write_to_cached_line_uses_cache(self, rig):
        rig.read(0, ADDR, 0)
        res = rig[0].write_bypass(ADDR, 100)
        assert res.level != LEVEL_REGISTER

    def test_end_block_op_flushes_register(self, rig):
        rig[0].write_bypass(ADDR, 0)
        rig[0].end_block_op(10)
        assert rig[0].bypass_dst_line == -1
        assert rig[0].wb2.enqueues == 1

    def test_buffer_prefetch_hit(self, rig):
        rig[0].prefetch_into_buffer(ADDR, 0)
        res = rig.read(0, ADDR, 500, bypass=True)
        assert not res.miss and res.level == LEVEL_BUFFER

    def test_buffer_prefetch_early_access_counts_miss(self, rig):
        rig[0].prefetch_into_buffer(ADDR, 0)
        res = rig.read(0, ADDR, 5, bypass=True)
        assert res.miss and res.pref_stall > 0

    def test_buffer_does_not_fill_cache(self, rig):
        rig[0].prefetch_into_buffer(ADDR, 0)
        rig.read(0, ADDR, 500, bypass=True)
        assert not rig[0].l1d.present(ADDR)


class TestDisplacementTracking:
    def test_blockop_fill_marks_displaced_victim(self, rig):
        mem = rig[0]
        victim = ADDR
        rig.read(0, victim, 0)
        mem.in_blockop = True
        conflicting = victim + rig.machine.l1d.size_bytes
        rig.read(0, conflicting, 100)
        assert victim in rig.trackers[0].displaced
        mem.in_blockop = False
        res = rig.read(0, victim, 1000)
        assert res.miss and res.flags.displaced

    def test_normal_fill_does_not_mark(self, rig):
        rig.read(0, ADDR, 0)
        rig.read(0, ADDR + rig.machine.l1d.size_bytes, 100)
        assert ADDR not in rig.trackers[0].displaced
