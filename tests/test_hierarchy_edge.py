"""Edge-case tests for the per-CPU memory hierarchy."""

import pytest

from repro.common.errors import SimulationError
from repro.memsys.adaptive import StaticHybridPolicy
from repro.memsys.states import LineState

ADDR = 0x60000


class TestIfetchEdges:
    def test_zero_icount_free(self, rig):
        assert rig[0].ifetch(0x1000, 0, 0) == 0

    def test_ifetch_spanning_l2_lines(self, rig):
        # 16 instructions = 64 bytes = 4 I-lines = 2 L2 lines.
        stall = rig[0].ifetch(0x1000, 16, 0)
        assert stall > 0
        for line in range(0x1000, 0x1040, 16):
            assert rig[0].l1i.present(line)

    def test_code_shares_unified_l2(self, rig):
        rig[0].ifetch(0x1000, 4, 0)
        assert rig[0].l2.present(0x1000)

    def test_unaligned_pc(self, rig):
        stall = rig[0].ifetch(0x100C, 2, 0)  # crosses a line boundary
        assert stall > 0
        assert rig[0].l1i.present(0x1000)


class TestPrefetchEdges:
    def test_double_prefetch_single_pending(self, rig):
        rig[0].prefetch_line(ADDR, 0)
        pending_before = dict(rig[0].pending.ready)
        rig[0].prefetch_line(ADDR, 1)  # line now present: no-op
        assert rig[0].pending.ready == pending_before

    def test_pending_dropped_on_eviction(self, rig):
        rig[0].prefetch_line(ADDR, 0)
        # Conflict-evict the prefetched line before it is consumed.
        rig.read(0, ADDR + rig.machine.l1d.size_bytes, 5)
        assert ADDR not in rig[0].pending.ready

    def test_prefetch_then_write_then_read(self, rig):
        rig[0].prefetch_line(ADDR, 0)
        rig[0].write(ADDR, 10)
        res = rig.read(0, ADDR, 500)
        assert not res.miss

    def test_buffer_prefetch_skips_buffered_line(self, rig):
        rig[0].prefetch_into_buffer(ADDR, 0)
        lines_before = dict(rig[0].pref_buffer.lines)
        rig[0].prefetch_into_buffer(ADDR, 1)
        assert rig[0].pref_buffer.lines == lines_before

    def test_buffer_fifo_eviction(self, rig):
        capacity = rig[0].pref_buffer.capacity
        line_bytes = rig.machine.l1d.line_bytes
        for i in range(capacity + 2):
            rig[0].pref_buffer.insert(ADDR + i * line_bytes, 10)
        assert len(rig[0].pref_buffer.lines) == capacity
        assert ADDR not in rig[0].pref_buffer.lines


class TestWriteEdges:
    def test_write_to_update_page_keeps_sharers(self, rig):
        rig.controller.attach_policy(
            StaticHybridPolicy(rig.machine.page_bytes, [ADDR]))
        rig.read(0, ADDR, 0)
        rig.read(1, ADDR, 100)
        rig[0].write(ADDR, 1000)
        assert rig[1].l2.state_of(ADDR) != LineState.INVALID

    def test_write_miss_on_update_page(self, rig):
        rig.controller.attach_policy(
            StaticHybridPolicy(rig.machine.page_bytes, [ADDR]))
        rig.read(1, ADDR, 0)
        # cpu0 writes without ever holding the line: fetch + update.
        rig[0].write(ADDR, 100)
        assert rig[1].l2.state_of(ADDR) == LineState.SHARED

    def test_sequential_words_single_ownership(self, rig):
        rig[0].write(ADDR, 0)
        busy_after_first = rig.bus.busy_cycles
        for i in range(1, 8):
            rig[0].write(ADDR + i * 4, 10 * i)
        # Only the first word needed the bus (ownership fetch).
        assert rig.bus.busy_cycles == busy_after_first

    def test_drain_writes_empty(self, rig):
        assert rig[0].drain_writes(42) == 42


class TestBypassEdges:
    def test_end_block_op_without_activity(self, rig):
        assert rig[0].end_block_op(10) == 0

    def test_bypass_dst_flush_invalidates_remote(self, rig):
        rig.read(1, ADDR, 0)
        line_bytes = rig.machine.l1d.line_bytes
        for i in range(line_bytes // 4):
            rig[0].write_bypass(ADDR + i * 4, 100 + i)
        rig[0].end_block_op(500)
        assert rig[1].l2.state_of(ADDR) == LineState.INVALID

    def test_bypass_read_register_granularity(self, rig):
        l1 = rig.machine.l1d.line_bytes
        rig[0].bypass_l2_wide = False
        rig.read(0, ADDR, 0, bypass=True)
        res = rig.read(0, ADDR + l1, 100, bypass=True)  # next L1 line
        assert res.miss  # narrow register: new L1 line misses

    def test_bypass_read_wide_register(self, rig):
        l1 = rig.machine.l1d.line_bytes
        rig[0].bypass_l2_wide = True
        rig.read(0, ADDR, 0, bypass=True)
        res = rig.read(0, ADDR + l1, 100, bypass=True)  # same L2 line
        assert not res.miss


class TestInclusion:
    def test_l2_conflict_drops_l1_data(self, rig):
        rig.read(0, ADDR, 0)
        conflicting = ADDR + rig.machine.l2.size_bytes
        rig.read(0, conflicting, 100)
        assert not rig[0].l1d.present(ADDR)
        rig.controller.check_invariants()

    def test_code_data_l2_conflict(self, rig):
        rig.read(0, ADDR, 0)
        rig[0].ifetch(ADDR + rig.machine.l2.size_bytes, 4, 100)
        assert not rig[0].l1d.present(ADDR)
        rig.controller.check_invariants()
