"""Unit tests for the metrics layer (repro.sim.metrics)."""

import pytest

from repro.common.types import DataClass, MissKind, Mode
from repro.memsys.sink import MissTracker
from repro.sim.metrics import BlockOpStats, SystemMetrics, TimeBreakdown
from repro.trace.blockop import BlockOpRegistry
from repro.trace.record import read as read_rec


class TestTimeBreakdown:
    def test_add_and_total(self):
        tb = TimeBreakdown()
        for field, cycles in zip(tb.__slots__, (10, 2, 5, 1, 3, 4)):
            setattr(tb, field, cycles)
        assert tb.total == 25

    def test_as_dict_keys(self):
        d = TimeBreakdown().as_dict()
        assert set(d) == {"exec_cycles", "imiss", "dread", "dwrite",
                          "pref", "sync"}


def evict(rig, line):
    """Evict *line* from CPU 0's direct-mapped L1D (it stays in the L2)."""
    rig.read(0, line + rig.machine.l1d.size_bytes, 0)
    assert line not in rig[0].l1d.where


class TestMissTracker:
    """The causes a CPU's L1D read misses are classified by.  The one
    read routine, ``CpuMemorySystem.load``, reads and clears them."""

    def test_coherence_flag_lifecycle(self, rig):
        rig.trackers[0].coherence_invalidate(0x100)
        assert rig.read(0, 0x100, 0).flags.coherence
        evict(rig, 0x100)
        res = rig.read(0, 0x100, 1000)  # consumed
        assert res.miss and not res.flags.coherence

    def test_fill_clears_all_state(self):
        t = MissTracker()
        t.coherence_invalidate(0x100)
        t.bypass_mark(0x100)
        t.displaced.add(0x100)
        t.l1_fill(0x100, evicted_line=-1, during_blockop=False)
        assert 0x100 not in t.coh_pending | t.displaced | t.bypassed

    def test_blockop_fill_marks_victim(self):
        t = MissTracker()
        t.l1_fill(0x200, evicted_line=0x100, during_blockop=True)
        assert 0x100 in t.displaced

    def test_plain_fill_does_not_mark_victim(self):
        t = MissTracker()
        t.l1_fill(0x200, evicted_line=0x100, during_blockop=False)
        assert 0x100 not in t.displaced

    def test_coherence_invalidate_overrides_displacement(self, rig):
        t = rig.trackers[0]
        t.displaced.add(0x100)
        t.coherence_invalidate(0x100)
        flags = rig.read(0, 0x100, 0).flags
        assert flags.coherence and not flags.displaced


class TestBlockOpStats:
    def test_size_classes(self):
        stats = BlockOpStats()
        reg = BlockOpRegistry()
        page = reg.new_copy(0x0, 0x10000, 4096)
        mid = reg.new_copy(0x0, 0x20000, 2048)
        small = reg.new_zero(0x30000, 128)
        for desc in (page, mid, small):
            stats.record(desc, 4096, 0, 1, 0, 0, 1)
        dist = stats.size_distribution()
        assert dist["page"] == pytest.approx(100 / 3)
        assert dist["1k_to_page"] == pytest.approx(100 / 3)
        assert dist["lt_1k"] == pytest.approx(100 / 3)
        assert stats.copies == 2

    def test_percentages_guard_division(self):
        stats = BlockOpStats()
        assert stats.pct_src_cached() == 0.0
        assert stats.pct_dst_owned() == 0.0
        assert stats.size_distribution()["page"] == 0.0


class TestSystemMetrics:
    def make(self):
        return SystemMetrics(num_cpus=2)

    @staticmethod
    def miss(rig, rec, inside=False, causes=()):
        """CPU 0 misses on *rec*'s line, which first gets *causes* (names
        of its tracker's sets); returns the rig's metrics."""
        line = rec.addr - rec.addr % rig.machine.l1d.line_bytes
        for name in causes:
            getattr(rig.trackers[0], name).add(line)
        res = rig.read(0, rec.addr, 0, rec.mode, rec.pc, rec.dclass,
                       rec.blockop, inside)
        assert res.miss
        return rig.metrics

    def test_read_counting_by_mode(self):
        from repro.sim.config import SystemConfig
        from repro.sim.system import simulate
        from repro.trace.stream import TraceBuilder
        builder = TraceBuilder(1)
        builder.emit(0, read_rec(0x100, mode=Mode.OS))
        builder.emit(0, read_rec(0x104, mode=Mode.USER))  # same line: a hit
        m = simulate(builder.build(), SystemConfig("count"))
        assert m.reads[Mode.USER] == 1
        assert m.reads[Mode.OS] == 1
        assert m.read_misses[Mode.OS] == 1
        assert m.read_misses[Mode.USER] == 0

    def test_block_miss_classification(self, rig):
        m = self.miss(rig, read_rec(0x100, blockop=3), inside=True)
        assert m.os_miss_kind[MissKind.BLOCK_OP] == 1

    def test_coherence_classification_and_addr_tracking(self, rig):
        rec = read_rec(0x104, dclass=DataClass.LOCK_VAR)
        m = self.miss(rig, rec, causes=["coh_pending"])
        assert m.os_miss_kind[MissKind.COHERENCE] == 1
        assert m.os_coh_dclass[DataClass.LOCK_VAR] == 1
        assert m.os_coh_addr[0x100] == 1

    def test_displacement_and_reuse_counters(self, rig):
        self.miss(rig, read_rec(0x100), True, ["displaced"])
        self.miss(rig, read_rec(0x200), False, ["displaced"])
        m = self.miss(rig, read_rec(0x300), False, ["bypassed"])
        assert m.displacement_inside == 1
        assert m.displacement_outside == 1
        assert m.reuse_outside == 1

    def test_user_misses_not_in_os_taxonomy(self, rig):
        m = self.miss(rig, read_rec(0x100, mode=Mode.USER))
        assert m.read_misses[Mode.USER] == 1
        assert sum(m.os_miss_kind.values()) == 0

    def test_hotspot_miss_counting(self, rig):
        rig.metrics.hotspot_pcs = {0x40}
        self.miss(rig, read_rec(0x100, pc=0x40))
        m = self.miss(rig, read_rec(0x200, pc=0x80))
        assert m.os_hotspot_misses == 1

    def test_mode_fractions_sum_to_one(self):
        m = self.make()
        m.time[Mode.USER].exec_cycles = 60
        m.time[Mode.OS].exec_cycles = 30
        m.time[Mode.IDLE].exec_cycles = 10
        total = sum(m.mode_fraction(mode) for mode in Mode)
        assert total == pytest.approx(1.0)

    def test_miss_kind_fractions_empty(self):
        m = self.make()
        assert m.miss_kind_fractions() == {k: 0.0 for k in MissKind}

    def test_coherence_breakdown_partitions(self):
        m = self.make()
        m.os_coh_dclass[DataClass.BARRIER_VAR] = 6
        m.os_coh_dclass[DataClass.TIMER] = 4
        breakdown = m.coherence_breakdown()
        assert breakdown["Barriers"] == pytest.approx(0.6)
        assert breakdown["Other"] == pytest.approx(0.4)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_hottest_pcs_ranked(self):
        m = self.make()
        m.os_miss_pc[0x10] = 5
        m.os_miss_pc[0x20] = 9
        m.os_miss_pc[0x30] = 1
        assert m.hottest_pcs(2) == [0x20, 0x10]

    def test_finalize_and_makespan(self):
        m = self.make()
        m.finalize([100, 250])
        assert m.makespan == 250
        assert m.cpu_end_times == [100, 250]
