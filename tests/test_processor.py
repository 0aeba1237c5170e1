"""Unit tests for the trace-driven processor (repro.sim.processor)."""

import pytest

from repro.common.errors import SimulationError
from repro.common.types import MissKind, Mode, Scheme
from repro.sim import simulate, standard_configs
from repro.sim.config import SystemConfig
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder

SRC = 0x100000
DST = 0x284000  # different L1/L2 sets from SRC


def run(builder, config=None, **kwargs):
    trace = builder.build()
    if config is None:
        config = SystemConfig("test")
    return simulate(trace, config, **kwargs)


def single_cpu_builder():
    return TraceBuilder(1)


class TestBasics:
    def test_empty_trace_finishes(self):
        metrics = run(TraceBuilder(2))
        assert metrics.makespan == 0

    def test_exec_time_charged(self):
        b = single_cpu_builder()
        b.emit(0, rec.read(0x1000, pc=0x100, icount=5))
        m = run(b)
        # 5 instructions + 1 access cycle.
        assert m.time[Mode.OS].exec_cycles == 6

    def test_instruction_misses_counted(self):
        b = single_cpu_builder()
        b.emit(0, rec.read(0x1000, pc=0x100, icount=5))
        m = run(b)
        assert m.time[Mode.OS].imiss > 0

    def test_read_miss_then_hit(self):
        b = single_cpu_builder()
        b.emit(0, rec.read(0x1000, pc=0x100))
        b.emit(0, rec.read(0x1004, pc=0x100))
        m = run(b)
        assert m.reads[Mode.OS] == 2
        assert m.read_misses[Mode.OS] == 1

    def test_user_mode_accounted_separately(self):
        b = single_cpu_builder()
        b.emit(0, rec.read(0x1000, mode=Mode.USER, pc=0x100))
        b.emit(0, rec.read(0x2000, mode=Mode.OS, pc=0x200))
        m = run(b)
        assert m.reads[Mode.USER] == 1
        assert m.reads[Mode.OS] == 1
        assert m.time[Mode.USER].total > 0

    def test_conflict_misses_are_other(self):
        b = single_cpu_builder()
        size = 32 * 1024
        b.emit(0, rec.read(0x1000, pc=0x100))
        b.emit(0, rec.read(0x1000 + size, pc=0x100))
        b.emit(0, rec.read(0x1000, pc=0x100))
        m = run(b)
        assert m.os_miss_kind[MissKind.OTHER] == 3

    def test_miss_pcs_recorded(self):
        b = single_cpu_builder()
        b.emit(0, rec.read(0x1000, pc=0xAA))
        m = run(b)
        assert m.os_miss_pc[0xAA] == 1


class _CountingIndex(dict):
    """An L1I line index that counts membership probes."""

    probes = 0

    def __contains__(self, line):
        self.probes += 1
        return dict.__contains__(self, line)


def _counting_l1i(proc):
    """Give *proc*'s L1I a probe-counting line index, before its first
    step.  A fetch the memo serves probes nothing; a fetch that walks
    probes each resident line it spans."""
    where = _CountingIndex(proc.mem.l1i.where)
    proc.mem.l1i.where = proc._l1i_where = where
    return where


class TestFetchMemo:
    """The fetch memo (see ``Processor.steps``) holds the span of L1I
    lines the last resident walk found, until a line is removed or an
    ``ifetch`` runs.  Each test ends on a refetch of a remembered span
    right after an ``ifetch`` that removed no line: a memo that outlived
    the ``ifetch`` would skip the walk."""

    def test_inclusion_eviction_ends_the_remembered_span(self):
        """A data miss whose L2 fill evicts the code's L2 line drops the
        L1I lines of the span the CPU last found resident; the next
        fetch in that span must walk, miss and stall."""
        from repro.sim.system import MultiprocessorSystem
        pc, icount = 0x1300, 8  # two 16-B L1I lines, one 32-B L2 line
        other = 0x2000          # another L1I and L2 set, cold
        b = single_cpu_builder()
        b.emit(0, rec.read(0x80000, pc=pc, icount=icount))  # cold fetch
        b.emit(0, rec.read(0x80004, pc=pc, icount=icount))  # resident walk
        # 256 KB above the code: the same direct-mapped L2 set.
        b.emit(0, rec.read(pc + 0x40000, pc=pc, icount=icount))
        b.emit(0, rec.read(0x80008, pc=pc, icount=icount))
        b.emit(0, rec.read(0x8000C, pc=pc, icount=icount))  # resident walk
        b.emit(0, rec.read(0x80010, pc=other, icount=1))    # empty frame
        b.emit(0, rec.read(0x80014, pc=pc, icount=icount))
        system = MultiprocessorSystem(b.build(), SystemConfig("test"))
        proc = system.processors[0]
        l1i = proc.mem.l1i
        where = _counting_l1i(proc)
        time = system.metrics.time[Mode.OS]

        proc.step()
        cold = time.imiss
        assert cold > 0
        proc.step()
        assert time.imiss == cold
        assert where.probes > 0
        probes, removals = where.probes, l1i.removals
        proc.step()  # inside the remembered span: no walk
        assert time.imiss == cold
        assert where.probes == probes
        assert pc not in l1i.where
        assert l1i.removals > removals
        proc.step()
        assert time.imiss > cold
        assert pc in l1i.where
        proc.step()  # resident walk: the memo holds the span again
        stalled = time.imiss
        removals = l1i.removals
        proc.step()  # a miss that fills an empty frame
        assert time.imiss > stalled
        assert l1i.removals == removals
        probes, stalled = where.probes, time.imiss
        proc.step()  # after an ifetch: walked, resident
        assert where.probes == probes + 2
        assert time.imiss == stalled

    def test_fill_into_empty_way_ends_the_remembered_span(self):
        """On a 2-way L1I a miss that fills an empty way removes no line
        but demotes the remembered line of its set.  The next fetch of
        that line must walk and promote it again, so a third line of the
        set evicts the line that missed, not the remembered one."""
        from repro.common.params import machine_for
        from repro.sim.config import resolve_config
        from repro.sim.system import MultiprocessorSystem
        machine = machine_for(1, assoc=2)
        l1i_params = machine.l1i
        stride = l1i_params.num_sets * l1i_params.line_bytes
        a, z, w = 0x1300, 0x1300 + stride, 0x1300 + 2 * stride
        b = single_cpu_builder()
        for pc in (a, a, a, z, a, w):
            b.emit(0, rec.read(0x80000, pc=pc, icount=4))
        system = MultiprocessorSystem(b.build(),
                                      resolve_config("Base", machine))
        proc = system.processors[0]
        l1i = proc.mem.l1i
        where = _counting_l1i(proc)

        proc.step()  # cold fetch of A
        proc.step()  # resident walk: the memo holds A
        probes = where.probes
        proc.step()  # A from the memo
        assert where.probes == probes
        removals = l1i.removals
        proc.step()  # Z fills the set's empty way
        assert l1i.removals == removals
        assert l1i.ranks[l1i.where[a]] == 1
        probes = where.probes
        proc.step()  # A again: walked, promoted
        assert where.probes > probes
        assert l1i.ranks[l1i.where[a]] == 0
        proc.step()  # W evicts the set's LRU line
        assert a in l1i.where
        assert z not in l1i.where

    def test_wide_span_remembers_one_line_per_set(self):
        """A resident span wider than the 2-way L1I's sets holds two
        lines of its first sets, the earlier one not its set's MRU.  A
        later fetch of that earlier line alone must walk and promote it,
        so the next miss in its set evicts the span's later line."""
        from repro.common.params import machine_for
        from repro.sim.config import resolve_config
        from repro.sim.system import MultiprocessorSystem
        machine = machine_for(1, assoc=2)
        line_bytes = machine.l1i.line_bytes
        stride = machine.l1i.num_sets * line_bytes
        wide = stride + 2 * line_bytes  # sets 0 and 1 get two lines
        third = 2 * line_bytes          # set 2: one line of the span
        b = single_cpu_builder()
        b.emit(0, rec.read(0x80000, pc=0, icount=wide // 4))  # cold
        b.emit(0, rec.read(0x80000, pc=0, icount=wide // 4))  # walk
        b.emit(0, rec.read(0x80000, pc=0, icount=1))
        b.emit(0, rec.read(0x80000, pc=2 * stride, icount=1))
        b.emit(0, rec.read(0x80000, pc=third, icount=1))
        b.emit(0, rec.read(0x80000, pc=2 * stride + third, icount=1))
        b.emit(0, rec.read(0x80000, pc=third, icount=1))
        b.emit(0, rec.read(0x80000, pc=3 * stride + third, icount=1))
        system = MultiprocessorSystem(b.build(),
                                      resolve_config("Base", machine))
        proc = system.processors[0]
        l1i = proc.mem.l1i
        where = _counting_l1i(proc)

        proc.step()
        proc.step()
        assert l1i.ranks[l1i.where[0]] == 1
        probes = where.probes
        proc.step()  # line 0 alone: outside the memo, walked
        assert where.probes > probes
        assert l1i.ranks[l1i.where[0]] == 0
        proc.step()  # a third line of set 0 evicts the set's LRU line
        assert 0 in l1i.where
        assert stride not in l1i.where
        proc.step()  # the span's line of set 2: the memo holds it
        removals = l1i.removals
        proc.step()  # fills set 2's empty way, demoting that line
        assert l1i.removals == removals
        assert l1i.ranks[l1i.where[third]] == 1
        proc.step()  # walked, promoted
        assert l1i.ranks[l1i.where[third]] == 0
        proc.step()  # a third line of set 2 evicts the set's LRU line
        assert third in l1i.where
        assert 2 * stride + third not in l1i.where


class TestLocks:
    def test_uncontended_lock(self):
        b = single_cpu_builder()
        b.emit(0, rec.lock_acquire(0x100))
        b.emit(0, rec.write(0x200))
        b.emit(0, rec.lock_release(0x100))
        m = run(b)
        assert m.makespan > 0

    def test_contended_lock_serializes(self):
        b = TraceBuilder(2)
        for cpu in range(2):
            b.emit(cpu, rec.lock_acquire(0x100, icount=2))
            for i in range(40):
                b.emit(cpu, rec.write(0x2000 + 64 * i, icount=2))
            b.emit(cpu, rec.lock_release(0x100))
        m = run(b)
        # Some CPU must have spun (sync time) because sections overlap.
        total_sync = sum(tb.sync for tb in m.time)
        assert total_sync > 0

    def test_lock_migration_causes_coherence_misses(self):
        # Lock ping-pong: once a CPU has held the lock, the other CPU's
        # acquire invalidates its copy, so re-acquiring is a coherence miss.
        b = TraceBuilder(2)
        for round_ in range(4):
            for cpu in range(2):
                b.emit(cpu, rec.lock_acquire(0x100, icount=2))
                b.emit(cpu, rec.write(0x8000 + cpu * 0x40, icount=4))
                b.emit(cpu, rec.lock_release(0x100))
        m = run(b)
        from repro.common.types import DataClass
        assert m.os_coh_dclass[DataClass.LOCK_VAR] >= 1


class TestBarriers:
    def test_barrier_releases_everyone(self):
        b = TraceBuilder(4)
        for cpu in range(4):
            for i in range(cpu * 10):  # staggered arrivals
                b.emit(cpu, rec.read(0x1000 + cpu * 0x2000 + i * 16))
            b.emit(cpu, rec.barrier(0x500, 4))
            b.emit(cpu, rec.read(0x9000 + cpu * 0x2000))
        m = run(b)
        assert m.makespan > 0
        total_sync = sum(tb.sync for tb in m.time)
        assert total_sync > 0

    def test_barrier_generates_coherence_misses(self):
        from repro.common.types import DataClass
        b = TraceBuilder(4)
        for round_ in range(3):
            for cpu in range(4):
                b.emit(cpu, rec.barrier(0x500, 4))
        m = run(b)
        assert m.os_coh_dclass[DataClass.BARRIER_VAR] > 0

    def test_two_cpu_barrier_subset(self):
        b = TraceBuilder(4)
        b.emit(0, rec.barrier(0x500, 2))
        b.emit(1, rec.barrier(0x500, 2))
        b.emit(2, rec.read(0x1000))
        b.emit(3, rec.read(0x2000))
        m = run(b)
        assert m.makespan > 0


class TestBlockOps:
    def _copy_builder(self, warm_src=False):
        # Code addresses are placed away from the L2 sets of SRC/DST so
        # unified-L2 code/data conflicts don't perturb the measurements.
        b = single_cpu_builder()
        if warm_src:
            for off in range(0, 4096, 16):
                b.emit(0, rec.read(SRC + off, pc=0x2000))
        b.emit_block_copy(0, src=SRC, dst=DST, size=4096, pc=0x2100)
        return b

    def test_base_counts_block_misses(self):
        m = run(self._copy_builder())
        assert m.os_miss_kind[MissKind.BLOCK_OP] > 0
        assert m.blockops.ops == 1
        assert m.blockops.copies == 1

    def test_warm_source_reduces_block_misses(self):
        cold = run(self._copy_builder())
        warm = run(self._copy_builder(warm_src=True))
        assert (warm.os_miss_kind[MissKind.BLOCK_OP]
                < cold.os_miss_kind[MissKind.BLOCK_OP])

    def test_table3_src_residency_measured(self):
        m = run(self._copy_builder(warm_src=True))
        assert m.blockops.pct_src_cached() == pytest.approx(100.0)

    def test_size_distribution(self):
        b = single_cpu_builder()
        b.emit_block_copy(0, src=SRC, dst=DST, size=4096)
        b.emit_block_copy(0, src=SRC, dst=DST + 0x9000, size=2048)
        b.emit_block_copy(0, src=SRC, dst=DST + 0x13000, size=256)
        m = run(b)
        dist = m.blockops.size_distribution()
        assert dist["page"] == pytest.approx(100.0 / 3)
        assert dist["1k_to_page"] == pytest.approx(100.0 / 3)
        assert dist["lt_1k"] == pytest.approx(100.0 / 3)

    def test_prefetch_scheme_reduces_block_misses(self):
        base = run(self._copy_builder())
        pref = run(self._copy_builder(),
                   SystemConfig("pref", scheme=Scheme.PREF, pref_lead_lines=8))
        assert (pref.os_miss_kind[MissKind.BLOCK_OP]
                < base.os_miss_kind[MissKind.BLOCK_OP])
        assert pref.prefetches_issued > 0

    def test_dma_scheme_eliminates_block_misses(self):
        m = run(self._copy_builder(), standard_configs()["Blk_Dma"])
        assert m.os_miss_kind[MissKind.BLOCK_OP] == 0
        assert m.dma_ops == 1
        assert m.dma_stall > 0

    def test_dma_stall_charged_to_dread(self):
        m = run(self._copy_builder(), standard_configs()["Blk_Dma"])
        assert m.time[Mode.OS].dread >= m.dma_stall

    def test_bypass_scheme_counts_reuses(self):
        b = self._copy_builder()
        # Touch the destination afterwards: reuse misses.
        for off in range(0, 4096, 16):
            b.emit(0, rec.read(DST + off, pc=0x20))
        m = run(b, standard_configs()["Blk_Bypass"])
        assert m.reuse_outside > 0

    def test_fork_chain_inside_reuse(self):
        # dst of copy 1 is src of copy 2 (the fork-fork pattern of §4.1.3).
        b = single_cpu_builder()
        b.emit_block_copy(0, src=SRC, dst=DST, size=1024)
        b.emit_block_copy(0, src=DST, dst=DST + 0x9000, size=1024)
        m = run(b, standard_configs()["Blk_Bypass"])
        assert m.reuse_inside > 0

    def test_zero_op_all_schemes(self):
        for name, config in standard_configs().items():
            b = single_cpu_builder()
            b.emit_block_zero(0, dst=DST, size=1024)
            m = run(b, config)
            assert m.blockops.ops == 1, name

    def test_displacement_misses_tracked(self):
        b = single_cpu_builder()
        victim = SRC + 32 * 1024  # same L1 set as SRC
        b.emit(0, rec.read(victim, pc=0x10))
        b.emit_block_copy(0, src=SRC, dst=DST, size=256)
        b.emit(0, rec.read(victim, pc=0x20))
        m = run(b)
        assert m.displacement_outside >= 1


class TestHotspotPrefetch:
    def test_prefetch_record_hides_latency(self):
        b = single_cpu_builder()
        b.emit(0, rec.prefetch(0x4000, pc=0x10))
        for i in range(20):
            b.emit(0, rec.read(0x8000 + i * 64, pc=0x20, icount=3))
        b.emit(0, rec.read(0x4000, pc=0x30))
        m = run(b)
        # The prefetched read is either fully hidden (no miss) or partially
        # hidden (pref time), never a full stall.
        assert m.time[Mode.OS].dread < 20 * 51

    def test_hotspot_pcs_counted(self):
        b = single_cpu_builder()
        b.emit(0, rec.read(0x4000, pc=0x77))
        m = run(b, hotspot_pcs=[0x77])
        assert m.os_hotspot_misses == 1


class TestUpdatePages:
    def test_update_pages_remove_coherence_misses(self):
        from repro.common.types import DataClass

        def build():
            b = TraceBuilder(2)
            for i in range(10):
                b.emit(0, rec.write(0x10000, pc=0x1, icount=2,
                                    dclass=DataClass.FREQ_SHARED))
                b.emit(1, rec.read(0x10000, pc=0x2, icount=2,
                                   dclass=DataClass.FREQ_SHARED))
            return b.build()

        inval = simulate(build(), SystemConfig("inv"))
        upd = simulate(build(),
                       SystemConfig("upd", selective_update=True),
                       update_pages=[0x10000])
        assert upd.os_miss_kind[MissKind.COHERENCE] < inval.os_miss_kind[MissKind.COHERENCE]
