"""Edge-case tests for the processor model and small type modules."""

import pytest

from repro.common.errors import (
    AnalysisError,
    ConfigError,
    DeadlockError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.common.types import COHERENCE_GROUPS, DataClass, Mode, Op, Scheme
from repro.memsys.states import LineState, is_owned
from repro.sim import SystemConfig, simulate, standard_configs
from repro.sim.processor import ProcStatus
from repro.sim.system import MultiprocessorSystem
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder


class TestErrors:
    def test_hierarchy(self):
        for exc in (ConfigError, TraceError, SimulationError, AnalysisError):
            assert issubclass(exc, ReproError)
        assert issubclass(DeadlockError, SimulationError)


class TestStates:
    def test_is_owned(self):
        assert is_owned(LineState.MODIFIED)
        assert is_owned(LineState.EXCLUSIVE)
        assert not is_owned(LineState.SHARED)
        assert not is_owned(LineState.INVALID)


class TestTypes:
    def test_coherence_groups_cover_table5(self):
        assert set(COHERENCE_GROUPS) == {"Barriers", "Infreq. Com.",
                                         "Freq. Shared", "Locks"}
        assert COHERENCE_GROUPS["Locks"] == (DataClass.LOCK_VAR,)

    def test_scheme_members(self):
        assert {s.name for s in Scheme} == {"BASE", "PREF", "BYPASS",
                                            "BYPREF", "DMA"}


class TestProcessorEdges:
    def test_prefetch_record_counts(self):
        b = TraceBuilder(1)
        b.emit(0, rec.prefetch(0x4000))
        b.emit(0, rec.read(0x8000))
        m = simulate(b.build(), SystemConfig("t"))
        assert m.prefetches_issued == 1

    def test_missing_block_end_raises(self):
        b = TraceBuilder(1)
        desc = b.blockops.new_copy(0x1000, 0x2000, 64)
        b.emit(0, rec.block_start(desc.op_id))
        trace = b.build(validate=False)
        # No BLOCK_END: the DMA dispatcher must detect the corruption.
        with pytest.raises(SimulationError, match="BLOCK_END"):
            MultiprocessorSystem(trace, standard_configs()["Blk_Dma"]).run()

    def test_step_on_done_processor_raises(self):
        b = TraceBuilder(1)
        b.emit(0, rec.read(0x1000))
        system = MultiprocessorSystem(b.build(), SystemConfig("t"))
        system.run()
        proc = system.processors[0]
        assert proc.status == ProcStatus.DONE
        with pytest.raises(SimulationError):
            proc.step()

    def test_barrier_as_final_record(self):
        b = TraceBuilder(2)
        for cpu in range(2):
            b.emit(cpu, rec.read(0x1000 + cpu * 0x2000))
            b.emit(cpu, rec.barrier(0x500, 2))
        m = simulate(b.build(), SystemConfig("t"))
        assert m.makespan > 0

    def test_zero_icount_records(self):
        b = TraceBuilder(1)
        b.emit(0, rec.read(0x1000, icount=0))
        m = simulate(b.build(), SystemConfig("t"))
        assert m.reads[Mode.OS] == 1

    def test_lock_handoff_delay(self):
        # A lock re-acquired immediately after release still pays the
        # hand-off: the acquire cannot predate the release.
        b = TraceBuilder(2)
        b.emit(0, rec.lock_acquire(0x100))
        for i in range(20):
            b.emit(0, rec.write(0x2000 + i * 16, icount=3))
        b.emit(0, rec.lock_release(0x100))
        b.emit(1, rec.lock_acquire(0x100))
        b.emit(1, rec.lock_release(0x100))
        system = MultiprocessorSystem(b.build(), SystemConfig("t"))
        system.run()
        assert system.locks.contended_acquisitions > 0

    def test_dma_zero_op(self):
        b = TraceBuilder(1)
        b.emit_block_zero(0, dst=0x50000, size=256)
        m = simulate(b.build(), standard_configs()["Blk_Dma"])
        assert m.dma_ops == 1
        assert m.os_read_misses() == 0

    def test_every_scheme_handles_empty_block(self):
        # A 4-byte block operation (one word) on every scheme.
        for name, config in standard_configs().items():
            b = TraceBuilder(1)
            b.emit_block_copy(0, src=0x10000, dst=0x25000, size=4)
            m = simulate(b.build(), config)
            assert m.blockops.ops == 1, name

    def test_pure_update_config(self):
        def build():
            b = TraceBuilder(2)
            for i in range(6):
                b.emit(0, rec.write(0x9000, icount=4))
                b.emit(1, rec.read(0x9000, icount=4))
                b.emit(1, rec.read(0x9100 + i * 64, icount=8))
            return b.build()

        from repro.common.types import MissKind
        invalidate = simulate(build(), SystemConfig("inv"))
        pure = simulate(build(), SystemConfig("pure", pure_update=True))
        assert (pure.os_miss_kind[MissKind.COHERENCE]
                <= invalidate.os_miss_kind[MissKind.COHERENCE])
        assert pure.updates_sent > 0

    def test_captured_bus_stats(self):
        b = TraceBuilder(1)
        for i in range(10):
            b.emit(0, rec.read(0x1000 + i * 0x1000))
        m = simulate(b.build(), SystemConfig("t"))
        assert m.bus_busy_cycles > 0
        assert m.bus_transactions.get("read_mem", 0) > 0
        assert 0.0 < m.bus_utilization() <= 1.0
