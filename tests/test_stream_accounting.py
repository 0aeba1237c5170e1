"""Once-per-stream accounting against a per-record reference.

A processor tallies what its trace alone fixes — per-mode execution
cycles, READ and WRITE counts, and the execution part of
``blk_instr_exec`` — over its stream's columns when it is built, and
folds the tallies into the metrics once, when it reaches DONE; under
Blk_Dma the records the engine swallows are taken back out.  These tests
hold every fold to a plain loop over the columns that charges each
record the way a per-record accounting would, honouring the DMA skips,
and check that every DONE transition folds exactly once.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.tables import MACHINE_POINTS, machine_point
from repro.common.errors import SimulationError
from repro.common.types import DataClass, Mode, Op, Scheme
from repro.memsys.sink import Probe
from repro.sim.config import SystemConfig, all_configs, resolve_config
from repro.sim.processor import Processor, ProcStatus
from repro.sim.system import MultiprocessorSystem
from repro.trace import record
from repro.trace.stream import TraceBuilder

#: Execution cycles each opcode adds to its record's ``icount``.
OP_EXEC = {Op.READ: 1, Op.WRITE: 1, Op.PREFETCH: 0, Op.LOCK_ACQ: 2,
           Op.LOCK_REL: 1, Op.BARRIER: 2, Op.BLOCK_START: 0,
           Op.BLOCK_END: 0}

SHARED = 0x50000
LOCKS = (0x9000, 0x9040)
BARRIER = 0xA000
BLK_AREA = 0x200000


def reference_tally(columns, dma: bool):
    """``(exec_cycles, reads, writes, blk)`` of one stream, charged
    record by record: the engine of Blk_Dma skips a block operation's
    records after its BLOCK_START, BLOCK_END included."""
    ops = columns.ops.tolist()
    modes = columns.modes.tolist()
    icounts = columns.icounts.tolist()
    exec_cycles, reads, writes = ([0] * len(Mode) for _ in range(3))
    blk = 0
    in_block = False
    pos = 0
    while pos < len(ops):
        op, mode = ops[pos], modes[pos]
        cycles = icounts[pos] + OP_EXEC[op]
        exec_cycles[mode] += cycles
        reads[mode] += op == Op.READ
        writes[mode] += op == Op.WRITE
        if ((in_block or op in (Op.BLOCK_START, Op.BLOCK_END))
                and op != Op.BARRIER):
            blk += cycles
        if op == Op.BLOCK_START and dma:
            pos = ops.index(Op.BLOCK_END, pos) + 1
            continue
        if op == Op.BLOCK_START:
            in_block = True
        elif op == Op.BLOCK_END:
            in_block = False
        pos += 1
    return exec_cycles, reads, writes, blk


class AccessCounter(Probe):
    """Counts the reads and writes the memory system reports, each
    exactly once: a bypass access that falls back to the cached path is
    reported by that path only."""

    def __init__(self):
        self.reads = self.writes = 0

    def read(self, cpu, addr, t, res):
        self.reads += 1

    def read_bypass(self, cpu, addr, t, res):
        self.reads += 1

    def write_end(self, cpu, addr, t, done, stall):
        self.writes += 1

    def write_bypass(self, cpu, addr, t, res):
        self.writes += 1


def record_folds(system):
    """Swap in a processor subclass that records what each fold adds:
    cpu -> list of ``(exec_cycles, reads, writes, blk)``."""
    folds = {}

    class Recording(Processor):
        __slots__ = ()

        def _fold(self):
            assert self.status is not ProcStatus.DONE
            folds.setdefault(self.cpu_id, []).append(
                (list(self._exec_due), list(self._reads_due),
                 list(self._writes_due), self._blk_due))
            Processor._fold(self)
            assert self.status is ProcStatus.DONE

    for proc in system.processors:
        proc.__class__ = Recording
    return folds


def check_folds(system, folds):
    """Every non-empty stream folded once, the reference tally."""
    dma = system.config.scheme is Scheme.DMA
    for proc in system.processors:
        cols = system.trace.columns[proc.cpu_id]
        if not proc.num_records:
            assert proc.cpu_id not in folds
            continue
        assert folds[proc.cpu_id] == [reference_tally(cols, dma)], \
            proc.cpu_id
        assert proc.status is ProcStatus.DONE


def random_trace(seed: int, num_cpus: int):
    """Reads, writes and prefetches in all three modes, locks, block
    copies and zeros (some with a lock or a prefetch inside), barriers
    in the middle and at the end of every stream."""
    rng = random.Random(seed)
    builder = TraceBuilder(num_cpus)
    mid_barriers = [0] * num_cpus
    for cpu in range(num_cpus):
        private = 0x100000 + cpu * 0x10000
        for _ in range(rng.randint(30, 60)):
            roll = rng.random()
            pool = SHARED if rng.random() < 0.4 else private
            addr = pool + 4 * rng.randrange(64)
            mode = rng.choice(list(Mode))
            pc = 0x1000 + 16 * rng.randrange(12)
            icount = rng.randint(0, 6)
            if roll < 0.35:
                builder.emit(cpu, record.read(addr, mode=mode, pc=pc,
                                              icount=icount,
                                              dclass=DataClass.BUFFER))
            elif roll < 0.6:
                builder.emit(cpu, record.write(addr, mode=mode, pc=pc,
                                               icount=icount,
                                               dclass=DataClass.BUFFER))
            elif roll < 0.68:
                builder.emit(cpu, record.prefetch(addr, mode=mode, pc=pc))
            elif roll < 0.8:
                lock = rng.choice(LOCKS)
                builder.emit(cpu, record.lock_acquire(lock, mode=mode))
                builder.emit(cpu, record.read(SHARED + 4 * rng.randrange(16),
                                              mode=mode, pc=pc))
                builder.emit(cpu, record.lock_release(lock, mode=mode))
            elif roll < 0.88:
                builder.emit_block_copy(cpu, BLK_AREA,
                                        BLK_AREA + 0x8000 + cpu * 0x2000,
                                        size=32 * rng.randint(1, 4),
                                        mode=mode, pc=pc)
            elif roll < 0.93:
                builder.emit_block_zero(cpu, BLK_AREA + 0x10000 + cpu * 0x2000,
                                        size=32 * rng.randint(1, 3),
                                        mode=mode, pc=pc)
            elif roll < 0.97:
                _emit_block_with_sync(builder, cpu, rng, mode, pc)
            else:
                builder.emit(cpu, record.barrier(BARRIER + 0x40, num_cpus,
                                                 mode=mode))
                mid_barriers[cpu] += 1
    for cpu in range(num_cpus):
        # Every CPU arrives at the mid-stream barrier equally often.
        for _ in range(max(mid_barriers) - mid_barriers[cpu]):
            builder.emit(cpu, record.barrier(BARRIER + 0x40, num_cpus))
        builder.emit(cpu, record.barrier(BARRIER, num_cpus))
    return builder.build()


def _emit_block_with_sync(builder, cpu, rng, mode, pc):
    """A hand-built block copy whose word loop also takes a lock and
    issues a software prefetch."""
    src, dst = BLK_AREA + 0x20000, BLK_AREA + 0x28000 + cpu * 0x1000
    desc = builder.blockops.new_copy(src, dst, 16, pc)
    builder.emit(cpu, record.block_start(desc.op_id, mode=mode, pc=pc))
    for off in range(0, 16, 4):
        builder.emit(cpu, record.read(src + off, mode=mode, pc=pc, icount=2,
                                      blockop=desc.op_id))
        if off == 4:
            lock = rng.choice(LOCKS)
            builder.emit(cpu, record.lock_acquire(lock, mode=mode))
            builder.emit(cpu, record.lock_release(lock, mode=mode))
            builder.emit(cpu, record.prefetch(src + 64, mode=mode, pc=pc))
        builder.emit(cpu, record.write(dst + off, mode=mode, pc=pc,
                                       icount=1, blockop=desc.op_id))
    builder.emit(cpu, record.block_end(desc.op_id, mode=mode, pc=pc))


POINTS = [label for label, *_rest in MACHINE_POINTS]
MACHINES = {label: machine_point(*rest) for label, *rest in MACHINE_POINTS}


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("scheme", sorted(all_configs()))
def test_folds_match_reference_on_random_traces(scheme, point):
    """All eleven schemes on all four machine points: each CPU folds
    once, exactly the reference tally, and the run's read and write
    totals are the accesses the memory system reported."""
    config = resolve_config(scheme, MACHINES[point])
    for seed in (1, 2, 3):
        trace = random_trace(seed, num_cpus=3)
        system = MultiprocessorSystem(trace, config, check=False)
        folds = record_folds(system)
        counter = AccessCounter()
        system.attach(counter)
        metrics = system.run()
        check_folds(system, folds)
        assert sum(metrics.reads) == counter.reads
        assert sum(metrics.writes) == counter.writes
        # A probe changes no metric.
        plain = MultiprocessorSystem(trace, config, check=False).run()
        assert plain.snapshot() == metrics.snapshot()


def _run(trace, config):
    system = MultiprocessorSystem(trace, config, check=False)
    folds = record_folds(system)
    metrics = system.run()
    check_folds(system, folds)
    return metrics, folds


def test_dma_swallowed_records_charge_no_execution():
    """Under Blk_Dma the word records and the BLOCK_END of a block op
    charge no execution cycles, reads, writes or ``blk_instr_exec``;
    the BLOCK_START charges its instructions."""
    b = TraceBuilder(1)
    b.emit(0, record.read(0x1000, pc=0x100, icount=3))
    # The block op runs from the read's resident code line: no I-stall.
    b.emit_block_copy(0, BLK_AREA, BLK_AREA + 0x8000, size=64, pc=0x100)
    b.emit(0, record.write(0x1004, pc=0x100, icount=5))
    trace = b.build()
    configs = all_configs()
    dma, dma_folds = _run(trace, configs["Blk_Dma"])
    assert dma_folds[0] == [([0, 4 + 2 + 6, 0], [0, 1, 0], [0, 1, 0], 2)]
    base, base_folds = _run(trace, configs["Base"])
    # 16 words of 2 + 1 instructions plus a read and a write each, the
    # markers' 2 + 2.
    assert base_folds[0] == [([0, 12 + 16 * 5 + 2, 0], [0, 17, 0],
                              [0, 17, 0], 16 * 5 + 4)]
    assert dma.dma_ops == 1 and base.dma_ops == 0
    assert dma.reads[Mode.OS] == 1 and dma.writes[Mode.OS] == 1
    # The DMA stall is the rest of blk_instr_exec.
    assert dma.blk_instr_exec == 2 + dma.dma_stall


def test_blocked_lock_acquire_charges_once():
    """A LOCK_ACQ that finds the lock held returns before consuming the
    record, spins and retries: its execution is charged once."""
    b = TraceBuilder(2)
    lock = LOCKS[0]
    b.emit(0, record.lock_acquire(lock))
    for i in range(6):
        b.emit(0, record.read(0x100000 + 64 * i, pc=0x100, icount=2))
    b.emit(0, record.lock_release(lock))
    b.emit(1, record.read(0x110000, pc=0x300))
    b.emit(1, record.lock_acquire(lock))
    b.emit(1, record.lock_release(lock))
    metrics, folds = _run(b.build(), SystemConfig("t"))
    assert metrics.lock_contended > 0
    assert folds[1] == [([0, 2 + 4 + 2 + 2 + 1, 0], [0, 1, 0], [0, 0, 0],
                         0)]
    # The lock word accesses are counted as they happen: one read and
    # one write per acquire, one write per release.
    assert metrics.reads[Mode.OS] == 7 + 2
    assert metrics.writes[Mode.OS] == 2 * 2


def test_barrier_as_last_record_folds_once():
    """The CPU that completes a closing barrier folds in the barrier
    step; one that waited folds on the step after its wake-up."""
    b = TraceBuilder(2)
    b.emit(0, record.read(0x1000, pc=0x100, icount=2))
    for _ in range(4):
        b.emit(1, record.read(0x2000, pc=0x200, icount=9))
    for cpu in range(2):
        b.emit(cpu, record.barrier(BARRIER, 2))
    system = MultiprocessorSystem(b.build(), SystemConfig("t"), check=False)
    folds = record_folds(system)
    metrics = system.run()
    check_folds(system, folds)
    assert metrics.barrier_episodes == 1
    assert folds[0] == [([0, 3 + 8, 0], [0, 1, 0], [0, 0, 0], 0)]
    # The waiter re-reads the barrier word once after the release.
    assert metrics.time[Mode.OS].exec_cycles == 3 + 8 + 4 * 10 + 8 + 1


def test_processor_stepped_to_done_by_hand_folds():
    """A processor stepped without ``run()`` charges its stream's
    execution when its last record completes, and only then."""
    b = TraceBuilder(1)
    b.emit(0, record.read(0x1000, mode=Mode.USER, pc=0x100, icount=4))
    b.emit(0, record.write(0x1000, mode=Mode.OS, pc=0x100, icount=2))
    b.emit(0, record.read(0x1004, mode=Mode.OS, pc=0x100, icount=1))
    system = MultiprocessorSystem(b.build(), SystemConfig("t"), check=False)
    folds = record_folds(system)
    proc, metrics = system.processors[0], system.metrics
    proc.step()
    proc.step()
    assert sum(tb.exec_cycles for tb in metrics.time) == 0
    assert metrics.reads == [0, 0, 0]
    assert proc.step().status is ProcStatus.DONE
    check_folds(system, folds)
    assert [tb.exec_cycles for tb in metrics.time] == [5, 5, 0]
    assert metrics.reads == [1, 1, 0] and metrics.writes == [0, 1, 0]
    assert proc._exec_due == () and proc._blk_due == 0
    with pytest.raises(SimulationError):
        proc.step()


def test_empty_stream_never_folds():
    """A CPU with no records starts DONE and has nothing to fold."""
    b = TraceBuilder(2)
    b.emit(0, record.read(0x1000, icount=2))
    metrics, folds = _run(b.build(), SystemConfig("t"))
    assert list(folds) == [0]
    assert metrics.time[Mode.OS].exec_cycles == 3
