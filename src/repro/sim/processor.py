"""The in-order trace-driven processor model.

Each processor consumes its CPU's trace stream record by record.  For every
record it charges instruction execution and instruction-fetch stall, then
performs the data access along the path selected by the system
configuration — cached, prefetched, bypassed, or DMA for block operations —
and reports times and misses to the metrics layer.

Synchronization records interact with the shared lock table and barrier
manager; a processor that cannot make progress returns a blocked status and
the system scheduler advances simulated time for it.

Hot-path layout
---------------

:meth:`Processor.step` is the single hottest function in the repository —
it runs once per trace record across every experiment cell.  It therefore:

* reads each record's op, addr, mode, pc, icount and blockop from six
  parallel plain-int lists taken from the stream's columns
  (:meth:`StreamColumns.sim_lists
  <repro.trace.columns.StreamColumns.sim_lists>`), never from a
  :class:`~repro.trace.record.TraceRecord`: a trace is simulated without
  building one record object per reference.  The slow paths that need a
  whole record — L1 misses, block-op and Blk_Bypass accesses, locks,
  barriers, block-op markers — and the observers take it from
  :meth:`Processor.record`;
* resolves a *clean L1D hit* (line resident, no pending prefetch fill, no
  scheme-specific block-op handling) inline against the bound L1 frame
  index, without entering the :class:`CpuMemorySystem` call chain — the
  overwhelming majority of references in the paper's workloads are such
  hits (Table 2 reports low miss rates on every machine).  With a
  :class:`~repro.memsys.sink.Probe` attached the inline hit is skipped,
  so the probe sees every read;
* takes writes from :meth:`CpuMemorySystem.write` as a plain
  ``(done, stall)`` pair, the only part of a write the accounting reads;
* indexes the per-mode lists of :class:`~repro.sim.metrics.SystemMetrics`
  (``time``, ``reads``, ``writes``) with the raw mode int from the
  column, accumulating time components directly into the plain int
  fields of the mode's :class:`~repro.sim.metrics.TimeBreakdown`: no
  enum member is built, hashed or looked up per record;
* loads enum members only through module globals (``_RUNNING``,
  ``_READ``, and ``EXCLUSIVE`` from :mod:`repro.memsys.states`): on Python 3.11 every ``ProcStatus.RUNNING``-style
  class-attribute load goes through ``EnumType.__getattr__``'s slow
  path, about four times the cost of a module global.

Every shortcut must keep :meth:`SystemMetrics.snapshot` bit-identical to
the straightforward path; ``tests/test_fastpath_equivalence.py`` and the
golden-value tests enforce this.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.types import (DCLASS_BY_VALUE, MODE_BY_VALUE, Op,
                                OP_BY_VALUE, Scheme)
from repro.memsys.dma import run_dma
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.states import EXCLUSIVE, MODIFIED, SHARED
from repro.sim.config import SystemConfig
from repro.sim.metrics import SystemMetrics
from repro.sim.sync import BarrierManager, LockTable
from repro.trace.blockop import BlockOpDescriptor
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace

#: Cycles a spinning processor waits between lock retries.
SPIN_QUANTUM = 16

# Opcode values as plain ints: IntEnum members compare to ints at C speed,
# without the enum __eq__ dispatch.
_READ = int(Op.READ)
_WRITE = int(Op.WRITE)
_PREFETCH = int(Op.PREFETCH)
_LOCK_ACQ = int(Op.LOCK_ACQ)
_LOCK_REL = int(Op.LOCK_REL)
_BARRIER = int(Op.BARRIER)
_BLOCK_START = int(Op.BLOCK_START)
_BLOCK_END = int(Op.BLOCK_END)

# Enum members bound once: a class-attribute load off an enum is slow.
_PREF_SCHEME = Scheme.PREF
_BYPASS_SCHEME = Scheme.BYPASS
_BYPREF_SCHEME = Scheme.BYPREF
_DMA_SCHEME = Scheme.DMA


class ProcStatus(enum.Enum):
    RUNNING = "running"
    BLOCKED_LOCK = "blocked_lock"
    WAITING_BARRIER = "waiting_barrier"
    DONE = "done"


_RUNNING = ProcStatus.RUNNING
_BLOCKED_LOCK = ProcStatus.BLOCKED_LOCK
_WAITING_BARRIER = ProcStatus.WAITING_BARRIER
_DONE = ProcStatus.DONE


class StepResult:
    """Outcome of one :meth:`Processor.step` call."""

    __slots__ = ("status", "lock_addr", "barrier_release", "mode")

    def __init__(self, status: ProcStatus, lock_addr: int = 0,
                 barrier_release: Optional[Tuple[int, List[int]]] = None,
                 mode: Optional[int] = None) -> None:
        self.status = status
        self.lock_addr = lock_addr
        self.barrier_release = barrier_release
        #: Mode value of the blocking record (set for BLOCKED_LOCK results
        #: so the scheduler can attribute spin time without re-reading the
        #: stream).
        self.mode = mode


#: Shared results for the two allocation-heavy outcomes.  ``step`` returns
#: these for plain running/done steps; callers only read the fields.
_RESULT_RUNNING = StepResult(_RUNNING)
_RESULT_DONE = StepResult(_DONE)


class Processor:
    """One simulated CPU."""

    def __init__(self, cpu_id: int, trace: Trace, mem: CpuMemorySystem,
                 metrics: SystemMetrics, config: SystemConfig,
                 locks: LockTable, barriers: BarrierManager) -> None:
        self.cpu_id = cpu_id
        self._columns = trace.columns[cpu_id]
        (self._ops, self._addrs, self._modes, self._pcs, self._icounts,
         self._blockops) = self._columns.sim_lists()
        #: Records in this CPU's stream.
        self.num_records: int = len(self._ops)
        self.blockops = trace.blockops
        self.mem = mem
        self.metrics = metrics
        self.tracker = metrics.trackers[cpu_id]
        self.config = config
        self.locks = locks
        self.barriers = barriers
        self.pos = 0
        self.time = 0
        self.status = _RUNNING if self.num_records else _DONE
        self._blk_desc: Optional[BlockOpDescriptor] = None
        self._blk_last_src_line = -1
        self._barrier_rec: Optional[TraceRecord] = None
        #: Attached observer (:class:`~repro.memsys.sink.Probe`), or None.
        #: While one is attached every read takes the full
        #: :meth:`CpuMemorySystem.read` path, where the probe sees it.
        self.probe = None
        # --- hot-path bindings (all mutated in place by their owners) ---
        self._l1_where = mem.l1d.where
        self._l1_line_bytes = mem.l1d.line_bytes
        self._l1i_where = mem.l1i.where
        self._l1i_line_bytes = mem.l1i.line_bytes
        # An inline hit promotes exactly as the CpuMemorySystem path
        # would: through the shared hooks, None on 1-way caches.
        self._touch_l1d = mem._touch_l1d
        self._touch_l1i = mem._touch_l1i
        self._pending_ready = mem.pending.ready
        self._time = metrics.time
        self._reads = metrics.reads
        self._writes = metrics.writes
        # Scheme flags deciding when a block-op record may use the plain
        # cached fast path.  PREF/BYPREF reads need the lookahead-prefetch
        # side effects; BYPASS writes need the destination line register.
        scheme = config.scheme
        self._blk_read_plain = scheme not in (_PREF_SCHEME, _BYPREF_SCHEME)
        self._blk_write_plain = scheme != _BYPASS_SCHEME

    def record(self, pos: int) -> TraceRecord:
        """The :class:`TraceRecord` at stream position *pos*, built afresh
        from the stream's columns on every call (for the slow paths and
        the observers only)."""
        cols = self._columns
        return TraceRecord(
            OP_BY_VALUE[self._ops[pos]], self._addrs[pos],
            MODE_BY_VALUE[self._modes[pos]],
            DCLASS_BY_VALUE[cols.dclasses.item(pos)], self._pcs[pos],
            self._icounts[pos], self._blockops[pos], cols.sizes.item(pos),
            cols.args.item(pos))

    # ------------------------------------------------------------------
    # Scheduling interface
    # ------------------------------------------------------------------
    def wake_from_barrier(self, release_time: int) -> None:
        """Resume after a barrier episode completes."""
        if self.status != _WAITING_BARRIER:
            raise SimulationError(f"cpu {self.cpu_id} woken while not waiting")
        rec = self._barrier_rec
        assert rec is not None
        mode = rec.mode
        wait = max(0, release_time - self.time)
        self.metrics.add_time(mode, sync=wait)
        self.time = max(self.time, release_time)
        # Re-read the barrier word the releaser just wrote (the spin-exit
        # read): the invalidation protocol makes this a coherence miss.
        res = self.mem.read(rec.addr, self.time)
        self.metrics.record_read(self.cpu_id, rec, res, in_blockop=False)
        self.metrics.add_time(mode, exec_cycles=1, dread=res.stall,
                              pref=res.pref_stall)
        self.time = res.done
        self._barrier_rec = None
        self.status = _RUNNING

    # ------------------------------------------------------------------
    # Main step
    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Process the next record; returns the resulting status."""
        if self.status is not _RUNNING:
            raise SimulationError(f"step on {self.status} cpu {self.cpu_id}")
        pos = self.pos
        if pos >= self.num_records:
            self.status = _DONE
            return _RESULT_DONE
        op = self._ops[pos]

        # A held lock blocks *before* the record is consumed; the system
        # scheduler advances our clock (spinning) and retries.
        if op == _LOCK_ACQ:
            addr = self._addrs[pos]
            holder = self.locks.holder(addr)
            if holder is not None and holder != self.cpu_id:
                return StepResult(_BLOCKED_LOCK, lock_addr=addr,
                                  mode=self._modes[pos])

        self.pos = pos + 1
        mode = self._modes[pos]
        icount = self._icounts[pos]
        t = self.time

        # Instruction fetch and execution for this basic block.  The
        # whole-fetch-in-one-resident-L1I-line case (short basic blocks)
        # is resolved inline; anything else goes through the hierarchy.
        if icount:
            pc = self._pcs[pos]
            i_bytes = self._l1i_line_bytes
            iline = pc - pc % i_bytes
            if pc + 4 * icount <= iline + i_bytes and iline in self._l1i_where:
                istall = 0
                if self._touch_l1i is not None:
                    self._touch_l1i(iline)
            else:
                istall = self.mem.ifetch(pc, icount, t)
        else:
            istall = 0
        exec_cycles = icount
        t += icount + istall

        blk = self._blk_desc
        if op == _READ:
            addr = self._addrs[pos]
            line_bytes = self._l1_line_bytes
            line = addr - addr % line_bytes
            if ((blk is None or not self._blockops[pos]
                 or self._blk_read_plain)
                    and line in self._l1_where
                    and line not in self._pending_ready
                    and self.probe is None):
                # Clean L1D hit: one read for this mode, zero stall, one
                # cycle (MachineParams pins l1_hit_cycles to 1).
                self._reads[mode] += 1
                if self._touch_l1d is not None:
                    self._touch_l1d(line)
                exec_cycles += 1
                t += 1
            else:
                t, extra_exec = self._do_read(self.record(pos), t)
                exec_cycles += extra_exec
        elif op == _WRITE:
            exec_cycles += 1
            blockop = self._blockops[pos]
            if blk is None or not blockop or self._blk_write_plain:
                done, stall = self.mem.write(self._addrs[pos], t)
                self._writes[mode] += 1
                if blockop:
                    self.metrics.blk_write_stall += stall
                if stall:
                    self._time[mode].dwrite += stall
                t = done
            else:
                t = self._do_write(self.record(pos), t)
        elif op == _PREFETCH:
            self.mem.prefetch_line(self._addrs[pos], t)
            self.metrics.record_prefetch_issued()
        elif op == _LOCK_ACQ:
            t = self._do_lock_acquire(self.record(pos), t)
            exec_cycles += 2
        elif op == _LOCK_REL:
            t = self._do_lock_release(self.record(pos), t)
            exec_cycles += 1
        elif op == _BLOCK_START:
            t = self._do_block_start(self.record(pos), t)
        elif op == _BLOCK_END:
            t = self._do_block_end(self.record(pos), t)
        elif op == _BARRIER:
            return self._do_barrier(self.record(pos), t, exec_cycles,
                                    istall)
        else:  # pragma: no cover - enum is exhaustive
            raise SimulationError(f"unhandled op {op}")

        breakdown = self._time[mode]
        breakdown.exec_cycles += exec_cycles
        if istall:
            breakdown.imiss += istall
        # ``blk`` is the pre-step state: a BLOCK_START enters (and a
        # BLOCK_END leaves) block context during this very record, which
        # the opcode checks cover — matching the post-step condition the
        # accounting was defined with.
        if blk is not None or op == _BLOCK_START or op == _BLOCK_END:
            self.metrics.blk_instr_exec += exec_cycles + istall
        self.time = t
        if self.pos >= self.num_records:
            self.status = _DONE
            return _RESULT_DONE
        return _RESULT_RUNNING

    # ------------------------------------------------------------------
    # Data accesses
    # ------------------------------------------------------------------
    def _scheme(self) -> Scheme:
        return self.config.scheme

    def _do_read(self, rec: TraceRecord, t: int) -> Tuple[int, int]:
        """Perform a data read; returns (completion, extra exec cycles)."""
        mem = self.mem
        extra_exec = 1
        in_blockop = self._blk_desc is not None
        scheme = self._scheme()
        if (rec.blockop and in_blockop
                and scheme in (_PREF_SCHEME, _BYPREF_SCHEME)):
            extra_exec += self._lookahead_prefetch(rec, t)
        if (rec.blockop and in_blockop
                and scheme in (_BYPASS_SCHEME, _BYPREF_SCHEME)):
            res = mem.read_bypass(rec.addr, t)
        else:
            res = mem.read(rec.addr, t)
        self.metrics.record_read(self.cpu_id, rec, res, in_blockop)
        self.metrics.add_time(rec.mode, dread=res.stall, pref=res.pref_stall)
        return res.done, extra_exec

    def _do_write(self, rec: TraceRecord, t: int) -> int:
        """Blk_Bypass destination write (``step`` takes every other write)."""
        res = self.mem.write_bypass(rec.addr, t)
        self.metrics.record_write(self.cpu_id, rec, res.stall, True)
        self.metrics.add_time(rec.mode, dwrite=res.stall)
        return res.done

    def _lookahead_prefetch(self, rec: TraceRecord, t: int) -> int:
        """Software-pipelined source prefetch for Blk_Pref / Blk_ByPref.

        On each new source line, prefetch the line ``lead`` lines ahead.
        Returns the instruction overhead (one prefetch instruction).
        """
        desc = self._blk_desc
        assert desc is not None
        if not desc.is_copy or not desc.contains_src(rec.addr):
            return 0
        line_bytes = self.mem.machine.l1d.line_bytes
        line = rec.addr - (rec.addr % line_bytes)
        if line == self._blk_last_src_line:
            return 0
        self._blk_last_src_line = line
        target = line + self._pref_lead() * line_bytes
        if not desc.contains_src(target):
            return 0
        self._issue_block_prefetch(target, t)
        return 1

    def _pref_lead(self) -> int:
        """Software-pipelining depth for the active block-op scheme."""
        if self._scheme() == _BYPREF_SCHEME:
            return self.config.bypref_lead_lines
        return self.config.pref_lead_lines

    def _issue_block_prefetch(self, addr: int, t: int) -> None:
        if self._scheme() == _BYPREF_SCHEME:
            self.mem.prefetch_into_buffer(addr, t)
        else:
            self.mem.prefetch_line(addr, t)
        self.metrics.record_prefetch_issued()

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def _do_block_start(self, rec: TraceRecord, t: int) -> int:
        desc = self.blockops.get(rec.blockop)
        probe = self.probe
        if probe is not None:
            probe.block_begin(self.cpu_id, t, desc)
        self._measure_block_start(desc)
        scheme = self._scheme()
        if scheme == _DMA_SCHEME:
            # The engine runs the whole operation and swallows its word
            # records, BLOCK_END included.
            done = self._do_block_dma(rec, desc, t)
            if probe is not None:
                probe.block_end(self.cpu_id, done)
            return done
        self._blk_desc = desc
        self._blk_last_src_line = -1
        self.mem.in_blockop = True
        self.mem.bypass_l2_wide = scheme == _BYPREF_SCHEME
        self.tracker.in_blockop = True
        if scheme in (_PREF_SCHEME, _BYPREF_SCHEME) and desc.is_copy:
            # Prolog: prefetch the first `lead` source lines back-to-back.
            line_bytes = self.mem.machine.l1d.line_bytes
            for i in range(self._pref_lead()):
                addr = desc.src + i * line_bytes
                if not desc.contains_src(addr):
                    break
                self._issue_block_prefetch(addr, t)
                t += 1
                self.metrics.add_time(rec.mode, exec_cycles=1)
        return t

    def _do_block_dma(self, rec: TraceRecord, desc: BlockOpDescriptor,
                      t: int) -> int:
        """Run the operation on the DMA engine and skip its word records."""
        result = run_dma(self.mem, desc, t)
        stall = result.done - t
        self.metrics.record_dma(stall)
        # The paper assigns the whole DMA stall to D Read Miss.
        self.metrics.add_time(rec.mode, dread=stall)
        self.metrics.record_block_exec(stall)
        # Skip the word-level records; the engine replaced them.
        ops = self._ops
        while self.pos < self.num_records:
            op = ops[self.pos]
            self.pos += 1
            if op == _BLOCK_END:
                break
        else:
            raise SimulationError(
                f"cpu {self.cpu_id}: block op {desc.op_id} missing BLOCK_END")
        return result.done

    def _do_block_end(self, rec: TraceRecord, t: int) -> int:
        stall = self.mem.end_block_op(t)
        if stall:
            self.metrics.add_time(rec.mode, dwrite=stall)
        self._blk_desc = None
        self._blk_last_src_line = -1
        self.mem.in_blockop = False
        self.tracker.in_blockop = False
        if self.probe is not None:
            self.probe.block_end(self.cpu_id, t + stall)
        return t + stall

    def _measure_block_start(self, desc: BlockOpDescriptor) -> None:
        """Table 3 instrumentation: line residency right before the op."""
        mem = self.mem
        l1_bytes = mem.machine.l1d.line_bytes
        l2_bytes = mem.machine.l2.line_bytes
        src_cached = src_total = 0
        if desc.is_copy:
            addr = desc.src - (desc.src % l1_bytes)
            while addr < desc.src + desc.size:
                src_total += 1
                if mem.l1d.present(addr):
                    src_cached += 1
                addr += l1_bytes
        dst_owned = dst_shared = dst_total = 0
        addr = desc.dst - (desc.dst % l2_bytes)
        while addr < desc.dst + desc.size:
            dst_total += 1
            state = mem.l2.state_of(addr)
            if state in (EXCLUSIVE, MODIFIED):
                dst_owned += 1
            elif state == SHARED:
                dst_shared += 1
            addr += l2_bytes
        self.metrics.record_block_start(self.cpu_id, desc, src_cached,
                                        src_total, dst_owned, dst_shared,
                                        dst_total)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def _do_lock_acquire(self, rec: TraceRecord, t: int) -> int:
        mode = rec.mode
        ok, grant = self.locks.try_acquire(rec.addr, self.cpu_id, t)
        if not ok:  # pragma: no cover - step() checked before consuming
            raise SimulationError("lock acquired while held")
        if grant > t:
            self.metrics.add_time(mode, sync=grant - t)
            t = grant
        # The RMW on the lock word: read (possibly a coherence miss on a
        # lock previously held elsewhere) then write (invalidates sharers).
        res = self.mem.read(rec.addr, t)
        self.metrics.record_read(self.cpu_id, rec, res,
                                 self._blk_desc is not None)
        self.metrics.add_time(mode, dread=res.stall, pref=res.pref_stall)
        done, stall = self.mem.write(rec.addr, res.done)
        self.metrics.record_write(self.cpu_id, rec, stall, False)
        self.metrics.add_time(mode, dwrite=stall)
        return done

    def _do_lock_release(self, rec: TraceRecord, t: int) -> int:
        mode = rec.mode
        # Release consistency: all buffered writes drain first.
        drained = self.mem.drain_writes(t)
        if drained > t:
            self.metrics.add_time(mode, dwrite=drained - t)
            t = drained
        done, stall = self.mem.write(rec.addr, t)
        self.metrics.record_write(self.cpu_id, rec, stall, False)
        self.metrics.add_time(mode, dwrite=stall)
        self.locks.release(rec.addr, self.cpu_id, done)
        return done

    def _do_barrier(self, rec: TraceRecord, t: int, exec_cycles: int,
                    istall: int) -> StepResult:
        mode = rec.mode
        drained = self.mem.drain_writes(t)
        if drained > t:
            self.metrics.add_time(mode, dwrite=drained - t)
            t = drained
        # Arrival: read-modify-write of the barrier word.
        res = self.mem.read(rec.addr, t)
        self.metrics.record_read(self.cpu_id, rec, res, False)
        self.metrics.add_time(mode, dread=res.stall, pref=res.pref_stall)
        t, stall = self.mem.write(rec.addr, res.done)
        self.metrics.record_write(self.cpu_id, rec, stall, False)
        self.metrics.add_time(mode, dwrite=stall,
                              exec_cycles=exec_cycles + 2, imiss=istall)
        self.time = t
        outcome = self.barriers.arrive(rec.addr, rec.arg, self.cpu_id, t)
        if outcome is None:
            self._barrier_rec = rec
            self.status = _WAITING_BARRIER
            return StepResult(_WAITING_BARRIER)
        release, waiters = outcome
        self.metrics.add_time(mode, sync=max(0, release - t))
        self.time = max(t, release)
        if self.pos >= self.num_records:
            self.status = _DONE
            return StepResult(_DONE, barrier_release=outcome)
        return StepResult(_RUNNING, barrier_release=outcome)
