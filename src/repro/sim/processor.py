"""The in-order trace-driven processor model.

Each processor consumes its CPU's trace stream record by record.  For every
record it charges instruction-fetch stall, then performs the data access
along the path selected by the system configuration — cached, prefetched,
bypassed, or DMA for block operations — and reports times and misses to
the metrics layer.

What the trace alone fixes is counted once per stream, not per record.
:class:`Processor` tallies three things over its stream's columns with
numpy when it is built (:func:`_tally`):

* the per-mode execution cycles: each record's ``icount`` plus 1 per
  READ, WRITE and LOCK_REL and 2 per LOCK_ACQ and BARRIER;
* the per-mode READ and WRITE record counts;
* the execution part of ``blk_instr_exec``: the same cycles of every
  record from a BLOCK_START through its BLOCK_END, barriers excluded.

It adds them to :class:`~repro.sim.metrics.SystemMetrics` once, when it
reaches DONE (:meth:`Processor._fold`).  Under Blk_Dma the engine
swallows a block operation's word records and its BLOCK_END, and
:meth:`Processor._swallow` takes their share back out, so they charge
no execution.  Per record, :meth:`Processor.step` charges only what
timing decides: the I-stall (at the fetch), the D-read, Pref and
D-write stalls, the lookahead and prolog prefetch instructions of
Blk_Pref and Blk_ByPref, synchronization waits, and the lock and
barrier word accesses (:meth:`SystemMetrics.record_read
<repro.sim.metrics.SystemMetrics.record_read>` and ``record_write``).

Synchronization records interact with the shared lock table and barrier
manager; a processor that cannot make progress returns a blocked status and
the system scheduler advances simulated time for it.

Hot-path layout
---------------

:meth:`Processor.step` is the single hottest function in the repository —
it runs once per trace record across every experiment cell.  It therefore:

* reads attributes that live in slots: :class:`Processor`,
  :class:`~repro.sim.metrics.SystemMetrics`, :class:`CpuMemorySystem`
  and the bus, coherence, write-buffer, pending-fill and miss-tracker
  objects behind them declare ``__slots__``, so no ``self.x`` on the
  per-record path probes an instance dict;
* reads each record's op, addr, mode, pc, icount and blockop from six
  parallel plain-int lists taken from the stream's columns
  (:meth:`StreamColumns.sim_lists
  <repro.trace.columns.StreamColumns.sim_lists>`), never from a
  :class:`~repro.trace.record.TraceRecord`.  The slow paths — L1 misses,
  block-op and Blk_Bypass accesses, locks, barriers, block-op markers —
  read the same lists, plus the data class (only on a miss) and the
  barrier width straight from their columns, so no processor path
  builds a record; :meth:`Processor.record` is for the observers only;
* resolves an instruction fetch whose every L1I line is resident inline,
  with one frame-index probe per spanned line and, on set-associative
  caches, each line whose recency rank is non-zero promoted in order; a
  fetch with any line absent goes to :meth:`CpuMemorySystem.ifetch` with
  no line touched.  Each CPU remembers the last span such a walk found
  resident, with the cache's :attr:`~repro.memsys.cache.Cache.removals`
  count at the time; a fetch inside that span, with no line removed and
  no ``ifetch`` since, skips the walk.  Each line of the span is then
  still its set's most recently used, so the walk would promote
  nothing.  Every ``ifetch`` clears the memo: a fill into an empty way
  removes no line but demotes the remembered line of its set;
* resolves a *clean L1D hit* (line resident, no pending prefetch fill, no
  scheme-specific block-op handling) inline against the bound L1 frame
  index, without entering the :class:`CpuMemorySystem` call chain, and
  promotes the frame only on a set-associative L1D and only when its
  rank is non-zero — the overwhelming majority of references in the
  paper's workloads are such hits (Table 2 reports low miss rates on
  every machine).  Under Blk_Pref and Blk_ByPref a block-copy read of
  the source line the lookahead prefetcher last handled takes the same
  inline hit: it has no prefetch to issue, and a bypassing read of a
  resident line is the cached read.  With a
  :class:`~repro.memsys.sink.Probe` attached the inline hit is skipped,
  so the probe sees every read;
* resolves a *clean write* (L1D hit, L2 line EXCLUSIVE or MODIFIED, a
  free WB1 slot) inline as well: the L1D and L2 frames are promoted
  when their rank is non-zero, the L2 line turns MODIFIED, and the
  word's WB1 entry drains into it — the side effects
  :meth:`CpuMemorySystem.write` has, at one cycle and no stall.  Clean
  writes are most of the writes; the rest, and every write while a
  probe is attached, go to :meth:`CpuMemorySystem.write`, which returns
  a plain ``(done, stall)`` pair, the only part of a write the
  accounting reads;
* indexes the per-mode ``time`` list of
  :class:`~repro.sim.metrics.SystemMetrics` with the raw mode int from
  the column, accumulating stalls directly into the plain int fields of
  the mode's :class:`~repro.sim.metrics.TimeBreakdown`, on the slow
  paths too: no enum member is built, hashed or looked up per record,
  and no keyword call charges time;
* loads enum members only through module globals (``_RUNNING``,
  ``_READ``, and ``EXCLUSIVE`` and ``MODIFIED`` from
  :mod:`repro.memsys.states`): on Python 3.11 every
  ``ProcStatus.RUNNING``-style class-attribute load goes through
  ``EnumType.__getattr__``'s slow path, about four times the cost of a
  module global.

Every shortcut must keep :meth:`SystemMetrics.snapshot` bit-identical to
the straightforward path; ``tests/test_fastpath_equivalence.py`` and the
golden-value tests enforce this.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

import numpy as np

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

#: Execution cycles each opcode adds to its record's ``icount``: the
#: data access of a READ, WRITE or LOCK_REL, the read-modify-write of a
#: LOCK_ACQ or BARRIER arrival.
_OP_EXEC = np.zeros(max(Op) + 1, dtype=np.int8)
_OP_EXEC[[_READ, _WRITE, _LOCK_REL]] = 1
_OP_EXEC[[_LOCK_ACQ, _BARRIER]] = 2

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


def _tally(ops: np.ndarray, modes: np.ndarray, icounts: np.ndarray,
           in_block, num_modes: int
           ) -> Tuple[List[int], List[int], List[int], int]:
    """What the records of the given columns charge whatever the timing:
    per-mode execution cycles, per-mode READ and WRITE counts, and the
    execution cycles of the records the mask *in_block* marks (True:
    all), barriers excluded (their ``blk_instr_exec`` share).

    Every temporary is a byte per record: the sums read the columns
    through masks instead of copying them.
    """
    op_exec = _OP_EXEC[ops]

    def cycles(mask) -> int:
        return (int(icounts.sum(where=mask))
                + int(op_exec.sum(where=mask, dtype=np.int64)))

    is_read = ops == _READ
    is_write = ops == _WRITE
    exec_cycles, reads, writes = [], [], []
    for m in range(num_modes):
        mask = modes == m
        exec_cycles.append(cycles(mask))
        reads.append(int(np.count_nonzero(mask & is_read)))
        writes.append(int(np.count_nonzero(mask & is_write)))
    return exec_cycles, reads, writes, cycles(in_block & (ops != _BARRIER))


def _block_context(ops: np.ndarray) -> np.ndarray:
    """Mask of the records a processor runs inside a block operation:
    every BLOCK_START and BLOCK_END, and the records after a BLOCK_START
    up to the next marker (or the end of the stream)."""
    starts = ops == _BLOCK_START
    markers = starts | (ops == _BLOCK_END)
    marks = np.flatnonzero(markers)
    opened = starts[marks]
    # Each interval (start, next marker] adds 1 from its first record
    # on and takes it back after its last; the intervals are disjoint.
    edges = np.zeros(len(ops) + 1, dtype=np.int8)
    edges[marks[opened] + 1] += 1
    edges[np.append(marks[1:], len(ops) - 1)[opened] + 1] -= 1
    return (np.cumsum(edges[:-1], dtype=np.int8) > 0) | markers


#: Shared results for the two allocation-heavy outcomes.  ``step`` returns
#: these for plain running/done steps; callers only read the fields.
_RESULT_RUNNING = StepResult(_RUNNING)
_RESULT_DONE = StepResult(_DONE)


class Processor:
    """One simulated CPU."""

    __slots__ = ("cpu_id", "_columns", "_ops", "_addrs", "_modes", "_pcs",
                 "_icounts", "_blockops", "num_records", "blockops", "mem",
                 "metrics", "tracker", "config", "locks", "barriers", "pos",
                 "time", "status", "_blk_desc", "_blk_last_src_line",
                 "_barrier_pos", "probe", "_l1_where", "_l1_line_bytes",
                 "_l1d_ranks", "_promote_l1d", "_l2_where", "_l2_line_bytes",
                 "_l2_states", "_l2_ranks", "_promote_l2", "_wb1",
                 "_wb1_entries", "_wb1_depth", "_wb1_drain", "_l1i",
                 "_l1i_where",
                 "_l1i_line_bytes", "_l1i_ranks", "_promote_l1i",
                 "_imemo_bytes", "_ifirst", "_iend", "_iremovals",
                 "_pending_ready", "_time", "_reads", "_writes",
                 "_exec_due", "_reads_due", "_writes_due", "_blk_due",
                 "_blk_read_plain", "_blk_read_bypass", "_blk_write_plain",
                 "_blk_dma", "_blk_bypref", "_pref_lead_lines",
                 "_block_prefetch")

    def __init__(self, cpu_id: int, trace: Trace, mem: CpuMemorySystem,
                 metrics: SystemMetrics, config: SystemConfig,
                 locks: LockTable, barriers: BarrierManager) -> None:
        self.cpu_id = cpu_id
        self._columns = cols = trace.columns[cpu_id]
        # What the stream charges whatever the timing, folded into the
        # metrics when this CPU reaches DONE.  Tallied before the lists
        # are taken, so their first conversion can reuse the memory the
        # tally's temporaries freed instead of raising the peak.
        (self._exec_due, self._reads_due, self._writes_due,
         self._blk_due) = _tally(cols.ops, cols.modes, cols.icounts,
                                 _block_context(cols.ops), len(metrics.reads))
        (self._ops, self._addrs, self._modes, self._pcs, self._icounts,
         self._blockops) = cols.sim_lists()
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
        #: Stream position of the barrier record this CPU waits at, or -1.
        self._barrier_pos = -1
        #: Attached observer (:class:`~repro.memsys.sink.Probe`), or None.
        #: While one is attached every read takes the full
        #: :meth:`CpuMemorySystem.read` path, where the probe sees it.
        self.probe = None
        # --- hot-path bindings (all mutated in place by their owners) ---
        l1d, l1i = mem.l1d, mem.l1i
        self._l1_where = l1d.where
        self._l1_line_bytes = l1d.line_bytes
        self._l1i = l1i
        self._l1i_where = l1i.where
        self._l1i_line_bytes = l1i.line_bytes
        # An inline hit promotes exactly as the CpuMemorySystem path
        # would: only on a set-associative cache (the promote hooks are
        # None on 1-way ones) and only a frame whose rank is non-zero.
        self._l1d_ranks = l1d.ranks
        self._promote_l1d = None if mem._touch_l1d is None else l1d.promote
        self._l1i_ranks = l1i.ranks
        self._promote_l1i = None if mem._touch_l1i is None else l1i.promote
        # The inline clean write: the L2 frame index and states, and WB1.
        l2, wb1 = mem.l2, mem.wb1
        self._l2_where = l2.where
        self._l2_line_bytes = l2.line_bytes
        self._l2_states = l2.states
        self._l2_ranks = l2.ranks
        self._promote_l2 = l2.promote
        self._wb1 = wb1
        self._wb1_entries = wb1._entries
        self._wb1_depth = wb1.depth
        self._wb1_drain = mem.machine.write_buffers.l1_drain_cycles
        # The fetch memo: lines [_ifirst, _iend) were all resident, each
        # its set's MRU line, when the L1I had removed _iremovals lines.
        # A span remembers at most one line per set, _imemo_bytes.
        self._imemo_bytes = l1i.num_sets * l1i.line_bytes
        self._ifirst = self._iend = 0
        self._iremovals = -1
        self._pending_ready = mem.pending.ready
        self._time = metrics.time
        self._reads = metrics.reads
        self._writes = metrics.writes
        # Scheme flags deciding when a block-op record may use the plain
        # cached fast path.  PREF/BYPREF reads need the lookahead-prefetch
        # side effects; BYPASS writes need the destination line register.
        scheme = config.scheme
        self._blk_read_plain = scheme not in (_PREF_SCHEME, _BYPREF_SCHEME)
        self._blk_read_bypass = scheme in (_BYPASS_SCHEME, _BYPREF_SCHEME)
        self._blk_write_plain = scheme != _BYPASS_SCHEME
        self._blk_dma = scheme == _DMA_SCHEME
        self._blk_bypref = scheme == _BYPREF_SCHEME
        # Blk_Pref / Blk_ByPref source prefetch: its software-pipelining
        # depth and where a prefetched line goes.
        if self._blk_bypref:
            self._pref_lead_lines = config.bypref_lead_lines
            self._block_prefetch = mem.prefetch_into_buffer
        else:
            self._pref_lead_lines = config.pref_lead_lines
            self._block_prefetch = mem.prefetch_line

    def record(self, pos: int) -> TraceRecord:
        """The :class:`TraceRecord` at stream position *pos*, built afresh
        from the stream's columns on every call, for the observers only:
        the tracer, the timeline recorder and the checker.  No path of
        the simulation itself calls it."""
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
        pos = self._barrier_pos
        breakdown = self._time[self._modes[pos]]
        breakdown.sync += max(0, release_time - self.time)
        self.time = max(self.time, release_time)
        # Re-read the barrier word the releaser just wrote (the spin-exit
        # read): the invalidation protocol makes this a coherence miss.
        breakdown.exec_cycles += 1
        self.time = self._sync_read(pos, self.time, False)
        self._barrier_pos = -1
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
            self._fold()
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

        # Instruction fetch for this basic block (its execution cycles
        # are counted per stream).  A fetch whose every L1I line is
        # resident stalls 0 and is resolved inline, promoting its lines
        # in order as ``ifetch`` would; any other fetch goes through the
        # hierarchy with no line touched, and its stall is charged here.
        # A fetch inside the span the last resident walk found, with no
        # L1I line removed and no ``ifetch`` since, is resident without a
        # walk, and each of its lines is already its set's MRU line.
        blk = self._blk_desc
        if icount:
            pc = self._pcs[pos]
            end = pc + 4 * icount
            if (pc < self._ifirst or end > self._iend
                    or self._l1i.removals != self._iremovals):
                i_bytes = self._l1i_line_bytes
                where = self._l1i_where
                first = pc - pc % i_bytes
                iline = first
                while iline < end and iline in where:
                    iline += i_bytes
                if iline < end:
                    istall = self.mem.ifetch(pc, icount, t)
                    # A fill into an empty way removes nothing but
                    # demotes the remembered line of its set.
                    self._iend = 0
                    if istall:
                        self._time[mode].imiss += istall
                        # ``blk`` is the pre-step state: a BLOCK_START
                        # enters (and a BLOCK_END leaves) block context
                        # during this very record.  A barrier's stall
                        # is not block-op time.
                        if ((blk is not None or op == _BLOCK_START
                             or op == _BLOCK_END) and op != _BARRIER):
                            self.metrics.blk_instr_exec += istall
                        t += istall
                else:
                    if self._promote_l1i is not None:
                        promote = self._promote_l1i
                        ranks = self._l1i_ranks
                        line = first
                        while line < iline:
                            idx = where[line]
                            if ranks[idx]:
                                promote(idx)
                            line += i_bytes
                        if iline - first > self._imemo_bytes:
                            # Only the last line of each set is its MRU.
                            first = iline - self._imemo_bytes
                    self._ifirst = first
                    self._iend = iline
                    self._iremovals = self._l1i.removals
            t += icount

        if op == _READ:
            addr = self._addrs[pos]
            line_bytes = self._l1_line_bytes
            line = addr - addr % line_bytes
            # A Blk_Pref/Blk_ByPref block-op read of the source line the
            # lookahead last handled (_blk_last_src_line) has no prefetch
            # to issue, and a resident line's bypassing read is the
            # cached read.
            if ((blk is None or not self._blockops[pos]
                 or self._blk_read_plain or line == self._blk_last_src_line)
                    and line in self._l1_where
                    and line not in self._pending_ready
                    and self.probe is None):
                # Clean L1D hit: zero stall, one cycle (MachineParams
                # pins l1_hit_cycles to 1).
                if self._promote_l1d is not None:
                    idx = self._l1_where[line]
                    if self._l1d_ranks[idx]:
                        self._promote_l1d(idx)
                t += 1
            else:
                t = self._do_read(pos, addr, mode, t)
        elif op == _WRITE:
            blockop = self._blockops[pos]
            if blk is None or not blockop or self._blk_write_plain:
                addr = self._addrs[pos]
                idx = self._l1_where.get(addr - addr % self._l1_line_bytes)
                state = None
                if idx is not None and self.probe is None:
                    # Inclusion: the L2 holds every L1D line.
                    l2_idx = self._l2_where[addr - addr % self._l2_line_bytes]
                    state = self._l2_states[l2_idx]
                    entries = self._wb1_entries
                    while entries and entries[0] <= t:
                        entries.popleft()
                    if len(entries) >= self._wb1_depth:
                        state = None
                if state is MODIFIED or state is EXCLUSIVE:
                    # Clean write: the word drains into the owned L2 line,
                    # which turns MODIFIED, and WB1 had room, so nothing
                    # stalls.  A resident frame of a 1-way cache always
                    # holds rank 0, so only set-associative ones promote.
                    if self._l1d_ranks[idx]:
                        self._promote_l1d(idx)
                    self._l2_states[l2_idx] = MODIFIED
                    if self._l2_ranks[l2_idx]:
                        self._promote_l2(l2_idx)
                    wb1 = self._wb1
                    lse = wb1.last_service_end
                    end = (t if t > lse else lse) + self._wb1_drain
                    wb1.last_service_end = end
                    entries.append(end)
                    wb1.enqueues += 1
                    t += 1
                else:
                    done, stall = self.mem.write(addr, t)
                    if blockop:
                        self.metrics.blk_write_stall += stall
                    if stall:
                        self._time[mode].dwrite += stall
                    t = done
            else:
                t = self._do_write(self._addrs[pos], mode, t)
        elif op == _PREFETCH:
            self.mem.prefetch_line(self._addrs[pos], t)
            self.metrics.record_prefetch_issued()
        elif op == _LOCK_ACQ:
            t = self._do_lock_acquire(pos, mode, t)
        elif op == _LOCK_REL:
            t = self._do_lock_release(pos, mode, t)
        elif op == _BLOCK_START:
            t = self._do_block_start(pos, mode, t)
        elif op == _BLOCK_END:
            t = self._do_block_end(mode, t)
        elif op == _BARRIER:
            return self._do_barrier(pos, mode, t)
        else:  # pragma: no cover - enum is exhaustive
            raise SimulationError(f"unhandled op {op}")

        self.time = t
        if self.pos >= self.num_records:
            self._fold()
            return _RESULT_DONE
        return _RESULT_RUNNING

    def _fold(self) -> None:
        """Enter DONE and add what the stream charges whatever the
        timing (see the module docstring) to the metrics, once."""
        self.status = _DONE
        time, reads, writes = self._time, self._reads, self._writes
        for mode, cycles in enumerate(self._exec_due):
            time[mode].exec_cycles += cycles
            reads[mode] += self._reads_due[mode]
            writes[mode] += self._writes_due[mode]
        self.metrics.blk_instr_exec += self._blk_due
        self._exec_due = self._reads_due = self._writes_due = ()
        self._blk_due = 0

    # ------------------------------------------------------------------
    # Data accesses
    # ------------------------------------------------------------------
    def _do_read(self, pos: int, addr: int, mode: int, t: int) -> int:
        """Perform a data read (counted per stream); returns its
        completion."""
        mem = self.mem
        breakdown = self._time[mode]
        in_blockop = self._blk_desc is not None
        blockop = self._blockops[pos]
        if blockop and in_blockop:
            if not self._blk_read_plain and self._lookahead_prefetch(addr, t):
                # The prefetch instruction executes inside the block op.
                breakdown.exec_cycles += 1
                self.metrics.blk_instr_exec += 1
            if self._blk_read_bypass:
                res = mem.read_bypass(addr, t)
            else:
                res = mem.read(addr, t)
        else:
            res = mem.read(addr, t)
        self.metrics.classify_read(
            mode, addr, self._pcs[pos],
            self._columns.dclasses.item(pos) if res.miss else 0, blockop,
            res, in_blockop)
        breakdown.dread += res.stall
        breakdown.pref += res.pref_stall
        return res.done

    def _do_write(self, addr: int, mode: int, t: int) -> int:
        """Blk_Bypass destination write (``step`` takes every other write),
        always a block-op word, counted per stream."""
        res = self.mem.write_bypass(addr, t)
        self.metrics.blk_write_stall += res.stall
        self._time[mode].dwrite += res.stall
        return res.done

    def _sync_read(self, pos: int, t: int, in_blockop: bool) -> int:
        """Read the lock or barrier word of the record at *pos* at *t*,
        recorded and charged like a data read; returns its completion."""
        addr = self._addrs[pos]
        mode = self._modes[pos]
        res = self.mem.read(addr, t)
        self.metrics.record_read(
            mode, addr, self._pcs[pos],
            self._columns.dclasses.item(pos) if res.miss else 0,
            self._blockops[pos], res, in_blockop)
        breakdown = self._time[mode]
        breakdown.dread += res.stall
        breakdown.pref += res.pref_stall
        return res.done

    def _sync_write(self, pos: int, mode: int, t: int) -> int:
        """Write the lock or barrier word of the record at *pos* at *t*;
        returns its completion."""
        done, stall = self.mem.write(self._addrs[pos], t)
        self.metrics.record_write(mode, self._blockops[pos], stall)
        self._time[mode].dwrite += stall
        return done

    def _lookahead_prefetch(self, addr: int, t: int) -> int:
        """Software-pipelined source prefetch for Blk_Pref / Blk_ByPref.

        On each new source line, prefetch the line ``lead`` lines ahead.
        Returns the instruction overhead (one prefetch instruction).
        """
        desc = self._blk_desc
        assert desc is not None
        if not desc.is_copy or not desc.contains_src(addr):
            return 0
        line_bytes = self._l1_line_bytes
        line = addr - (addr % line_bytes)
        if line == self._blk_last_src_line:
            return 0
        self._blk_last_src_line = line
        target = line + self._pref_lead_lines * line_bytes
        if not desc.contains_src(target):
            return 0
        self._block_prefetch(target, t)
        self.metrics.record_prefetch_issued()
        return 1

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------
    def _do_block_start(self, pos: int, mode: int, t: int) -> int:
        desc = self.blockops.get(self._blockops[pos])
        probe = self.probe
        if probe is not None:
            probe.block_begin(self.cpu_id, t, desc)
        self._measure_block_start(desc)
        if self._blk_dma:
            # The engine runs the whole operation and swallows its word
            # records, BLOCK_END included.
            done = self._do_block_dma(desc, mode, t)
            if probe is not None:
                probe.block_end(self.cpu_id, done)
            return done
        self._blk_desc = desc
        self._blk_last_src_line = -1
        self.mem.in_blockop = True
        self.mem.bypass_l2_wide = self._blk_bypref
        self.tracker.in_blockop = True
        if not self._blk_read_plain and desc.is_copy:
            # Prolog: prefetch the first `lead` source lines back-to-back.
            line_bytes = self._l1_line_bytes
            breakdown = self._time[mode]
            for i in range(self._pref_lead_lines):
                addr = desc.src + i * line_bytes
                if not desc.contains_src(addr):
                    break
                self._block_prefetch(addr, t)
                self.metrics.record_prefetch_issued()
                t += 1
                breakdown.exec_cycles += 1
        return t

    def _do_block_dma(self, desc: BlockOpDescriptor, mode: int,
                      t: int) -> int:
        """Run the operation on the DMA engine and skip its word records."""
        result = run_dma(self.mem, desc, t)
        stall = result.done - t
        self.metrics.record_dma(stall)
        # The paper assigns the whole DMA stall to D Read Miss.
        self._time[mode].dread += stall
        self.metrics.record_block_exec(stall)
        # Skip the word-level records and the BLOCK_END; the engine
        # replaced them.
        start = self.pos
        try:
            self.pos = self._ops.index(_BLOCK_END, start) + 1
        except ValueError:
            raise SimulationError(
                f"cpu {self.cpu_id}: block op {desc.op_id} missing "
                f"BLOCK_END") from None
        self._swallow(start, self.pos)
        return result.done

    def _swallow(self, start: int, stop: int) -> None:
        """Take the records ``[start, stop)``, which the DMA engine ran
        instead, out of the stream's tallies: they charge nothing."""
        cols = self._columns
        ops = cols.ops[start:stop]
        exec_cycles, reads, writes, blk = _tally(
            ops, cols.modes[start:stop], cols.icounts[start:stop], True,
            len(self._reads))
        for mode, cycles in enumerate(exec_cycles):
            self._exec_due[mode] -= cycles
            self._reads_due[mode] -= reads[mode]
            self._writes_due[mode] -= writes[mode]
        self._blk_due -= blk

    def _do_block_end(self, mode: int, t: int) -> int:
        stall = self.mem.end_block_op(t)
        if stall:
            self._time[mode].dwrite += stall
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
        l1_bytes = self._l1_line_bytes
        l2_bytes = mem.l2.line_bytes
        src_cached = src_total = 0
        if desc.is_copy:
            resident = mem.l1d.where
            lines = range(desc.src - desc.src % l1_bytes,
                          desc.src + desc.size, l1_bytes)
            src_total = len(lines)
            for line in lines:
                if line in resident:
                    src_cached += 1
        dst_owned = dst_shared = 0
        frames = mem.l2.where
        states = mem.l2.states
        lines = range(desc.dst - desc.dst % l2_bytes,
                      desc.dst + desc.size, l2_bytes)
        dst_total = len(lines)
        for line in lines:
            idx = frames.get(line)
            if idx is not None:
                state = states[idx]
                if state == EXCLUSIVE or state == MODIFIED:
                    dst_owned += 1
                elif state == SHARED:
                    dst_shared += 1
        self.metrics.record_block_start(self.cpu_id, desc, src_cached,
                                        src_total, dst_owned, dst_shared,
                                        dst_total)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def _do_lock_acquire(self, pos: int, mode: int, t: int) -> int:
        ok, grant = self.locks.try_acquire(self._addrs[pos], self.cpu_id, t)
        if not ok:  # pragma: no cover - step() checked before consuming
            raise SimulationError("lock acquired while held")
        if grant > t:
            self._time[mode].sync += grant - t
            t = grant
        # The RMW on the lock word: read (possibly a coherence miss on a
        # lock previously held elsewhere) then write (invalidates sharers).
        t = self._sync_read(pos, t, self._blk_desc is not None)
        return self._sync_write(pos, mode, t)

    def _do_lock_release(self, pos: int, mode: int, t: int) -> int:
        # Release consistency: all buffered writes drain first.
        drained = self.mem.drain_writes(t)
        if drained > t:
            self._time[mode].dwrite += drained - t
            t = drained
        done = self._sync_write(pos, mode, t)
        self.locks.release(self._addrs[pos], self.cpu_id, done)
        return done

    def _do_barrier(self, pos: int, mode: int, t: int) -> StepResult:
        breakdown = self._time[mode]
        drained = self.mem.drain_writes(t)
        if drained > t:
            breakdown.dwrite += drained - t
            t = drained
        # Arrival: read-modify-write of the barrier word.
        t = self._sync_read(pos, t, False)
        t = self._sync_write(pos, mode, t)
        self.time = t
        outcome = self.barriers.arrive(self._addrs[pos],
                                       self._columns.args.item(pos),
                                       self.cpu_id, t)
        if outcome is None:
            self._barrier_pos = pos
            self.status = _WAITING_BARRIER
            return StepResult(_WAITING_BARRIER)
        release, waiters = outcome
        breakdown.sync += max(0, release - t)
        self.time = max(t, release)
        if self.pos >= self.num_records:
            self._fold()
            return StepResult(_DONE, barrier_release=outcome)
        return StepResult(_RUNNING, barrier_release=outcome)
