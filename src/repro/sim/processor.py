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
no execution.  Per record, the record loop (:meth:`Processor.steps`)
charges only what timing decides: the I-stall (at the fetch), the
D-read, Pref and D-write stalls, the lookahead and prolog prefetch
instructions of Blk_Pref and Blk_ByPref, synchronization waits, and the
lock and barrier word accesses (their reads counted by
:meth:`Processor._sync_read`, their writes by
:meth:`SystemMetrics.record_write
<repro.sim.metrics.SystemMetrics.record_write>`).  Every read miss is
counted and classified by the one read routine,
:meth:`CpuMemorySystem.load
<repro.memsys.hierarchy.CpuMemorySystem.load>`.

Synchronization records interact with the shared lock table and barrier
manager; a processor that cannot make progress returns a blocked status and
the system scheduler advances simulated time for it.

Hot-path layout
---------------

The record loop, :meth:`Processor.steps`, is the single hottest code in
the repository: it runs once per trace record across every experiment
cell.  It is one generator per CPU, resumed by the scheduler once per
*burst* (see :mod:`repro.sim.system`), and it therefore:

* retires records until its clock reaches the limit it was resumed
  with, or its status changes (a held lock, a barrier, DONE), before it
  yields: one resumption, one :class:`StepResult` and one heap update
  per burst, not per record.  :meth:`Processor.step` resumes it with a
  limit of 0, which retires exactly one record, so the scan reference,
  the hand-stepping tests and every run with a probe attached go
  through the same loop body.  The clock and stream position live in
  locals for the burst and are written back before each yield; the
  position is also kept current while a probe is attached, since
  observers read it.  While suspended the loop holds its processor
  only through a weak reference, so the two form no reference cycle:
  a system dropped before its run ends (never run, or ended by an
  error) is freed at once, without the cyclic collector;
* binds its hot state once, as locals, when first resumed: the stream's
  six parallel plain-int columns (:meth:`StreamColumns.sim_lists
  <repro.trace.columns.StreamColumns.sim_lists>`: op, addr, mode, pc,
  icount, blockop), the L1I, L1D and L2 frame indexes, ranks and
  states, WB1's entries, the pending-fill dict, the prefetch buffer,
  the per-mode :class:`~repro.sim.metrics.TimeBreakdown` list and the
  scheme flags — all mutated in place by their owners, never rebound.
  The fetch memo (below) is three locals.  The objects behind them
  (:class:`Processor`, :class:`~repro.sim.metrics.SystemMetrics`,
  :class:`CpuMemorySystem`, the bus, coherence, write-buffer,
  pending-fill, prefetch-buffer and miss-tracker objects) declare
  ``__slots__``.  No path builds a :class:`~repro.trace.record.TraceRecord`:
  the slow paths read the same columns, plus the data class (only on a
  miss) and the barrier width; :meth:`Processor.record` is for the
  observers only;
* resolves an instruction fetch whose every L1I line is resident inline,
  with one frame-index probe per spanned line and, on set-associative
  caches, each line whose recency rank is non-zero promoted in order; a
  fetch with any line absent goes to :meth:`CpuMemorySystem.ifetch` with
  no line touched.  The *fetch memo* remembers the last span such a
  walk found resident, with the cache's
  :attr:`~repro.memsys.cache.Cache.removals` count at the time; a fetch
  inside that span, with no line removed and no ``ifetch`` since, skips
  the walk.  Each line of the span is then still its set's most
  recently used, so the walk would promote nothing.  Every ``ifetch``
  clears the memo: a fill into an empty way removes no line but demotes
  the remembered line of its set;
* resolves a *clean L1D hit* (line resident, no pending prefetch fill, no
  lookahead prefetch to issue) inline against the bound L1 frame index,
  without entering the :class:`CpuMemorySystem` call chain, and
  promotes the frame only on a set-associative L1D and only when its
  rank is non-zero — the overwhelming majority of references in the
  paper's workloads are such hits (Table 2 reports low miss rates on
  every machine).  Under Blk_Pref and Blk_ByPref a block-copy read of
  the source line the lookahead prefetcher last handled has no
  prefetch to issue, and a bypassing read of a resident line is the
  cached read.  With a :class:`~repro.memsys.sink.Probe` attached the
  inline hit calls the probe's ``read`` hook with the
  :class:`AccessResult` ``load`` would have built, and builds it only
  then;
* sends every other data read without a lookahead prefetch to issue —
  an L1D miss, a resident line with a prefetch fill pending, a bypass
  read the loop does not serve — straight to
  :meth:`CpuMemorySystem.load`, the one read routine, which resolves
  it, counts and classifies a miss and charges its stalls in one call,
  probe or not;
* resolves the *bypass hits* of block operations inline as well: under
  Blk_Bypass and Blk_ByPref, a block-op read of a line the L1D lacks
  that a ready prefetch-buffer line or the source line register serves
  (one cycle, no stall, as a bypass :meth:`CpuMemorySystem.load`), when
  the lookahead has nothing to do; under Blk_Bypass, a destination
  write to the line the destination register holds, when neither cache
  has it (one cycle, no flush, as
  :meth:`CpuMemorySystem.write_bypass`).  These run with a probe
  attached too: they then call the probe's ``read_bypass`` or
  ``write_bypass`` hook with the :class:`AccessResult` the hierarchy
  would have built, and build it only then;
* resolves a *clean write* (L1D hit, L2 line EXCLUSIVE or MODIFIED, a
  free WB1 slot) inline: the L1D and L2 frames are promoted when their
  rank is non-zero, the L2 line turns MODIFIED, and the word's WB1
  entry drains into it — the side effects :meth:`CpuMemorySystem.write`
  has, at one cycle and no stall, followed, with a probe attached, by
  the probe's ``write_begin`` and ``write_end`` hooks.  Clean writes are
  most of the writes; the rest go to :meth:`CpuMemorySystem.write`,
  which returns a plain ``(done, stall)`` pair, the only part of a
  write the accounting reads;
* indexes the per-mode ``time`` list of
  :class:`~repro.sim.metrics.SystemMetrics` with the raw mode int from
  the column, accumulating stalls directly into the plain int fields of
  the mode's :class:`~repro.sim.metrics.TimeBreakdown`, on the slow
  paths too: no enum member is built, hashed or looked up per record,
  and no keyword call charges time;
* loads enum members only through module globals (``_BLOCKED_LOCK``,
  ``_READ``, and ``EXCLUSIVE`` and ``MODIFIED`` from
  :mod:`repro.memsys.states`): on Python 3.11 every
  ``ProcStatus.RUNNING``-style class-attribute load goes through
  ``EnumType.__getattr__``'s slow path, about four times the cost of a
  module global.  The loop reads ``EXCLUSIVE`` and ``MODIFIED`` at each
  use, so :mod:`repro.check.mutants` plants its record-loop bugs by
  rebinding them.

Every shortcut must keep :meth:`SystemMetrics.snapshot` bit-identical to
the straightforward path; ``tests/test_fastpath_equivalence.py`` and the
golden-value tests enforce this.  A probe observes and never steers: an
attached probe changes no path the loop takes, only the burst length, so
the conformance checker runs the code that produces the numbers.
"""

from __future__ import annotations

import enum
import weakref
from typing import Generator, List, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.common.types import (DCLASS_BY_VALUE, MODE_BY_VALUE, Op,
                                OP_BY_VALUE, Scheme)
from repro.memsys.dma import run_dma
from repro.memsys.hierarchy import (LEVEL_BUFFER, LEVEL_REGISTER,
                                    AccessResult, CpuMemorySystem)
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
    """Outcome of one resumption of :meth:`Processor.steps`: how its
    burst ended."""

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


#: Shared results for the two allocation-heavy outcomes: a burst that
#: reached its clock limit, and one that retired the stream's last
#: record.  Callers only read the fields.
RUNNING_RESULT = StepResult(_RUNNING)
_RESULT_DONE = StepResult(_DONE)


class Processor:
    """One simulated CPU."""

    __slots__ = ("cpu_id", "_columns", "_ops", "_addrs", "_modes", "_pcs",
                 "_icounts", "_blockops", "num_records", "blockops", "mem",
                 "metrics", "config", "locks", "barriers", "pos",
                 "time", "status", "_blk_desc", "_blk_last_src_line",
                 "_barrier_pos", "probe", "_gen", "_l1_line_bytes", "_l1i",
                 "_l1i_where", "_wb1_depth", "_time", "_reads", "_writes",
                 "_exec_due", "_reads_due", "_writes_due", "_blk_due",
                 "_blk_read_plain", "_blk_read_bypass", "_blk_write_plain",
                 "_blk_dma", "_blk_bypref", "_bypass_hits",
                 "_pref_lead_lines", "_block_prefetch", "__weakref__")

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
        self.probe = None
        self._l1_line_bytes = mem.l1d.line_bytes
        # The record loop's views of the L1I and of WB1's depth, which a
        # twin test rig may replace (as it may ``mem.pending.ready``) to
        # switch an inline path off.
        self._l1i = mem.l1i
        self._l1i_where = mem.l1i.where
        self._wb1_depth = mem.wb1.depth
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
        #: Whether the record loop serves the line-register and
        #: prefetch-buffer hits of block-op words itself (a twin test rig
        #: clears it to send them through ``load``/``_do_write``).
        self._bypass_hits = self._blk_read_bypass
        # Blk_Pref / Blk_ByPref source prefetch: its software-pipelining
        # depth and where a prefetched line goes.
        if self._blk_bypref:
            self._pref_lead_lines = config.bypref_lead_lines
            self._block_prefetch = mem.prefetch_into_buffer
        else:
            self._pref_lead_lines = config.pref_lead_lines
            self._block_prefetch = mem.prefetch_line
        #: The record loop (:meth:`steps`), primed; None once DONE.
        self._gen = None
        if self.status is _RUNNING:
            self._gen = self.steps()
            next(self._gen)

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
    # The record loop
    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Process the next record; returns the resulting status.

        One resumption of :meth:`steps` with a clock limit of 0, which
        retires exactly one record through the same loop body as the
        scheduler's bursts."""
        if self.status is not _RUNNING:
            raise SimulationError(f"step on {self.status} cpu {self.cpu_id}")
        return self._gen.send(0)

    def steps(self) -> Generator[Optional[StepResult], int, None]:
        """This CPU's record loop, resumed once per burst.

        ``send(limit)`` retires records until the clock reaches *limit*
        or the status changes (a held lock, a barrier, DONE), writes the
        clock and stream position back, and yields the
        :class:`StepResult`.  ``__init__`` primes the generator; it binds
        its hot state as locals when first resumed, so a test rig may
        replace ``_l1i``, ``_l1i_where``, ``_wb1_depth`` or
        ``mem.pending.ready`` before the first step.  The clock, the
        position, the probe and the block operation in progress are
        re-read on every resumption: the scheduler moves the clock of a
        spinning or woken CPU.

        While suspended the loop refers to its processor weakly: it
        drops ``self`` before each yield and takes it back from the weak
        reference when resumed, so a processor and its loop form no
        reference cycle.
        """
        me = weakref.ref(self)
        del self
        limit = yield None
        self = me()
        ops, addrs, modes = self._ops, self._addrs, self._modes
        pcs, icounts, blockops = self._pcs, self._icounts, self._blockops
        dclass_of = self._columns.dclasses.item
        num_records = self.num_records
        cpu_id = self.cpu_id
        holder_of = self.locks.holder
        mem = self.mem
        load = mem.load
        metrics = self.metrics
        breakdowns = self._time
        # An inline hit promotes exactly as the CpuMemorySystem path
        # would: only on a set-associative cache (the promote hooks are
        # None on 1-way ones) and only a frame whose rank is non-zero.
        l1d = mem.l1d
        l1_where = l1d.where
        l1_line_bytes = self._l1_line_bytes
        l1d_ranks = l1d.ranks
        promote_l1d = None if l1d.assoc == 1 else l1d.promote
        l1i = self._l1i
        l1i_where = self._l1i_where
        i_bytes = mem.l1i.line_bytes
        l1i_ranks = mem.l1i.ranks
        promote_l1i = None if mem.l1i.assoc == 1 else mem.l1i.promote
        # The fetch memo: lines [ifirst, iend) were all resident, each
        # its set's MRU line, when the L1I had removed iremovals lines.
        # A span remembers at most one line per set, imemo_bytes.
        imemo_bytes = mem.l1i.num_sets * i_bytes
        ifirst = iend = 0
        iremovals = -1
        pending_ready = mem.pending.ready
        # The inline clean write: the L2 frame index and states, and WB1.
        l2 = mem.l2
        l2_where = l2.where
        l2_line_bytes = l2.line_bytes
        l2_states = l2.states
        l2_ranks = l2.ranks
        promote_l2 = l2.promote
        wb1 = mem.wb1
        wb1_entries = wb1._entries
        wb1_depth = self._wb1_depth
        wb1_drain = mem.machine.write_buffers.l1_drain_cycles
        blk_read_plain = self._blk_read_plain
        blk_read_bypass = self._blk_read_bypass
        blk_write_plain = self._blk_write_plain
        # The inline bypass hits: the prefetch buffer, and the width of
        # the source line register (a bypass read's granularity).
        bypass_hits = self._bypass_hits
        pbuf_lines = mem.pref_buffer.lines
        reg_bytes = l2_line_bytes if self._blk_bypref else l1_line_bytes
        while True:
            t = self.time
            pos = self.pos
            probe = self.probe
            blk = self._blk_desc
            if probe is not None:
                # A probe sees one record per resumption, and reads the
                # position of the record in flight.
                limit = 0
                self.pos = pos + 1
            while pos < num_records:
                op = ops[pos]
                # A held lock blocks *before* the record is consumed; the
                # scheduler advances our clock (spinning) and retries.
                if op == _LOCK_ACQ:
                    holder = holder_of(addrs[pos])
                    if holder is not None and holder != cpu_id:
                        result = StepResult(_BLOCKED_LOCK,
                                            lock_addr=addrs[pos],
                                            mode=modes[pos])
                        break
                mode = modes[pos]
                icount = icounts[pos]

                # Instruction fetch for this basic block (its execution
                # cycles are counted per stream).  A fetch whose every L1I
                # line is resident stalls 0 and is resolved inline,
                # promoting its lines in order as ``ifetch`` would; any
                # other fetch goes through the hierarchy with no line
                # touched, and its stall is charged here.  A fetch inside
                # the span the last resident walk found, with no L1I line
                # removed and no ``ifetch`` since, is resident without a
                # walk, and each of its lines is already its set's MRU.
                if icount:
                    pc = pcs[pos]
                    end = pc + 4 * icount
                    if (pc < ifirst or end > iend
                            or l1i.removals != iremovals):
                        first = pc - pc % i_bytes
                        iline = first
                        while iline < end and iline in l1i_where:
                            iline += i_bytes
                        if iline < end:
                            istall = mem.ifetch(pc, icount, t)
                            # A fill into an empty way removes nothing but
                            # demotes the remembered line of its set.
                            iend = 0
                            if istall:
                                breakdowns[mode].imiss += istall
                                # ``blk`` is the pre-record state: a
                                # BLOCK_START enters (and a BLOCK_END
                                # leaves) block context during this very
                                # record.  A barrier's stall is not
                                # block-op time.
                                if ((blk is not None or op == _BLOCK_START
                                     or op == _BLOCK_END)
                                        and op != _BARRIER):
                                    metrics.blk_instr_exec += istall
                                t += istall
                        else:
                            if promote_l1i is not None:
                                line = first
                                while line < iline:
                                    idx = l1i_where[line]
                                    if l1i_ranks[idx]:
                                        promote_l1i(idx)
                                    line += i_bytes
                                if iline - first > imemo_bytes:
                                    # Only the last line of each set is
                                    # its MRU.
                                    first = iline - imemo_bytes
                            ifirst = first
                            iend = iline
                            iremovals = l1i.removals
                    t += icount

                if op == _READ:
                    addr = addrs[pos]
                    line = addr - addr % l1_line_bytes
                    if (blk is not None and blockops[pos]
                            and not blk_read_plain
                            and line != self._blk_last_src_line):
                        # A Blk_Pref/Blk_ByPref block-op read of a source
                        # line the lookahead prefetcher has not handled.
                        t = self._do_read(pos, addr, mode, t)
                    elif line in l1_where:
                        # A bypassing read of a resident line is the
                        # cached read.
                        if line in pending_ready:
                            t = load(addr, t, mode, pcs[pos], dclass_of(pos),
                                     blockops[pos], blk is not None)
                        else:
                            # Clean L1D hit: zero stall, one cycle
                            # (MachineParams pins l1_hit_cycles to 1).
                            if promote_l1d is not None:
                                idx = l1_where[line]
                                if l1d_ranks[idx]:
                                    promote_l1d(idx)
                            if probe is not None:
                                probe.read(cpu_id, addr, t,
                                           AccessResult(t + 1))
                            t += 1
                    elif (blk is None or not blockops[pos]
                          or not blk_read_bypass):
                        # An L1D read miss.
                        t = load(addr, t, mode, pcs[pos], dclass_of(pos),
                                 blockops[pos], blk is not None)
                    else:
                        # A Blk_Bypass/Blk_ByPref block-op read of a line
                        # the L1D lacks, served in one cycle by a ready
                        # prefetch-buffer line or else by the source line
                        # register, as ``load`` would.
                        ready = pbuf_lines.get(line)
                        if bypass_hits and ready is not None and ready <= t:
                            if probe is not None:
                                probe.read_bypass(
                                    cpu_id, addr, t,
                                    AccessResult(t + 1, level=LEVEL_BUFFER))
                            t += 1
                        elif (bypass_hits and ready is None
                              and addr - addr % reg_bytes
                              == mem.bypass_src_line):
                            if probe is not None:
                                probe.read_bypass(
                                    cpu_id, addr, t,
                                    AccessResult(t + 1, level=LEVEL_REGISTER))
                            t += 1
                        else:
                            t = load(addr, t, mode, pcs[pos], dclass_of(pos),
                                     blockops[pos], True, True)
                elif op == _WRITE:
                    addr = addrs[pos]
                    blockop = blockops[pos]
                    if blk is None or not blockop or blk_write_plain:
                        idx = l1_where.get(addr - addr % l1_line_bytes)
                        state = None
                        if idx is not None:
                            # Inclusion: the L2 holds every L1D line.
                            l2_idx = l2_where[addr - addr % l2_line_bytes]
                            state = l2_states[l2_idx]
                            while wb1_entries and wb1_entries[0] <= t:
                                wb1_entries.popleft()
                            if len(wb1_entries) >= wb1_depth:
                                state = None
                        if state is MODIFIED or state is EXCLUSIVE:
                            # Clean write: the word drains into the owned
                            # L2 line, which turns MODIFIED, and WB1 had
                            # room, so nothing stalls.  A resident frame of
                            # a 1-way cache always holds rank 0, so only
                            # set-associative ones promote.
                            if l1d_ranks[idx]:
                                promote_l1d(idx)
                            l2_states[l2_idx] = MODIFIED
                            if l2_ranks[l2_idx]:
                                promote_l2(l2_idx)
                            lse = wb1.last_service_end
                            end = (t if t > lse else lse) + wb1_drain
                            wb1.last_service_end = end
                            wb1_entries.append(end)
                            wb1.enqueues += 1
                            if probe is not None:
                                probe.write_begin(cpu_id, addr, t)
                                probe.write_end(cpu_id, addr, t, t + 1, 0)
                            t += 1
                        else:
                            done, stall = mem.write(addr, t)
                            if blockop:
                                metrics.blk_write_stall += stall
                            if stall:
                                breakdowns[mode].dwrite += stall
                            t = done
                    else:
                        # A Blk_Bypass destination write to the line the
                        # destination register holds, which neither cache
                        # has (by inclusion, the L1D only if the L2 does):
                        # one cycle and no flush, as ``write_bypass``.
                        if (bypass_hits and addr - addr % l1_line_bytes
                                == mem.bypass_dst_line
                                and addr - addr % l2_line_bytes
                                not in l2_where):
                            if probe is not None:
                                probe.write_bypass(
                                    cpu_id, addr, t,
                                    AccessResult(t + 1, level=LEVEL_REGISTER))
                            t += 1
                        else:
                            t = self._do_write(addr, mode, t)
                elif op == _PREFETCH:
                    mem.prefetch_line(addrs[pos], t)
                    metrics.record_prefetch_issued()
                elif op == _LOCK_ACQ:
                    t = self._do_lock_acquire(pos, mode, t)
                elif op == _LOCK_REL:
                    t = self._do_lock_release(pos, mode, t)
                elif op == _BLOCK_START:
                    # Under Blk_Dma the engine moves the position past the
                    # operation's BLOCK_END.
                    self.pos = pos + 1
                    t = self._do_block_start(pos, mode, t)
                    pos = self.pos - 1
                    blk = self._blk_desc
                elif op == _BLOCK_END:
                    t = self._do_block_end(mode, t)
                    blk = None
                elif op == _BARRIER:
                    self.pos = pos + 1
                    result = self._do_barrier(pos, mode, t)
                    pos += 1
                    t = self.time
                    break
                else:  # pragma: no cover - enum is exhaustive
                    raise SimulationError(f"unhandled op {op}")

                pos += 1
                if t >= limit and pos < num_records:
                    result = RUNNING_RESULT
                    break
            else:
                # Past the last record, or woken from a barrier that was
                # the last record.
                self._fold()
                result = _RESULT_DONE
            self.time = t
            self.pos = pos
            del self
            limit = yield result
            self = me()

    def _fold(self) -> None:
        """Enter DONE and add what the stream charges whatever the
        timing (see the module docstring) to the metrics, once."""
        self.status = _DONE
        # Nothing resumes a DONE processor's loop.
        self._gen = None
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
        """A Blk_Pref/Blk_ByPref block-op read of a source line the
        lookahead prefetcher has not handled: issue the lookahead
        prefetch, then read (bypassing the caches under Blk_ByPref);
        returns the read's completion."""
        if self._lookahead_prefetch(addr, t):
            # The prefetch instruction executes inside the block op.
            self._time[mode].exec_cycles += 1
            self.metrics.blk_instr_exec += 1
        return self.mem.load(addr, t, mode, self._pcs[pos],
                             self._columns.dclasses.item(pos),
                             self._blockops[pos], True,
                             self._blk_read_bypass)

    def _do_write(self, addr: int, mode: int, t: int) -> int:
        """Blk_Bypass destination write that is not a hit on the
        destination register (the record loop takes those and every
        other write); always a block-op word, counted per stream."""
        res = self.mem.write_bypass(addr, t)
        self.metrics.blk_write_stall += res.stall
        self._time[mode].dwrite += res.stall
        return res.done

    def _sync_read(self, pos: int, t: int, inside: bool) -> int:
        """Count and perform the read of the lock or barrier word of the
        record at *pos* at *t* (inside a block operation when *inside*);
        returns its completion."""
        mode = self._modes[pos]
        self._reads[mode] += 1
        return self.mem.load(self._addrs[pos], t, mode, self._pcs[pos],
                             self._columns.dclasses.item(pos),
                             self._blockops[pos], inside)

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
        if not ok:  # pragma: no cover - the loop checked before consuming
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
