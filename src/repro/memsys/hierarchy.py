"""Per-CPU memory hierarchy: L1I, L1D, write buffers, L2, and access paths.

One :class:`CpuMemorySystem` owns everything private to a processor and
implements every access path the paper's systems need:

* cached reads/writes (the Base machine),
* instruction fetches through the L1I and unified L2,
* software prefetches into the caches (Blk_Pref, hot-spot prefetching),
* prefetches into the 8-line buffer and bypassing reads/writes through
  line registers (Blk_Bypass / Blk_ByPref),
* write-buffer drains with ownership acquisition, upgrades, and Firefly
  updates.

Timing contract: every access method takes the processor's current time
``t`` and returns when the processor may proceed: :meth:`CpuMemorySystem.load`
the completion time, :meth:`CpuMemorySystem.write` a plain ``(done,
stall)`` pair, the other paths an :class:`AccessResult`.  Stall components
are split the way Figure 3 reports them (``stall`` -> D Read Miss or D
Write; ``pref_stall`` -> Pref).

Every data read below the record loop is one call of
:meth:`CpuMemorySystem.load`, which serves it, fills, tracks the line's
miss causes and counts and classifies a miss into the run's metrics
itself: no result object is built unless a probe or the caller asks for
one.
"""

from __future__ import annotations

from repro.common.params import MachineParams
from repro.common.types import DCLASS_BY_VALUE, MissKind, Mode
from repro.memsys.bus import BUS_PREFETCH, BUS_READ_MEM, BUS_WRITEBACK, Bus
from repro.memsys.cache import Cache, CoherentCache
from repro.memsys.coherence import CoherenceController
from repro.memsys.prefetch import PendingFills, PrefetchLineBuffer
from repro.memsys.sink import MissFlags, MissTracker, NO_FLAGS
from repro.memsys.states import EXCLUSIVE, INVALID, MODIFIED, SHARED
from repro.memsys.writebuffer import TimedWriteBuffer

#: Levels an access can be satisfied from, for statistics.
LEVEL_L1 = "l1"
LEVEL_PREF = "pref"
LEVEL_BUFFER = "buffer"
LEVEL_REGISTER = "register"
LEVEL_L2 = "l2"
LEVEL_MEM = "mem"
LEVEL_WB = "wb"

# Enum values and members bound once: a class-attribute load off an enum
# is slow.  The miss-kind counter is keyed by the members themselves.
_OS = int(Mode.OS)
_BLOCK_OP = MissKind.BLOCK_OP
_COHERENCE = MissKind.COHERENCE
_OTHER = MissKind.OTHER


class AccessResult:
    """Outcome of one memory access."""

    __slots__ = ("done", "stall", "pref_stall", "miss", "level", "flags")

    def __init__(self, done: int, stall: int = 0, pref_stall: int = 0,
                 miss: bool = False, level: str = LEVEL_L1,
                 flags: MissFlags = NO_FLAGS) -> None:
        self.done = done
        self.stall = stall
        self.pref_stall = pref_stall
        self.miss = miss
        self.level = level
        self.flags = flags

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AccessResult(done={self.done}, stall={self.stall}, "
                f"pref_stall={self.pref_stall}, miss={self.miss}, "
                f"level={self.level!r})")


class CpuMemorySystem:
    """All memory-system state private to one processor."""

    __slots__ = ("machine", "bus", "controller", "metrics", "tracker",
                 "probe", "l1i", "l1d", "l2", "wb1", "wb2", "pending",
                 "pref_buffer",
                 "bypass_src_line", "bypass_dst_line", "bypass_l2_wide",
                 "in_blockop", "_touch_l1i", "_touch_l2",
                 "_l1d_line_transfer", "cpu_id")

    def __init__(self, machine: MachineParams, bus: Bus,
                 controller: CoherenceController, metrics) -> None:
        self.machine = machine
        self.bus = bus
        self.controller = controller
        #: The run's :class:`~repro.sim.metrics.SystemMetrics`, into which
        #: :meth:`load` counts and classifies misses (duck-typed:
        #: :mod:`repro.memsys` imports nothing from the simulator layer).
        self.metrics = metrics
        #: This CPU's miss causes.
        self.tracker = MissTracker()
        #: Attached observer (:class:`~repro.memsys.sink.Probe`), or None.
        self.probe = None
        self.l1i = Cache(machine.l1i)
        self.l1d = Cache(machine.l1d)
        self.l2 = CoherentCache(machine.l2)
        wb = machine.write_buffers
        self.wb1 = TimedWriteBuffer(wb.l1_depth, "wb1")
        self.wb2 = TimedWriteBuffer(wb.l2_depth, "wb2")
        self.pending = PendingFills()
        self.pref_buffer = PrefetchLineBuffer()
        #: Source/destination line registers of the bypass schemes.
        self.bypass_src_line = -1
        self.bypass_dst_line = -1
        #: Effective source-register granularity: plain Blk_Bypass issues
        #: blocking first-level-line loads; Blk_ByPref streams through its
        #: buffer at second-level-line granularity.
        self.bypass_l2_wide = False
        #: Set by the processor while a block operation is in progress: a
        #: line an L1D fill evicts meanwhile is marked displaced.
        self.in_blockop = False
        #: LRU-promotion hooks, ``None`` on 1-way caches, whose only
        #: possible victim is the resident line: a hit promotes only when
        #: ``assoc > 1``.  A hit whose frame already holds rank 0 (its
        #: set's MRU line) changes nothing, so the hooks and the inline
        #: hit paths promote only a non-zero rank.
        self._touch_l1i = self.l1i.touch if machine.l1i.assoc != 1 else None
        self._touch_l2 = self.l2.touch if machine.l2.assoc != 1 else None
        #: Bus cycles of one L1D line, as the bypass destination register
        #: flushes it (the controller's ``line_transfer`` is an L2 line).
        self._l1d_line_transfer = bus.params.line_transfer_cycles(
            machine.l1d.line_bytes)
        self.cpu_id = controller.attach(self.l1i, self.l1d, self.l2,
                                        self.tracker)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _fetch_for_read(self, addr: int, t: int,
                        kind: int = BUS_READ_MEM) -> "tuple[int, str]":
        """Bring *addr* to readable state at L2; return (ready, level)."""
        if self.l2.state_of(addr) != INVALID:
            if self._touch_l2 is not None:
                self._touch_l2(addr)
            return t + self.machine.l2_hit_cycles, LEVEL_L2
        ready = self.controller.fetch_shared(self.cpu_id, addr, t, kind)
        return ready, LEVEL_MEM

    # ------------------------------------------------------------------
    # Cached access paths (Base machine)
    # ------------------------------------------------------------------
    def load(self, addr: int, t: int, mode: int, pc: int, dclass: int,
             blockop: int, inside: bool, bypass: bool = False,
             result: bool = False):
        """Data read of *addr* at time *t* that the record loop does not
        resolve itself; returns its completion time.

        The one implementation of an L1D read miss.  It consumes the
        line's miss causes, serves the line from the L2 frame (a resident
        L2 frame is never INVALID) or through
        :meth:`CoherenceController.fetch_shared`, fills the L1D, drops the
        victim's pending prefetch fill and, inside a block operation,
        marks it displaced.  A resident line is a hit, or a miss partly
        hidden by a prefetch still in flight.  A *bypass* read (a
        Blk_Bypass/Blk_ByPref block-op source word) of a line the L1D
        lacks is served by the prefetch buffer, the source line register
        or a fetch into that register, never the caches.

        A miss is counted and classified into :attr:`metrics` here: read
        in *mode* from basic block *pc*, of data class *dclass*, for
        block operation *blockop* (0: none), inside a block operation
        when *inside* (a barrier's read never is); its D-read and Pref
        stalls are charged to the mode's time.  An :class:`AccessResult`
        is built only for an attached probe's ``read`` (or, for what the
        bypass machinery served, ``read_bypass``) hook, or to be returned
        in place of the time when *result* is set.
        """
        l1d = self.l1d
        line = addr - addr % l1d.line_bytes
        resident = l1d.where.get(line)
        coherence = displaced = bypassed = miss = False
        stall = pref = 0
        if resident is not None:
            # A resident frame of a 1-way cache always holds rank 0.
            if l1d.ranks[resident]:
                l1d.promote(resident)
            arrival = self.pending.ready.pop(line, t)
            if arrival <= t:
                done = t + 1
                level = LEVEL_L1
            else:
                done = arrival + 1
                pref = arrival - t
                level = LEVEL_PREF
                miss = True
        elif bypass and (line in self.pref_buffer.lines
                         or addr - addr % self._register_bytes()
                         == self.bypass_src_line):
            arrival = self.pref_buffer.lines.get(line, t)
            if arrival <= t:
                done = t + 1
                level = (LEVEL_BUFFER if line in self.pref_buffer.lines
                         else LEVEL_REGISTER)
            else:
                # An in-flight buffer fill: a block miss partially hidden,
                # not a reuse; the line's bypass mark stays for later
                # demand misses.
                done = arrival + 1
                pref = arrival - t
                level = LEVEL_BUFFER
                miss = True
        else:
            # The miss: its causes are read (and cleared) before the fill.
            tracker = self.tracker
            causes = tracker.coh_pending
            if line in causes:
                causes.remove(line)
                coherence = True
            causes = tracker.displaced
            if line in causes:
                causes.remove(line)
                displaced = True
            causes = tracker.bypassed
            if line in causes:
                causes.remove(line)
                bypassed = True
            l2 = self.l2
            frame = l2.where.get(addr - addr % l2.line_bytes)
            if frame is not None:
                # A resident frame of a 1-way L2 always holds rank 0.
                if l2.ranks[frame]:
                    l2.promote(frame)
                done = t + self.machine.l2_hit_cycles
                level = LEVEL_L2
            elif bypass:
                done = self.controller.read_nofill(self.cpu_id, addr, t)
                level = LEVEL_MEM
            else:
                done = self.controller.fetch_shared(self.cpu_id, addr, t,
                                                    BUS_READ_MEM)
                level = LEVEL_MEM
            if bypass:
                # The new source line goes to the line register; its
                # uncached sublines are marked for reuse analysis.
                reg_bytes = self._register_bytes()
                reg_line = addr - addr % reg_bytes
                self.bypass_src_line = reg_line
                where = l1d.where
                for sub in range(reg_line, reg_line + reg_bytes,
                                 l1d.line_bytes):
                    if sub not in where:
                        tracker.bypassed.add(sub)
            else:
                evicted = l1d.fill(line)
                if evicted != -1:
                    self.pending.ready.pop(evicted, None)
                    if self.in_blockop:
                        tracker.displaced.add(evicted)
            # MachineParams pins l1_hit_cycles (and a register read) to 1.
            stall = done - t - 1
            miss = True
        if miss:
            # Count and classify the miss.
            metrics = self.metrics
            breakdown = metrics.time[mode]
            breakdown.dread += stall
            breakdown.pref += pref
            if blockop:
                metrics.blk_read_stall += stall + pref
            metrics.read_misses[mode] += 1
            if displaced:
                if inside:
                    metrics.displacement_inside += 1
                else:
                    metrics.displacement_outside += 1
                metrics.blk_displ_stall += stall
            if bypassed:
                if inside:
                    metrics.reuse_inside += 1
                else:
                    metrics.reuse_outside += 1
            if mode == _OS:
                member = DCLASS_BY_VALUE[dclass]
                if blockop:
                    metrics.os_miss_kind[_BLOCK_OP] += 1
                elif coherence:
                    metrics.os_miss_kind[_COHERENCE] += 1
                    metrics.os_coh_dclass[member] += 1
                    metrics.os_coh_addr[addr - addr % 16] += 1
                else:
                    metrics.os_miss_kind[_OTHER] += 1
                metrics.os_miss_pc[pc] += 1
                metrics.os_miss_dclass[member] += 1
                if pc in metrics.hotspot_pcs:
                    metrics.os_hotspot_misses += 1
        probe = self.probe
        if probe is None and not result:
            return done
        res = AccessResult(
            done, stall, pref, miss, level,
            MissFlags(coherence, displaced, bypassed)
            if coherence or displaced or bypassed else NO_FLAGS)
        if probe is not None:
            if bypass and resident is None:
                probe.read_bypass(self.cpu_id, addr, t, res)
            else:
                probe.read(self.cpu_id, addr, t, res)
        return res if result else done

    def write(self, addr: int, t: int) -> "tuple[int, int]":
        """Data write at time *t* (write-through, write-allocate L1).

        Returns ``(done, stall)``: when the processor may proceed and the
        cycles it waited for a WB1 slot.  Hit/miss classification does not
        feed the paper's write accounting, so no :class:`AccessResult` is
        built.  A write the processor resolves itself (an L1D hit on a
        line the L2 owns, with WB1 room) never gets here; the processor
        then calls the probe's hooks itself.
        """
        probe = self.probe
        if probe is not None:
            probe.write_begin(self.cpu_id, addr, t)
        l1d = self.l1d
        line = addr - addr % l1d.line_bytes
        idx = l1d.where.get(line)
        if idx is None:
            # Write-allocate: the fill overlaps the buffered write, so the
            # processor does not wait for it; ownership is acquired on the
            # drain path.
            evicted = l1d.fill(line)
            if evicted != -1:
                self.pending.ready.pop(evicted, None)
            self.tracker.l1_fill(line, evicted, self.in_blockop)
        elif l1d.ranks[idx]:
            # A resident frame of a 1-way L1D always holds rank 0.
            l1d.promote(idx)
        l2 = self.l2
        idx = l2.where.get(addr - addr % l2.line_bytes)
        state = None if idx is None else l2.states[idx]
        wb1 = self.wb1
        now, stall, start = wb1.admit(t)
        if state is MODIFIED or state is EXCLUSIVE:
            # Owned line in the L2: the word drains locally and the line
            # turns MODIFIED here (E->M).
            l2.states[idx] = MODIFIED
            # A resident frame of a 1-way L2 always holds rank 0.
            if l2.ranks[idx]:
                l2.promote(idx)
            wb1.complete(start,
                         start + self.machine.write_buffers.l1_drain_cycles)
        else:
            wb1.complete(start, self._drain_word(addr, state, start))
        done = now + 1
        if probe is not None:
            probe.write_end(self.cpu_id, addr, t, done, stall)
        return done, stall

    def _drain_word(self, addr: int, state, start: int) -> int:
        """Retire one word of a line the L2 holds in *state* (SHARED, or
        None when absent) from WB1 into WB2 and the bus, with its WB1
        service starting at *start*; returns when its WB1 slot frees.

        :meth:`write` drains owned lines itself and calls this for the
        rest with the state it read: nothing between its L2 probe and the
        drain changes the line.  The WB2 service is the bus transaction,
        run here through the controller: an upgrade (or a Firefly update)
        of a SHARED line, a read-for-ownership of an absent one.
        """
        controller = self.controller
        wb2 = self.wb2
        # The WB1 slot frees once the word is handed to WB2.
        now, _stall, begin = wb2.admit(start)
        if state is SHARED:
            if controller.update_everywhere:
                end = controller.broadcast_update(self.cpu_id, addr, begin)
            else:
                end = controller.upgrade(self.cpu_id, addr, begin)
        else:
            end = controller.fetch_owned(self.cpu_id, addr, begin)
        wb2.complete(begin, end)
        return now + 1

    def ifetch(self, pc: int, icount: int, t: int) -> int:
        """Fetch *icount* 4-byte instructions starting at *pc*.

        Returns the instruction-miss stall in cycles (execution time itself
        is charged by the processor).
        """
        l1i = self.l1i
        line_bytes = l1i.line_bytes
        line = pc - pc % line_bytes
        end = pc + 4 * icount
        # A fetch whose lines are all resident, the common case, never
        # gets here: Processor.steps resolves it inline.  A fetch that
        # does arrives with none of its lines touched yet.
        stall = 0
        while line < end:
            if not l1i.present(line):
                if self.l2.state_of(line) != INVALID:
                    if self._touch_l2 is not None:
                        self._touch_l2(line)
                    stall += self.machine.l2_hit_cycles - 1
                else:
                    ready = self.controller.fetch_shared(
                        self.cpu_id, line, t + stall, BUS_READ_MEM)
                    stall += ready - (t + stall)
                l1i.fill(line)
            elif self._touch_l1i is not None:
                self._touch_l1i(line)
            line += line_bytes
        return stall

    # ------------------------------------------------------------------
    # Prefetching (Blk_Pref, hot-spot prefetch, Blk_ByPref buffer)
    # ------------------------------------------------------------------
    def prefetch_line(self, addr: int, t: int) -> None:
        """Software prefetch of *addr*'s line into L1 and L2 (non-binding)."""
        line = self.l1d.line_addr(addr)
        if self.l1d.present(addr):
            return
        ready, _level = self._fetch_for_read(addr, t, BUS_PREFETCH)
        evicted = self.l1d.fill(line)
        if evicted != -1:
            self.pending.drop(evicted)
        self.tracker.l1_fill(line, evicted, self.in_blockop)
        self.pending.add(line, ready)

    def prefetch_into_buffer(self, addr: int, t: int) -> None:
        """Prefetch *addr*'s line into the Blk_ByPref line buffer.

        Transfers happen at second-level-line granularity (the scheme has
        registers as wide as an L2 line beside the L2), so one bus read
        fills every L1-sized buffer slot the L2 line covers.
        """
        line = self.l1d.line_addr(addr)
        if self.l1d.present(addr) or self.pref_buffer.contains(line):
            return
        if self.l2.state_of(addr) != INVALID:
            if self._touch_l2 is not None:
                self._touch_l2(addr)
            ready = t + self.machine.l2_hit_cycles
        else:
            ready = self.controller.read_nofill(self.cpu_id, addr, t,
                                                BUS_PREFETCH)
        l2_line = addr - addr % self.machine.l2.line_bytes
        for sub in range(l2_line, l2_line + self.machine.l2.line_bytes,
                         self.machine.l1d.line_bytes):
            if not self.l1d.present(sub):
                self.pref_buffer.insert(sub, ready)
                self.tracker.bypass_mark(sub)

    # ------------------------------------------------------------------
    # Bypassing paths (Blk_Bypass / Blk_ByPref)
    # ------------------------------------------------------------------
    def _register_bytes(self) -> int:
        """Width of the source line register: plain Blk_Bypass issues
        blocking first-level-line loads; Blk_ByPref streams through its
        buffer at second-level-line granularity."""
        return (self.machine.l2.line_bytes if self.bypass_l2_wide
                else self.machine.l1d.line_bytes)

    def write_bypass(self, addr: int, t: int) -> AccessResult:
        """Block-operation destination write that bypasses the caches.

        Per the paper, when the line is already in the originating
        processor's caches a normal cache access is performed; otherwise
        words accumulate in a line register that is flushed to memory.  A
        write to the line the register already holds is resolved by the
        processor itself and never gets here.
        """
        if self.l1d.present(addr) or self.l2.state_of(addr) != INVALID:
            # The cached path; write() reports the access.
            done, stall = self.write(addr, t)
            return AccessResult(done, stall=stall, level=LEVEL_WB)
        line = self.l1d.line_addr(addr)
        stall = 0
        if line != self.bypass_dst_line:
            stall = self._flush_bypass_dst(t)
            self.bypass_dst_line = line
        res = AccessResult(t + stall + 1, stall=stall, level=LEVEL_REGISTER)
        if self.probe is not None:
            self.probe.write_bypass(self.cpu_id, addr, t, res)
        return res

    def _flush_bypass_dst(self, t: int) -> int:
        """Flush the destination line register to memory via WB2."""
        if self.bypass_dst_line == -1:
            return 0
        line = self.bypass_dst_line
        self.bypass_dst_line = -1
        transfer = self._l1d_line_transfer
        controller = self.controller
        cpu = self.cpu_id
        wb2 = self.wb2
        _insert, stall, start = wb2.admit(t)
        grant = self.bus.acquire(start, transfer, BUS_WRITEBACK)
        l2_line = controller._l2_line(line)
        controller._invalidate_remotes(cpu, l2_line,
                                       controller._holders(l2_line, cpu))
        if self.probe is not None:
            self.probe.bypass_flush(cpu, line)
        wb2.complete(start, grant + transfer)
        self.tracker.bypass_mark(line)
        return stall

    def end_block_op(self, t: int) -> int:
        """Tear down per-operation bypass state; returns extra stall."""
        stall = self._flush_bypass_dst(t)
        self.bypass_src_line = -1
        self.pref_buffer.clear()
        return stall

    # ------------------------------------------------------------------
    # Synchronization support
    # ------------------------------------------------------------------
    def drain_writes(self, t: int) -> int:
        """Release consistency: time when all buffered writes are visible."""
        return max(self.wb1.drain_time(t), self.wb2.drain_time(t))

