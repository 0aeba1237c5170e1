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

Timing contract: every method takes the processor's current time ``t`` and
returns an :class:`AccessResult` (a plain ``(done, stall)`` pair for
:meth:`CpuMemorySystem.write`) whose ``done`` is when the processor may
proceed.  Stall components are split the way Figure 3 reports them
(``stall`` -> D Read Miss or D Write; ``pref_stall`` -> Pref).
"""

from __future__ import annotations

from typing import Optional

from repro.common.params import MachineParams
from repro.memsys.bus import BUS_PREFETCH, BUS_READ_MEM, BUS_WRITEBACK, Bus
from repro.memsys.cache import Cache, CoherentCache
from repro.memsys.coherence import CoherenceController
from repro.memsys.prefetch import PendingFills, PrefetchLineBuffer
from repro.memsys.sink import MemorySink, MissFlags, NO_FLAGS
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

    __slots__ = ("machine", "bus", "controller", "sink", "probe", "l1i",
                 "l1d", "l2", "wb1", "wb2", "pending", "pref_buffer",
                 "bypass_src_line", "bypass_dst_line", "bypass_l2_wide",
                 "in_blockop", "_touch_l1i", "_touch_l1d", "_touch_l2",
                 "cpu_id")

    def __init__(self, machine: MachineParams, bus: Bus,
                 controller: CoherenceController,
                 sink: Optional[MemorySink] = None) -> None:
        self.machine = machine
        self.bus = bus
        self.controller = controller
        self.sink = sink if sink is not None else MemorySink()
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
        #: Set by the processor while a block operation is in progress; the
        #: sink uses it to distinguish *inside* displacement misses.
        self.in_blockop = False
        #: LRU-promotion hooks, ``None`` on 1-way caches, whose only
        #: possible victim is the resident line: a hit promotes only when
        #: ``assoc > 1``.  A hit whose frame already holds rank 0 (its
        #: set's MRU line) changes nothing, so the hooks and the inline
        #: hit paths promote only a non-zero rank.
        self._touch_l1i = self.l1i.touch if machine.l1i.assoc != 1 else None
        self._touch_l1d = self.l1d.touch if machine.l1d.assoc != 1 else None
        self._touch_l2 = self.l2.touch if machine.l2.assoc != 1 else None
        self.cpu_id = controller.attach(self.l1i, self.l1d, self.l2, self.sink)

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
    def read(self, addr: int, t: int) -> AccessResult:
        """Demand data read at time *t*.

        A miss is resolved here, without helper hops: an L2 hit is one
        probe of the L2's frame index (a resident L2 frame is never
        INVALID), and the L1D fill is one :meth:`Cache.fill`.
        """
        l1d = self.l1d
        line = addr - addr % l1d.line_bytes
        idx = l1d.where.get(line)
        if idx is not None:
            # A resident frame of a 1-way cache always holds rank 0.
            if l1d.ranks[idx]:
                l1d.promote(idx)
            remaining = self.pending.consume(line, t)
            if remaining:
                # Prefetch in flight: partially hidden; the paper still
                # counts it as a miss ("not issued early enough").
                res = AccessResult(t + remaining + 1, pref_stall=remaining,
                                   miss=True, level=LEVEL_PREF)
            else:
                res = AccessResult(t + self.machine.l1_hit_cycles)
        else:
            flags = self.sink.consume_miss_flags(line)
            l2 = self.l2
            idx = l2.where.get(addr - addr % l2.line_bytes)
            if idx is not None:
                # A resident frame of a 1-way L2 always holds rank 0.
                if l2.ranks[idx]:
                    l2.promote(idx)
                ready = t + self.machine.l2_hit_cycles
                level = LEVEL_L2
            else:
                ready = self.controller.fetch_shared(self.cpu_id, addr, t,
                                                     BUS_READ_MEM)
                level = LEVEL_MEM
            evicted = l1d.fill(line)
            if evicted != -1:
                self.pending.ready.pop(evicted, None)
            self.sink.l1_fill(line, evicted, self.in_blockop)
            res = AccessResult(ready,
                               stall=ready - t - self.machine.l1_hit_cycles,
                               miss=True, level=level, flags=flags)
        if self.probe is not None:
            self.probe.read(self.cpu_id, addr, t, res)
        return res

    def write(self, addr: int, t: int) -> "tuple[int, int]":
        """Data write at time *t* (write-through, write-allocate L1).

        Returns ``(done, stall)``: when the processor may proceed and the
        cycles it waited for a WB1 slot.  Hit/miss classification does not
        feed the paper's write accounting, so no :class:`AccessResult` is
        built.  A write the processor resolves itself (an L1D hit on a
        line the L2 owns, with WB1 room, and no probe attached) never
        gets here.
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
            self.sink.l1_fill(line, evicted, self.in_blockop)
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
        # gets here: Processor.step resolves it inline.  A fetch that
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
        self.sink.l1_fill(line, evicted, self.in_blockop)
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
                self.sink.bypass_mark(sub)

    # ------------------------------------------------------------------
    # Bypassing paths (Blk_Bypass / Blk_ByPref)
    # ------------------------------------------------------------------
    def read_bypass(self, addr: int, t: int) -> AccessResult:
        """Block-operation source read that bypasses the caches."""
        line = self.l1d.line_addr(addr)
        if self.l1d.present(addr):
            # The cached path; read() reports the access.
            return self.read(addr, t)
        buffered = self.pref_buffer.lookup(line)
        gran = (self.machine.l2.line_bytes if self.bypass_l2_wide
                else self.machine.l1d.line_bytes)
        reg_line = addr - addr % gran
        if buffered is not None:
            self.pref_buffer.hits += 1
            if buffered <= t:
                res = AccessResult(t + 1, level=LEVEL_BUFFER)
            else:
                # In-flight buffer fill: a block miss that was partially
                # hidden ("prefetch not issued early enough"), not a reuse
                # — leave the bypass mark in place for later demand misses.
                res = AccessResult(buffered + 1, pref_stall=buffered - t,
                                   miss=True, level=LEVEL_BUFFER)
        elif reg_line == self.bypass_src_line:
            res = AccessResult(t + 1, level=LEVEL_REGISTER)
        else:
            # New source line: fetch into the line register, never the
            # caches.
            flags = self.sink.consume_miss_flags(line)
            if self.l2.state_of(addr) != INVALID:
                if self._touch_l2 is not None:
                    self._touch_l2(addr)
                ready = t + self.machine.l2_hit_cycles
                level = LEVEL_L2
            else:
                ready = self.controller.read_nofill(self.cpu_id, addr, t)
                level = LEVEL_MEM
            self.bypass_src_line = reg_line
            for sub in range(reg_line, reg_line + gran,
                             self.machine.l1d.line_bytes):
                if not self.l1d.present(sub):
                    self.sink.bypass_mark(sub)
            res = AccessResult(ready, stall=ready - t - 1, miss=True,
                               level=level, flags=flags)
        if self.probe is not None:
            self.probe.read_bypass(self.cpu_id, addr, t, res)
        return res

    def write_bypass(self, addr: int, t: int) -> AccessResult:
        """Block-operation destination write that bypasses the caches.

        Per the paper, when the line is already in the originating
        processor's caches a normal cache access is performed; otherwise
        words accumulate in a line register that is flushed to memory.
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
        transfer = self.bus.params.line_transfer_cycles(
            self.machine.l1d.line_bytes)
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
        self.sink.bypass_mark(line)
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

