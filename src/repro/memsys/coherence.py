"""Snooping coherence controller: Illinois (MESI) plus per-page Firefly.

All coherence runs at L2-line granularity (the L2s snoop the bus).  The
controller owns the global view: every CPU's L2 (and, for inclusion, its
L1s) is registered here, and every bus-level operation — demand fetches,
ownership acquisition, invalidations, Firefly updates, bypass transfers —
goes through one of the methods below, which reserve the bus and mutate
line states consistently.

The Illinois protocol supplies lines cache-to-cache: a read miss that finds
the line in another cache gets it from that cache (faster than memory);
a dirty supplier writes the line back and drops to SHARED.

The Firefly *update* protocol is applied only to the pages registered via
:meth:`CoherenceController.set_update_pages` — the 384-byte core of barrier
words, hot locks and producer-consumer variables selected in section 5.2.
Writes to those pages broadcast the new data instead of invalidating, so
the other processors' copies stay valid and their coherence misses
disappear, at the cost of update traffic on the bus.

The *adaptive* hybrid schemes (:mod:`repro.memsys.adaptive`) generalize
that page-set rule to per-line update/invalidate decisions.  When a
policy is attached (:attr:`CoherenceController.adaptive`), every
bus-level write consults it instead of :meth:`is_update_addr`: the update
route runs :meth:`CoherenceController.adaptive_update`, which broadcasts
to the in-budget holders and drops the rest in the same bus transaction;
the invalidate route is the unmodified MESI path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.common.errors import SimulationError
from repro.common.params import MachineParams
from repro.memsys.bus import Bus, BusOp
from repro.memsys.cache import Cache, CoherentCache
from repro.memsys.sink import MemorySink
from repro.memsys.states import LineState


class _CpuPort:
    """Per-CPU caches and sink as seen by the controller."""

    __slots__ = ("l1i", "l1d", "l2", "sink")

    def __init__(self, l1i: Cache, l1d: Cache,
                 l2: CoherentCache, sink: MemorySink) -> None:
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.sink = sink


class CoherenceController:
    """Global snooping state machine over all L2 caches."""

    def __init__(self, machine: MachineParams, bus: Bus) -> None:
        self.machine = machine
        self.bus = bus
        self.ports: List[_CpuPort] = []
        #: Conformance checker (:mod:`repro.check`), or None.  The hook
        #: calls below are all on miss/bus paths, so the disabled cost is
        #: one attribute test per bus-level operation.
        self.checker = None
        #: Event tracer (:mod:`repro.obs`), or None.  Set by
        #: :func:`repro.obs.tracer.attach_tracer`; consulted by explicit
        #: hooks on paths no instance wrapper can see (the DMA engine).
        self.tracer = None
        #: Adaptive update/invalidate policy
        #: (:mod:`repro.memsys.adaptive`), or None.  Consulted only on
        #: the bus-level write paths, so the disabled cost is one
        #: attribute test per bus write.
        self.adaptive = None
        #: Page-aligned base addresses running the Firefly update protocol.
        self.update_pages: Set[int] = set()
        #: Run Firefly update on *every* address (the pure-update
        #: comparison point of section 5.2).
        self.update_everywhere = False
        # Statistics.
        self.invalidations_sent = 0
        self.updates_sent = 0
        self.cache_to_cache = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def attach(self, l1i: Cache, l1d: Cache,
               l2: CoherentCache, sink: MemorySink) -> int:
        """Register one CPU's caches; returns its id."""
        self.ports.append(_CpuPort(l1i, l1d, l2, sink))
        return len(self.ports) - 1

    def set_update_pages(self, pages: Iterable[int]) -> None:
        """Run Firefly update on the given page-aligned addresses."""
        page = self.machine.page_bytes
        self.update_pages = {p - (p % page) for p in pages}

    def is_update_addr(self, addr: int) -> bool:
        """True when *addr* lies in a Firefly-update page."""
        if self.update_everywhere:
            return True
        if not self.update_pages:
            return False
        return addr - (addr % self.machine.page_bytes) in self.update_pages

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _l2_line(self, addr: int) -> int:
        return addr - (addr % self.machine.l2.line_bytes)

    def _holders(self, line: int, except_cpu: int) -> List[int]:
        """CPUs (other than *except_cpu*) whose L2 holds *line*."""
        return [i for i, p in enumerate(self.ports)
                if i != except_cpu and p.l2.state_of(line) != LineState.INVALID]

    def _dirty_holder(self, line: int, except_cpu: int) -> Optional[int]:
        for i, p in enumerate(self.ports):
            if i != except_cpu and p.l2.state_of(line) == LineState.MODIFIED:
                return i
        return None

    def _drop_from_l1(self, cpu: int, l2_line: int, coherence: bool) -> None:
        """Enforce inclusion: drop the L1 sublines of *l2_line*."""
        port = self.ports[cpu]
        size = self.machine.l2.line_bytes
        dropped = port.l1d.invalidate_range(l2_line, size)
        if coherence:
            for sub in dropped:
                port.sink.coherence_invalidate(sub)
        port.l1i.invalidate_range(l2_line, size)

    def _invalidate_remotes(self, cpu: int, line: int) -> int:
        """Invalidate every other cache's copy of *line*; returns count."""
        count = 0
        checker = self.checker
        adaptive = self.adaptive
        for i in self._holders(line, cpu):
            self.ports[i].l2.set_state(line, LineState.INVALID)
            self._drop_from_l1(i, line, coherence=True)
            if checker is not None:
                checker.invalidate(i, line)
            if adaptive is not None:
                adaptive.on_invalidate(i, line)
            count += 1
        self.invalidations_sent += count
        return count

    def _fill_l2(self, cpu: int, line: int, state: LineState, t: int) -> None:
        """Install *line* in *cpu*'s L2, handling eviction side effects.

        A dirty victim is written back on the bus (occupancy charged after
        the demand transfer, as a write-back buffer would); any victim's L1
        sublines are dropped for inclusion (a conflict, not a coherence,
        invalidation).
        """
        port = self.ports[cpu]
        evicted, evicted_state = port.l2.fill_state(line, state)
        if evicted != -1:
            self._drop_from_l1(cpu, evicted, coherence=False)
            if evicted_state == LineState.MODIFIED:
                transfer = self.bus.params.line_transfer_cycles(
                    self.machine.l2.line_bytes)
                self.bus.acquire(t, transfer, BusOp.WRITEBACK)
                self.writebacks += 1
        if self.checker is not None:
            self.checker.l2_install(cpu, line, evicted,
                                    evicted_state == LineState.MODIFIED)
        if self.adaptive is not None:
            if evicted != -1:
                self.adaptive.on_invalidate(cpu, evicted)
            self.adaptive.on_fill(cpu, line)

    # ------------------------------------------------------------------
    # Demand read path
    # ------------------------------------------------------------------
    def fetch_shared(self, cpu: int, addr: int, t: int,
                     kind: BusOp = BusOp.READ_MEM) -> int:
        """L2 read miss: fetch the line for reading.  Returns ready time.

        Illinois: a cache holding the line supplies it (dirty holders write
        back and drop to SHARED); otherwise memory supplies it and the
        requester loads it EXCLUSIVE.
        """
        line = self._l2_line(addr)
        port = self.ports[cpu]
        if port.l2.state_of(line) != LineState.INVALID:
            raise SimulationError(f"fetch_shared of resident line {line:#x}")
        holders = self._holders(line, cpu)
        if holders:
            if self.checker is not None:
                # Before the state transition: the checker reads the
                # supplier's (possibly dirty) pre-transfer state.
                self.checker.fill_from_cache(cpu, line, holders)
            ready = self._split_transfer(t, BusOp.READ_CACHE,
                                         self.bus.params.cache_supply_cycles)
            for i in holders:
                self.ports[i].l2.set_state(line, LineState.SHARED)
            self.cache_to_cache += 1
            state = LineState.SHARED
        else:
            if self.checker is not None:
                self.checker.fill_from_memory(cpu, line)
            ready = self._split_transfer(t, kind,
                                         self.bus.params.memory_access_cycles)
            state = LineState.EXCLUSIVE
        self._fill_l2(cpu, line, state, ready)
        return ready

    def _split_transfer(self, t: int, kind: BusOp, wait_cycles: int) -> int:
        """Split-transaction line read: request phase, off-bus wait, data.

        The bus is held for the request, released while memory (or the
        supplying cache) works, then held again for the line transfer —
        5 + 26 + 20 = 51 uncontended cycles for a memory read, matching
        section 2.4, with only 25 cycles of bus occupancy.
        """
        bus = self.bus.params
        transfer = bus.line_transfer_cycles(self.machine.l2.line_bytes)
        grant = self.bus.acquire(t, bus.request_cycles, kind)
        data_at = grant + bus.request_cycles + wait_cycles
        grant2 = self.bus.acquire(data_at, transfer, kind, record_txn=False)
        return grant2 + transfer

    def read_nofill(self, cpu: int, addr: int, t: int,
                    kind: BusOp = BusOp.READ_MEM) -> int:
        """Read a line over the bus without caching it (bypass schemes)."""
        line = self._l2_line(addr)
        dirty = self._dirty_holder(line, cpu)
        if dirty is not None:
            if self.checker is not None:
                self.checker.writeback(dirty, line)
            ready = self._split_transfer(t, BusOp.READ_CACHE,
                                         self.bus.params.cache_supply_cycles)
            # Illinois: the supplier writes back and keeps a SHARED copy.
            self.ports[dirty].l2.set_state(line, LineState.SHARED)
            self.cache_to_cache += 1
            return ready
        return self._split_transfer(t, kind, self.bus.params.memory_access_cycles)

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def upgrade(self, cpu: int, addr: int, t: int) -> int:
        """S -> M upgrade: invalidate other copies.  Returns completion.

        For Firefly-update addresses this becomes a broadcast update
        instead and the line stays SHARED.  An attached adaptive policy
        replaces that page-set rule: its decision routes the write to
        :meth:`adaptive_update` or to the invalidation below.
        """
        line = self._l2_line(addr)
        port = self.ports[cpu]
        state = port.l2.state_of(line)
        if state == LineState.INVALID:
            raise SimulationError(f"upgrade of non-resident line {line:#x}")
        if self.adaptive is not None:
            decision = self.adaptive.decide(cpu, addr, line,
                                            self._holders(line, cpu))
            if self.checker is not None:
                self.checker.adaptive_decision(cpu, addr, line, decision)
            if decision.update:
                return self.adaptive_update(cpu, addr, t, decision)
        elif self.is_update_addr(addr):
            return self.broadcast_update(cpu, addr, t)
        grant = self.bus.acquire(t, self.bus.params.invalidate_cycles,
                                 BusOp.INVALIDATE)
        self._invalidate_remotes(cpu, line)
        port.l2.set_state(line, LineState.MODIFIED)
        return grant + self.bus.params.invalidate_cycles

    def fetch_owned(self, cpu: int, addr: int, t: int) -> int:
        """Write miss at L2: read-for-ownership.  Returns ready time.

        Firefly-update addresses instead fetch SHARED and broadcast the
        write, leaving remote copies valid.  An attached adaptive policy
        replaces that page-set rule with its per-line decision.
        """
        line = self._l2_line(addr)
        if self.adaptive is not None:
            decision = self.adaptive.decide(cpu, addr, line,
                                            self._holders(line, cpu))
            if self.checker is not None:
                self.checker.adaptive_decision(cpu, addr, line, decision)
            if decision.update:
                ready = self.fetch_shared(cpu, addr, t)
                return self.adaptive_update(cpu, addr, ready, decision)
        elif self.is_update_addr(addr):
            ready = self.fetch_shared(cpu, addr, t)
            return self.broadcast_update(cpu, addr, ready)
        dirty = self._dirty_holder(line, cpu)
        if self.checker is not None:
            self.checker.fill_for_ownership(cpu, line, dirty)
        if dirty is not None:
            ready = self._split_transfer(t, BusOp.OWNERSHIP,
                                         self.bus.params.cache_supply_cycles)
            self.cache_to_cache += 1
        else:
            ready = self._split_transfer(t, BusOp.OWNERSHIP,
                                         self.bus.params.memory_access_cycles)
        self._invalidate_remotes(cpu, line)
        self._fill_l2(cpu, line, LineState.MODIFIED, ready)
        return ready

    def broadcast_update(self, cpu: int, addr: int, t: int) -> int:
        """Firefly write to a shared line: broadcast one word of data.

        Remote copies stay valid; memory is written through; the writer's
        copy stays SHARED while sharers exist, else becomes MODIFIED.
        """
        line = self._l2_line(addr)
        port = self.ports[cpu]
        if port.l2.state_of(line) == LineState.INVALID:
            raise SimulationError(f"update of non-resident line {line:#x}")
        grant = self.bus.acquire(t, self.bus.params.update_cycles, BusOp.UPDATE)
        holders = self._holders(line, cpu)
        if self.checker is not None:
            self.checker.update_word(cpu, addr, holders)
        self.updates_sent += 1
        if holders:
            port.l2.set_state(line, LineState.SHARED)
        else:
            port.l2.set_state(line, LineState.MODIFIED)
        return grant + self.bus.params.update_cycles

    def adaptive_update(self, cpu: int, addr: int, t: int,
                        decision) -> int:
        """Adaptive write to a shared line: update some holders, drop
        the rest.

        Mirrors :meth:`broadcast_update`'s bus timing exactly — one
        UPDATE transaction of ``update_cycles`` — because the
        over-budget subset is dropped by the holders' own snoop logic
        riding on that same transaction (a partial invalidation costs no
        extra bus time).  With an empty ``to_invalidate`` this is
        bit-identical to :meth:`broadcast_update`, which is what makes
        ``Hyb_Static`` equal ``BCoh_RelUp`` exactly.
        """
        line = self._l2_line(addr)
        port = self.ports[cpu]
        if port.l2.state_of(line) == LineState.INVALID:
            raise SimulationError(f"update of non-resident line {line:#x}")
        grant = self.bus.acquire(t, self.bus.params.update_cycles, BusOp.UPDATE)
        checker = self.checker
        adaptive = self.adaptive
        for i in decision.to_invalidate:
            self.ports[i].l2.set_state(line, LineState.INVALID)
            self._drop_from_l1(i, line, coherence=True)
            if checker is not None:
                checker.invalidate(i, line)
            adaptive.on_invalidate(i, line)
        self.invalidations_sent += len(decision.to_invalidate)
        if checker is not None:
            checker.update_word(cpu, addr, list(decision.to_update))
        self.updates_sent += 1
        if decision.to_update:
            port.l2.set_state(line, LineState.SHARED)
        else:
            port.l2.set_state(line, LineState.MODIFIED)
        return grant + self.bus.params.update_cycles

    def write_line_to_memory(self, cpu: int, line_addr: int, t: int,
                             kind: BusOp = BusOp.WRITEBACK,
                             invalidate_remotes: bool = True) -> int:
        """Push a full line to memory (bypassing stores, DMA destination).

        Other caches' copies are invalidated (invalidation protocol) unless
        the caller updates them itself (DMA does).
        """
        line = self._l2_line(line_addr)
        transfer = self.bus.params.line_transfer_cycles(
            self.machine.l2.line_bytes)
        grant = self.bus.acquire(t, transfer, kind)
        if invalidate_remotes:
            self._invalidate_remotes(cpu, line)
            # The writer's own stale copy (if any) is dropped too.
            port = self.ports[cpu]
            if port.l2.state_of(line) != LineState.INVALID:
                port.l2.set_state(line, LineState.INVALID)
                self._drop_from_l1(cpu, line, coherence=False)
                if self.checker is not None:
                    self.checker.invalidate(cpu, line)
                if self.adaptive is not None:
                    self.adaptive.on_invalidate(cpu, line)
        return grant + transfer

    # ------------------------------------------------------------------
    # DMA snooping support (section 4.2, Blk_Dma)
    # ------------------------------------------------------------------
    def dma_snoop_src(self, cpu: int, line_addr: int) -> bool:
        """Snoop a DMA source line; returns True when a cache supplied it.

        A MODIFIED holder supplies the data and (Illinois) drops to SHARED
        after writing back; clean copies are untouched.
        """
        line = self._l2_line(line_addr)
        for i, port in enumerate(self.ports):
            if port.l2.state_of(line) == LineState.MODIFIED:
                if self.checker is not None:
                    self.checker.writeback(i, line)
                port.l2.set_state(line, LineState.SHARED)
                self.cache_to_cache += 1
                return True
        return False

    def dma_update_dst(self, cpu: int, line_addr: int) -> int:
        """Snoop a DMA destination line: update cached copies in place.

        Per the paper, caches holding destination data are *updated*, not
        invalidated, and the update propagates to the L1.  All copies drop
        to SHARED (memory now matches).  Returns the number of caches that
        held the line (each slows the transfer slightly).
        """
        line = self._l2_line(line_addr)
        holders = 0
        checker = self.checker
        for i, port in enumerate(self.ports):
            if port.l2.state_of(line) != LineState.INVALID:
                if (checker is not None
                        and port.l2.state_of(line) == LineState.MODIFIED):
                    # A dirty holder flushes the line before the in-place
                    # update, so dirty words outside the transferred range
                    # survive the drop to SHARED.
                    checker.writeback(i, line)
                port.l2.set_state(line, LineState.SHARED)
                holders += 1
        return holders

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` on any coherence violation."""
        lines: Set[int] = set()
        for port in self.ports:
            lines.update(port.l2.resident_lines())
        for line in lines:
            states = [p.l2.state_of(line) for p in self.ports]
            owned = sum(1 for s in states
                        if s in (LineState.EXCLUSIVE, LineState.MODIFIED))
            present = sum(1 for s in states if s != LineState.INVALID)
            if owned > 1:
                raise SimulationError(f"line {line:#x}: multiple owners")
            if owned == 1 and present > 1:
                raise SimulationError(
                    f"line {line:#x}: owned and shared simultaneously")
        # Inclusion: every L1 line must be covered by a resident L2 line.
        for cpu, port in enumerate(self.ports):
            for l1 in (port.l1d, port.l1i):
                for sub in l1.resident_lines():
                    if port.l2.state_of(sub) == LineState.INVALID:
                        raise SimulationError(
                            f"cpu {cpu}: L1 line {sub:#x} not in L2")
