"""Snooping coherence controller: Illinois (MESI) plus per-page Firefly.

All coherence runs at L2-line granularity (the L2s snoop the bus).  The
controller owns the global view: every CPU's L2 (and, for inclusion, its
L1s) is registered here, and every bus-level operation — demand fetches,
ownership acquisition, invalidations, Firefly updates, bypass transfers —
goes through one of the methods below, which reserve the bus and mutate
line states consistently.

Snoops are filtered by a presence directory,
:attr:`CoherenceController.holders`: line -> bitmask of the CPUs whose
L2 holds it.  The L2s update it themselves in
:meth:`~repro.memsys.cache.CoherentCache.fill` and ``_drop``, the only
two places residency changes, so a snoop visits the holders (in
ascending CPU order, as a walk over every port would) and its cost
grows with the sharers, not with the machine's CPU count.

The Illinois protocol supplies lines cache-to-cache: a read miss that finds
the line in another cache gets it from that cache (faster than memory);
a dirty supplier writes the line back and drops to SHARED.

The Firefly *update* protocol is chosen per write by an attached
update/invalidate policy (:attr:`CoherenceController.adaptive`, see
:mod:`repro.memsys.adaptive`).  Section 5.2's selective update is the
static policy: writes to the 384-byte core of barrier words, hot locks
and producer-consumer variables broadcast the new data instead of
invalidating, so the other processors' copies stay valid and their
coherence misses disappear, at the cost of update traffic on the bus.
The hybrid policies decide per line.  The update route runs
:meth:`CoherenceController.adaptive_update`, which broadcasts to the
chosen holders and drops the rest in the same bus transaction; the
invalidate route is the unmodified MESI path.  Without a policy every
write invalidates, unless :attr:`~CoherenceController.update_everywhere`
(the pure-update comparison point) broadcasts them all through
:meth:`~CoherenceController.broadcast_update`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.common.params import MachineParams
from repro.memsys.bus import (BUS_INVALIDATE, BUS_OWNERSHIP, BUS_READ_CACHE,
                              BUS_READ_MEM, BUS_UPDATE, BUS_WRITEBACK, Bus)
from repro.memsys.cache import Cache, CoherentCache, holder_cpus
from repro.memsys.sink import MemorySink
from repro.memsys.states import (EXCLUSIVE, INVALID, MODIFIED, SHARED,
                                 LineState)


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

    __slots__ = ("machine", "bus", "line_transfer", "ports", "holders",
                 "probe", "adaptive", "update_everywhere",
                 "invalidations_sent", "updates_sent", "cache_to_cache",
                 "writebacks")

    def __init__(self, machine: MachineParams, bus: Bus) -> None:
        self.machine = machine
        self.bus = bus
        #: Bus cycles one L2 line takes to move (a data phase, a
        #: write-back).
        self.line_transfer = bus.params.line_transfer_cycles(
            machine.l2.line_bytes)
        self.ports: List[_CpuPort] = []
        #: Presence directory shared by every attached L2: line ->
        #: bitmask of the CPUs holding it (bit ``1 << cpu``).  The L2s
        #: keep it exact themselves (:class:`CoherentCache`), so a snoop
        #: visits the holders only, never all ports.
        self.holders: Dict[int, int] = {}
        #: Attached observer (:class:`~repro.memsys.sink.Probe`), or None.
        #: The hook calls below are all on miss/bus paths, so the
        #: detached cost is one attribute test per bus-level operation.
        self.probe = None
        #: Adaptive update/invalidate policy
        #: (:mod:`repro.memsys.adaptive`), or None.  Consulted only on
        #: the bus-level write paths, so the disabled cost is one
        #: attribute test per bus write.
        self.adaptive = None
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
        """Register one CPU's (still empty) caches; returns its id.

        The L2 joins the shared presence directory as bit ``1 << id``.
        """
        cpu = len(self.ports)
        l2.holders = self.holders
        l2.bit = 1 << cpu
        self.ports.append(_CpuPort(l1i, l1d, l2, sink))
        return cpu

    def attach_policy(self, policy) -> None:
        """Attach an adaptive policy; it reads residency from
        :attr:`holders`."""
        policy.holders = self.holders
        self.adaptive = policy

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _l2_line(self, addr: int) -> int:
        return addr - (addr % self.machine.l2.line_bytes)

    def _holders(self, line: int, except_cpu: int) -> List[int]:
        """CPUs (other than *except_cpu*) whose L2 holds *line*,
        ascending."""
        return holder_cpus(self.holders.get(line, 0) & ~(1 << except_cpu))

    def _dirty_holder(self, line: int, cpus: List[int]) -> Optional[int]:
        """The CPU among *cpus* whose L2 holds *line* MODIFIED, or None."""
        ports = self.ports
        for i in cpus:
            if ports[i].l2.state_of(line) is MODIFIED:
                return i
        return None

    def _drop_from_l1(self, cpu: int, l2_line: int, coherence: bool) -> None:
        """Enforce inclusion: drop the L1 sublines of the L2 line at
        *l2_line*, telling the sink of each L1D line a coherence
        invalidation drops."""
        port = self.ports[cpu]
        end = l2_line + self.machine.l2.line_bytes
        sink = port.sink if coherence else None
        for l1 in (port.l1d, port.l1i):
            where = l1.where
            step = l1.line_bytes
            sub = l2_line - l2_line % step
            while sub < end:
                idx = where.pop(sub, None)
                if idx is not None:
                    l1._drop(idx)
                    if sink is not None:
                        sink.coherence_invalidate(sub)
                sub += step
            # Only a dropped L1D line is a later coherence miss.
            sink = None

    def _invalidate_remotes(self, cpu: int, line: int,
                            victims: List[int]) -> None:
        """Invalidate *line* in the caches of *victims*, the CPUs other
        than *cpu* that hold it (:meth:`_holders`), for *cpu*'s write."""
        adaptive = self.adaptive
        for i in victims:
            self.ports[i].l2.set_state(line, INVALID)
            self._drop_from_l1(i, line, coherence=True)
            if adaptive is not None:
                adaptive.on_invalidate(i, line)
        self.invalidations_sent += len(victims)
        if victims and self.probe is not None:
            self.probe.invalidate(cpu, line, victims)

    def _fill_l2(self, cpu: int, line: int, state: LineState, t: int) -> None:
        """Install *line* in *cpu*'s L2, handling eviction side effects.

        A dirty victim is written back on the bus (occupancy charged after
        the demand transfer, as a write-back buffer would); any victim's L1
        sublines are dropped for inclusion (a conflict, not a coherence,
        invalidation).
        """
        l2 = self.ports[cpu].l2
        evicted = l2.fill(line)
        idx = l2.where[line]
        # fill() leaves the frame's state alone: it is still the victim's.
        dirty = evicted != -1 and l2.states[idx] is MODIFIED
        l2.states[idx] = state
        if evicted != -1:
            self._drop_from_l1(cpu, evicted, False)
            if dirty:
                self.bus.acquire(t, self.line_transfer, BUS_WRITEBACK)
                self.writebacks += 1
        if self.probe is not None:
            self.probe.l2_install(cpu, line, evicted, dirty)
        if self.adaptive is not None:
            if evicted != -1:
                self.adaptive.on_invalidate(cpu, evicted)
            self.adaptive.on_fill(cpu, line)

    # ------------------------------------------------------------------
    # Demand read path
    # ------------------------------------------------------------------
    def fetch_shared(self, cpu: int, addr: int, t: int,
                     kind: int = BUS_READ_MEM) -> int:
        """L2 read miss: fetch the line for reading.  Returns ready time.

        Illinois: a cache holding the line supplies it (dirty holders write
        back and drop to SHARED); otherwise memory supplies it and the
        requester loads it EXCLUSIVE.
        """
        line = addr - addr % self.machine.l2.line_bytes
        if line in self.ports[cpu].l2.where:
            raise SimulationError(f"fetch_shared of resident line {line:#x}")
        # The directory mask of the other holders; most fills find none.
        others = self.holders.get(line, 0) & ~(1 << cpu)
        probe = self.probe
        if others:
            holders = holder_cpus(others)
            if probe is not None:
                # Before the state transition: the checker reads the
                # supplier's (possibly dirty) pre-transfer state.
                probe.fill_from_cache(cpu, line, holders)
            ready = self.bus.split_transaction(
                t, BUS_READ_CACHE, self.bus.params.cache_supply_cycles,
                self.line_transfer)
            for i in holders:
                self.ports[i].l2.set_state(line, SHARED)
            self.cache_to_cache += 1
            state = SHARED
        else:
            if probe is not None:
                probe.fill_from_memory(cpu, line)
            ready = self.bus.split_transaction(
                t, kind, self.bus.params.memory_access_cycles,
                self.line_transfer)
            state = EXCLUSIVE
        self._fill_l2(cpu, line, state, ready)
        if probe is not None:
            probe.fill(cpu, line, t, ready, others != 0, True)
        return ready

    def read_nofill(self, cpu: int, addr: int, t: int,
                    kind: int = BUS_READ_MEM) -> int:
        """Read a line over the bus without caching it (bypass schemes)."""
        line = self._l2_line(addr)
        dirty = self._dirty_holder(line, self._holders(line, cpu))
        probe = self.probe
        if dirty is not None:
            if probe is not None:
                probe.writeback(dirty, line)
            ready = self.bus.split_transaction(
                t, BUS_READ_CACHE, self.bus.params.cache_supply_cycles,
                self.line_transfer)
            # Illinois: the supplier writes back and keeps a SHARED copy.
            self.ports[dirty].l2.set_state(line, SHARED)
            self.cache_to_cache += 1
        else:
            ready = self.bus.split_transaction(
                t, kind, self.bus.params.memory_access_cycles,
                self.line_transfer)
        if probe is not None:
            probe.supply(cpu, line, t, ready, dirty is not None)
        return ready

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def upgrade(self, cpu: int, addr: int, t: int) -> int:
        """S -> M upgrade: invalidate other copies.  Returns completion.

        An attached update/invalidate policy routes the write to
        :meth:`adaptive_update` or to the invalidation below; with
        :attr:`update_everywhere` it is a broadcast update and the line
        stays SHARED.
        """
        line = self._l2_line(addr)
        port = self.ports[cpu]
        state = port.l2.state_of(line)
        if state == INVALID:
            raise SimulationError(f"upgrade of non-resident line {line:#x}")
        if self.adaptive is not None:
            decision = self.adaptive.decide(cpu, addr, line,
                                            self._holders(line, cpu))
            if self.probe is not None:
                self.probe.adaptive_decision(cpu, addr, line, decision)
            if decision.update:
                return self.adaptive_update(cpu, addr, t, decision)
        elif self.update_everywhere:
            return self.broadcast_update(cpu, addr, t)
        grant = self.bus.acquire(t, self.bus.params.invalidate_cycles,
                                 BUS_INVALIDATE)
        self._invalidate_remotes(cpu, line, self._holders(line, cpu))
        port.l2.set_state(line, MODIFIED)
        done = grant + self.bus.params.invalidate_cycles
        if self.probe is not None:
            self.probe.upgrade(cpu, line, t, done)
        return done

    def fetch_owned(self, cpu: int, addr: int, t: int) -> int:
        """Write miss at L2: read-for-ownership.  Returns ready time.

        A write the attached policy (or :attr:`update_everywhere`)
        routes to update instead fetches SHARED and broadcasts the
        write, leaving remote copies valid.  The other holders are read
        from the directory once, for the policy, the dirty-holder search
        and the invalidation: nothing in between changes another cache.
        """
        line = self._l2_line(addr)
        others = self._holders(line, cpu)
        probe = self.probe
        if self.adaptive is not None:
            decision = self.adaptive.decide(cpu, addr, line, others)
            if probe is not None:
                probe.adaptive_decision(cpu, addr, line, decision)
            if decision.update:
                ready = self.fetch_shared(cpu, addr, t)
                return self.adaptive_update(cpu, addr, ready, decision)
        elif self.update_everywhere:
            ready = self.fetch_shared(cpu, addr, t)
            return self.broadcast_update(cpu, addr, ready)
        dirty = self._dirty_holder(line, others)
        if probe is not None:
            probe.fill_for_ownership(cpu, line, dirty)
        if dirty is not None:
            ready = self.bus.split_transaction(
                t, BUS_OWNERSHIP, self.bus.params.cache_supply_cycles,
                self.line_transfer)
            self.cache_to_cache += 1
        else:
            ready = self.bus.split_transaction(
                t, BUS_OWNERSHIP, self.bus.params.memory_access_cycles,
                self.line_transfer)
        self._invalidate_remotes(cpu, line, others)
        self._fill_l2(cpu, line, MODIFIED, ready)
        if probe is not None:
            probe.fill(cpu, line, t, ready, dirty is not None, False)
        return ready

    def broadcast_update(self, cpu: int, addr: int, t: int) -> int:
        """Firefly write to a shared line: broadcast one word of data.

        Remote copies stay valid; memory is written through; the writer's
        copy stays SHARED while sharers exist, else becomes MODIFIED.
        """
        line = self._l2_line(addr)
        port = self.ports[cpu]
        if port.l2.state_of(line) == INVALID:
            raise SimulationError(f"update of non-resident line {line:#x}")
        grant = self.bus.acquire(t, self.bus.params.update_cycles, BUS_UPDATE)
        holders = self._holders(line, cpu)
        self.updates_sent += 1
        if holders:
            port.l2.set_state(line, SHARED)
        else:
            port.l2.set_state(line, MODIFIED)
        done = grant + self.bus.params.update_cycles
        if self.probe is not None:
            self.probe.update(cpu, addr, t, done, holders)
        return done

    def adaptive_update(self, cpu: int, addr: int, t: int,
                        decision) -> int:
        """Adaptive write to a shared line: update some holders, drop
        the rest.

        Mirrors :meth:`broadcast_update`'s bus timing exactly — one
        UPDATE transaction of ``update_cycles`` — because the
        over-budget subset is dropped by the holders' own snoop logic
        riding on that same transaction (a partial invalidation costs no
        extra bus time).  With an empty ``to_invalidate`` this is
        bit-identical to :meth:`broadcast_update`: the static policy's
        selective update costs what a page-set broadcast would.
        """
        line = self._l2_line(addr)
        port = self.ports[cpu]
        if port.l2.state_of(line) == INVALID:
            raise SimulationError(f"update of non-resident line {line:#x}")
        grant = self.bus.acquire(t, self.bus.params.update_cycles, BUS_UPDATE)
        adaptive = self.adaptive
        for i in decision.to_invalidate:
            self.ports[i].l2.set_state(line, INVALID)
            self._drop_from_l1(i, line, coherence=True)
            adaptive.on_invalidate(i, line)
        self.invalidations_sent += len(decision.to_invalidate)
        self.updates_sent += 1
        if decision.to_update:
            port.l2.set_state(line, SHARED)
        else:
            port.l2.set_state(line, MODIFIED)
        done = grant + self.bus.params.update_cycles
        probe = self.probe
        if probe is not None:
            if decision.to_invalidate:
                probe.invalidate(cpu, line, decision.to_invalidate)
            probe.update(cpu, addr, t, done, decision.to_update)
        return done

    def write_line_to_memory(self, cpu: int, line_addr: int, t: int,
                             kind: int = BUS_WRITEBACK,
                             invalidate_remotes: bool = True) -> int:
        """Push a full line to memory (bypassing stores, DMA destination).

        Other caches' copies are invalidated (invalidation protocol) unless
        the caller updates them itself (DMA does).
        """
        line = self._l2_line(line_addr)
        transfer = self.line_transfer
        grant = self.bus.acquire(t, transfer, kind)
        probe = self.probe
        if invalidate_remotes:
            self._invalidate_remotes(cpu, line, self._holders(line, cpu))
            # The writer's own stale copy (if any) is dropped too.
            port = self.ports[cpu]
            if port.l2.state_of(line) != INVALID:
                port.l2.set_state(line, INVALID)
                self._drop_from_l1(cpu, line, coherence=False)
                if probe is not None:
                    probe.invalidate(cpu, line, [cpu])
                if self.adaptive is not None:
                    self.adaptive.on_invalidate(cpu, line)
        done = grant + transfer
        if probe is not None:
            probe.line_to_memory(cpu, line, t, done, kind)
        return done

    # ------------------------------------------------------------------
    # DMA snooping support (section 4.2, Blk_Dma)
    # ------------------------------------------------------------------
    def dma_snoop_src(self, cpu: int, line_addr: int) -> bool:
        """Snoop a DMA source line; returns True when a cache supplied it.

        A MODIFIED holder supplies the data and (Illinois) drops to SHARED
        after writing back; clean copies are untouched.
        """
        line = self._l2_line(line_addr)
        for i in holder_cpus(self.holders.get(line, 0)):
            l2 = self.ports[i].l2
            if l2.state_of(line) == MODIFIED:
                if self.probe is not None:
                    self.probe.writeback(i, line)
                l2.set_state(line, SHARED)
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
        holders = holder_cpus(self.holders.get(line, 0))
        probe = self.probe
        for i in holders:
            l2 = self.ports[i].l2
            if (probe is not None
                    and l2.state_of(line) == MODIFIED):
                # A dirty holder flushes the line before the in-place
                # update, so dirty words outside the transferred range
                # survive the drop to SHARED.
                probe.writeback(i, line)
            l2.set_state(line, SHARED)
        return len(holders)

    # ------------------------------------------------------------------
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` on any coherence violation."""
        # The presence directory must equal the masks rebuilt from each
        # L2's residency map.
        expected: Dict[int, int] = {}
        for cpu, port in enumerate(self.ports):
            for line in port.l2.where:
                expected[line] = expected.get(line, 0) | 1 << cpu
        if self.holders != expected:
            bad = sorted(set(self.holders.items()) ^ set(expected.items()))
            raise SimulationError(
                f"presence directory diverged from the L2s at "
                f"(line, mask) {[(hex(l), bin(m)) for l, m in bad[:4]]}")
        for line, mask in expected.items():
            states = [self.ports[i].l2.state_of(line)
                      for i in holder_cpus(mask)]
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
