"""Deliberate protocol bugs, for pinning the harness's detection power.

Each mutant is a context manager that patches one protocol method with a
copy that omits exactly one coherence action — the classic bug classes of
snooping-protocol implementations.  The conformance checker (or its final
oracle diff) must catch every one of them; ``tests/test_conformance_mutants.py``
and ``python -m repro.check --mutants`` enforce that.

The patched bodies replicate the originals — including the checker hooks,
so the shadow model keeps following the (now buggy) data movement — minus
the single omitted action.  Keep them in sync when the originals change.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, Tuple

from repro.common.errors import SimulationError
from repro.memsys.bus import BusOp
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.states import LineState


@contextlib.contextmanager
def skip_invalidation() -> Iterator[None]:
    """An S->M upgrade forgets to invalidate the other sharers.

    Expected catch: ``owned-and-shared`` (SWMR) at the very write, or a
    ``stale-read`` when a forgotten sharer reads its outdated copy.
    """
    orig = CoherenceController.upgrade

    def upgrade(self, cpu, addr, t):
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
        # BUG: self._invalidate_remotes(cpu, line) is never called.
        port.l2.set_state(line, LineState.MODIFIED)
        return grant + self.bus.params.invalidate_cycles

    CoherenceController.upgrade = upgrade
    try:
        yield
    finally:
        CoherenceController.upgrade = orig


@contextlib.contextmanager
def stale_cache_supply() -> Iterator[None]:
    """A read miss is served from memory although a holder is dirty.

    The dirty holder neither supplies the line nor writes it back; the
    requester fills with the stale memory image.  Expected catch:
    ``stale-read`` on the requester's very read (or
    ``clean-copy-diverged`` in the final diff).
    """
    orig = CoherenceController.fetch_shared

    def fetch_shared(self, cpu, addr, t, kind=BusOp.READ_MEM):
        line = self._l2_line(addr)
        port = self.ports[cpu]
        if port.l2.state_of(line) != LineState.INVALID:
            raise SimulationError(f"fetch_shared of resident line {line:#x}")
        holders = self._holders(line, cpu)
        if holders:
            # BUG: data comes from memory, ignoring the (possibly dirty)
            # cached copies; states still transition as if supplied.
            if self.checker is not None:
                self.checker.fill_from_memory(cpu, line)
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

    CoherenceController.fetch_shared = fetch_shared
    try:
        yield
    finally:
        CoherenceController.fetch_shared = orig


@contextlib.contextmanager
def lost_dirty_bit() -> Iterator[None]:
    """A write hitting an owned L2 line never sets the dirty bit.

    The line stays EXCLUSIVE, so its eviction (or final state) silently
    drops the write.  Expected catch: ``clean-copy-diverged`` or
    ``lost-write`` in the final diff.
    """
    orig = CpuMemorySystem._drain_word

    def _drain_word(self, addr, start):
        l2 = self.l2
        idx = l2.where.get(addr - addr % l2.line_bytes)
        if idx is None:
            state = LineState.INVALID
        else:
            state = l2.states[idx]
            if state is LineState.MODIFIED or state is LineState.EXCLUSIVE:
                # BUG: the E->M transition is dropped.
                if self._touch_l2 is not None:
                    self._touch_l2(addr)
                return start + self.machine.write_buffers.l1_drain_cycles
        controller = self.controller
        if state == LineState.SHARED:
            if controller.is_update_addr(addr):
                service = lambda s: controller.broadcast_update(
                    self.cpu_id, addr, s)
            else:
                service = lambda s: controller.upgrade(self.cpu_id, addr, s)
        else:
            service = lambda s: controller.fetch_owned(self.cpu_id, addr, s)
        insert_t, _ = self.wb2.enqueue(start, service)
        return insert_t + 1

    CpuMemorySystem._drain_word = _drain_word
    try:
        yield
    finally:
        CpuMemorySystem._drain_word = orig


@contextlib.contextmanager
def dma_stale_source() -> Iterator[None]:
    """The DMA engine never snoops dirty source lines.

    A MODIFIED holder keeps its data to itself, so the engine pipelines
    the stale memory image to the destination.  Expected catch:
    ``dma-stale-source`` at the transfer.  Needs a ``Blk_Dma``-family
    configuration to trigger.
    """
    orig = CoherenceController.dma_snoop_src

    def dma_snoop_src(self, cpu, line_addr):
        # BUG: no holder scan, no write-back, no supply.
        return False

    CoherenceController.dma_snoop_src = dma_snoop_src
    try:
        yield
    finally:
        CoherenceController.dma_snoop_src = orig


@contextlib.contextmanager
def adaptive_counter_stuck() -> Iterator[None]:
    """The update-N policy never decrements its budgets.

    Every remote copy looks perpetually fresh, so broadcasts keep going
    to copies whose budget the clean logic says is exhausted.  Expected
    catch: ``update-past-budget`` on the (N+1)-th consecutive update to
    the same copy.
    """
    from repro.memsys.adaptive import AdaptiveDecision, UpdateNPolicy
    orig = UpdateNPolicy.decide

    def decide(self, cpu, addr, line, holders):
        self._budget.pop((cpu, line), None)
        budget = self._budget
        n = self.n
        to_update = []
        to_invalidate = []
        for i in holders:
            if budget.get((i, line), n) > 0:
                to_update.append(i)
            else:
                to_invalidate.append(i)
        if not to_update:
            self.invalidate_writes += 1
            return AdaptiveDecision(False, (), tuple(holders))
        # BUG: the per-copy budgets are never decremented.
        self.update_writes += 1
        self.budget_drops += len(to_invalidate)
        return AdaptiveDecision(True, tuple(to_update),
                                tuple(to_invalidate))

    UpdateNPolicy.decide = decide
    try:
        yield
    finally:
        UpdateNPolicy.decide = orig


@contextlib.contextmanager
def adaptive_threshold_off_by_one() -> Iterator[None]:
    """The degree policy switches one sharer too late.

    A write seeing exactly ``threshold + 1`` remote copies still
    broadcasts an update instead of switching the line to invalidate
    mode.  Expected catch: ``adaptive-decision-mismatch`` at that write.
    """
    from repro.memsys.adaptive import AdaptiveDecision, DegreePolicy
    orig = DegreePolicy.decide

    def decide(self, cpu, addr, line, holders):
        degree = len(holders)
        if degree == 0:
            self._invalidate_mode.discard(line)
            self.invalidate_writes += 1
            return AdaptiveDecision(False, (), ())
        # BUG: off-by-one — the switch fires at threshold + 2 sharers.
        if line in self._invalidate_mode or degree > self.threshold + 1:
            self._invalidate_mode.add(line)
            self.invalidate_writes += 1
            return AdaptiveDecision(False, (), tuple(holders))
        self.update_writes += 1
        return AdaptiveDecision(True, tuple(holders), ())

    DegreePolicy.decide = decide
    try:
        yield
    finally:
        DegreePolicy.decide = orig


@contextlib.contextmanager
def stale_update_after_switch() -> Iterator[None]:
    """The update transaction never drops the over-budget copies.

    The decision is computed correctly, but the snoop-side partial
    invalidation is lost: copies past their budget stay resident *and*
    miss the broadcast data.  Expected catch: ``owned-and-shared`` at the
    write when every copy is over budget, or a ``stale-read`` /
    ``clean-copy-diverged`` when a surviving stale copy is consulted.
    """
    orig = CoherenceController.adaptive_update

    def adaptive_update(self, cpu, addr, t, decision):
        line = self._l2_line(addr)
        port = self.ports[cpu]
        if port.l2.state_of(line) == LineState.INVALID:
            raise SimulationError(f"update of non-resident line {line:#x}")
        grant = self.bus.acquire(t, self.bus.params.update_cycles,
                                 BusOp.UPDATE)
        # BUG: decision.to_invalidate is never dropped — those copies
        # stay resident with pre-write data.
        if self.checker is not None:
            self.checker.update_word(cpu, addr, list(decision.to_update))
        self.updates_sent += 1
        if decision.to_update:
            port.l2.set_state(line, LineState.SHARED)
        else:
            port.l2.set_state(line, LineState.MODIFIED)
        return grant + self.bus.params.update_cycles

    CoherenceController.adaptive_update = adaptive_update
    try:
        yield
    finally:
        CoherenceController.adaptive_update = orig


#: name -> (mutant context manager, configurations that can expose it).
MUTANTS: Dict[str, Tuple[Callable[[], "contextlib.AbstractContextManager"],
                         Tuple[str, ...]]] = {
    "skip_invalidation": (skip_invalidation,
                          ("Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref")),
    "stale_cache_supply": (stale_cache_supply,
                           ("Base", "Blk_Pref", "Blk_Bypass")),
    "lost_dirty_bit": (lost_dirty_bit, ("Base", "Blk_Dma")),
    "dma_stale_source": (dma_stale_source,
                         ("Blk_Dma", "BCoh_Reloc", "BCoh_RelUp", "BCPref")),
    "adaptive_counter_stuck": (adaptive_counter_stuck, ("Hyb_UpdN",)),
    "adaptive_threshold_off_by_one": (adaptive_threshold_off_by_one,
                                      ("Hyb_Deg",)),
    "stale_update_after_switch": (stale_update_after_switch, ("Hyb_UpdN",)),
}


def mutant(name: str):
    """Context manager for the named mutant; raises KeyError if unknown."""
    return MUTANTS[name][0]()
