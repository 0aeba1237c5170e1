"""Deliberate protocol bugs, for pinning the harness's detection power.

Each mutant is a context manager that patches one protocol method with a
copy that omits exactly one coherence action — the classic bug classes of
snooping-protocol implementations.  The conformance checker (or its final
oracle diff) must catch every one of them; ``tests/test_conformance_mutants.py``
and ``python -m repro.check --mutants`` enforce that.

The patched bodies replicate the originals — including the probe hooks,
so the checker's oracle and shadow model keep following the (now buggy)
data movement — minus the single omitted action (``lost_dirty_bit``
instead runs the original write and reverts the one state transition).
Keep them in sync when the originals change.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, Tuple

from repro.common.errors import SimulationError
from repro.memsys.bus import BusOp
from repro.memsys.cache import holder_cpus
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
            if self.probe is not None:
                self.probe.adaptive_decision(cpu, addr, line, decision)
            if decision.update:
                return self.adaptive_update(cpu, addr, t, decision)
        elif self.update_everywhere:
            return self.broadcast_update(cpu, addr, t)
        grant = self.bus.acquire(t, self.bus.params.invalidate_cycles,
                                 BusOp.INVALIDATE)
        # BUG: self._invalidate_remotes(cpu, line, ...) is never called.
        port.l2.set_state(line, LineState.MODIFIED)
        done = grant + self.bus.params.invalidate_cycles
        if self.probe is not None:
            self.probe.upgrade(cpu, line, t, done)
        return done

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
        line = addr - addr % self.machine.l2.line_bytes
        if line in self.ports[cpu].l2.where:
            raise SimulationError(f"fetch_shared of resident line {line:#x}")
        others = self.holders.get(line, 0) & ~(1 << cpu)
        probe = self.probe
        if others:
            holders = holder_cpus(others)
            # BUG: data comes from memory, ignoring the (possibly dirty)
            # cached copies; states still transition as if supplied.
            if probe is not None:
                probe.fill_from_memory(cpu, line)
            ready = self.bus.split_transaction(
                t, BusOp.READ_CACHE, self.bus.params.cache_supply_cycles,
                self.line_transfer)
            for i in holders:
                self.ports[i].l2.set_state(line, LineState.SHARED)
            self.cache_to_cache += 1
            state = LineState.SHARED
        else:
            if probe is not None:
                probe.fill_from_memory(cpu, line)
            ready = self.bus.split_transaction(
                t, kind, self.bus.params.memory_access_cycles,
                self.line_transfer)
            state = LineState.EXCLUSIVE
        self._fill_l2(cpu, line, state, ready)
        if probe is not None:
            probe.fill(cpu, line, t, ready, others != 0, True)
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
    ``lost-write`` in the final diff.  ``Processor.step`` resolves clean
    writes itself only while no probe is attached, so under the checker
    every write reaches the patched method.
    """
    orig = CpuMemorySystem.write

    def write(self, addr, t):
        # BUG: the E->M transition is dropped.  The buffered write itself
        # (timing, probe hooks) is the original's; only the line's state
        # is put back afterwards.
        clean = self.l2.state_of(addr) == LineState.EXCLUSIVE
        out = orig(self, addr, t)
        if clean:
            self.l2.set_state(addr, LineState.EXCLUSIVE)
        return out

    CpuMemorySystem.write = write
    try:
        yield
    finally:
        CpuMemorySystem.write = orig


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
        self.updates_sent += 1
        if decision.to_update:
            port.l2.set_state(line, LineState.SHARED)
        else:
            port.l2.set_state(line, LineState.MODIFIED)
        done = grant + self.bus.params.update_cycles
        if self.probe is not None:
            self.probe.update(cpu, addr, t, done, decision.to_update)
        return done

    CoherenceController.adaptive_update = adaptive_update
    try:
        yield
    finally:
        CoherenceController.adaptive_update = orig


@contextlib.contextmanager
def static_update_skips_holder() -> Iterator[None]:
    """The static policy leaves one remote copy out of an update.

    A write to an update page broadcasts to every holder but the last,
    which is neither updated nor invalidated and keeps pre-write data.
    Expected catch: ``adaptive-decision-mismatch`` at that write.
    Needs a ``selective_update`` configuration (``BCoh_RelUp``).
    """
    from repro.memsys.adaptive import AdaptiveDecision, StaticHybridPolicy
    orig = StaticHybridPolicy.decide

    def decide(self, cpu, addr, line, holders):
        page = addr - (addr % self.page_bytes)
        if page in self.pages:
            self.update_writes += 1
            # BUG: the last holder is dropped from the update set.
            return AdaptiveDecision(True, tuple(holders[:-1]), ())
        self.invalidate_writes += 1
        return AdaptiveDecision(False, (), tuple(holders))

    StaticHybridPolicy.decide = decide
    try:
        yield
    finally:
        StaticHybridPolicy.decide = orig


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
    "static_update_skips_holder": (static_update_skips_holder,
                                   ("BCoh_RelUp",)),
}


def mutant(name: str):
    """Context manager for the named mutant; raises KeyError if unknown."""
    return MUTANTS[name][0]()
