"""Per-line adaptive update/invalidate policies (the hybrid schemes).

The paper's ``BCoh_RelUp`` runs the Firefly update protocol on one
384-byte page set; the hybrid literature (Dovgopol & Rosonke's
update-once / competitive schemes) treats that static page split as one
point of a space of *per-line* decisions.  This module implements three
such policies as a thin layer on
:class:`~repro.memsys.coherence.CoherenceController`:

``UpdateNPolicy`` (``Hyb_UpdN``)
    Competitive update-N-then-invalidate.  Every remote copy of a line
    carries a budget of N broadcast updates; each update it receives
    decrements the budget, and a bus-visible local re-reference (a fill
    of the line, or the holder's own write to it) resets the budget to N.
    A copy whose budget is exhausted is dropped by the next update
    transaction (a snoop-side partial invalidation riding on the same bus
    cycle) instead of receiving the broadcast; once no copy has budget
    left, the write takes the plain invalidation path.  N = 0 therefore
    degenerates to the pure invalidation protocol.

``DegreePolicy`` (``Hyb_Deg``)
    Sharing-degree switching.  A write to a line with 1..threshold remote
    sharers broadcasts an update; a write that sees more sharers than the
    threshold switches the line to invalidate mode for the rest of its
    *sharing epoch* — until the line has left every cache (or a write
    finds no remote copies at all), at which point the next epoch starts
    fresh in update mode.

``StaticHybridPolicy`` (``BCoh_RelUp``, ``BCPref``, ``Hyb_Static``)
    The per-page hybrid: unbounded updates on the configured pages,
    invalidation everywhere else — the N=infinity-on-sync-pages point.
    Every ``selective_update`` configuration runs on it, so section
    5.2's selective update has this one implementation.

Design constraints (why the hooks look the way they do):

* Policies are consulted **only on bus-level write paths**
  (:meth:`~repro.memsys.coherence.CoherenceController.upgrade` and
  :meth:`~repro.memsys.coherence.CoherenceController.fetch_owned`), so a
  system without a policy pays one attribute test per bus write, and the
  processor's inline hit paths — which never enter the controller — are
  unaffected by every policy.
* "Local re-reference" is deliberately defined as *bus-visible* activity
  (fills, the holder's own bus writes): cache hits are invisible to a
  snooping bus agent, and wrapping the hit path would break the zero-cost
  contract above.
* :meth:`AdaptivePolicy.decide` is one-shot: it computes the decision
  *and* applies the policy's own bookkeeping (budget decrements, mode
  switches), so the controller executes exactly what was decided and the
  conformance shadow (:mod:`repro.check.invariants`) can replay the same
  transition deterministically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.common.types import AdaptivePolicy as PolicyKind
from repro.memsys.cache import holder_cpus

class AdaptiveDecision(NamedTuple):
    """What one bus-level write should do, as decided by a policy.

    ``update`` selects the route: ``True`` runs
    :meth:`~repro.memsys.coherence.CoherenceController.adaptive_update`
    (broadcast to ``to_update``, snoop-drop ``to_invalidate``);
    ``False`` falls through to the plain invalidation path, where
    ``to_update`` is always empty and ``to_invalidate`` lists the remote
    holders the invalidation will drop.
    """

    update: bool
    to_update: Tuple[int, ...]
    to_invalidate: Tuple[int, ...]


class BaseAdaptivePolicy:
    """Common bookkeeping: residency view and event hooks.

    Subclasses implement :meth:`decide`.  Residency is read from the
    controller's presence directory (:attr:`holders`, bound by
    :meth:`~repro.memsys.coherence.CoherenceController.attach_policy`),
    which the L2s keep exact; the policy never writes it.  The
    controller reports residency changes through :meth:`on_fill` /
    :meth:`on_invalidate` *after* they reach the directory, at exactly
    the points where the checker's ``l2_install`` / ``invalidate`` hooks
    fire, so the conformance shadow sees the same event stream.
    """

    kind: PolicyKind

    def __init__(self, page_bytes: int) -> None:
        self.page_bytes = page_bytes
        #: line -> bitmask of the cpus holding a copy (writer included);
        #: private and empty until a controller binds its directory.
        self.holders: Dict[int, int] = {}
        # Statistics (reporting only; never consulted by decide()).
        self.update_writes = 0
        self.invalidate_writes = 0
        self.budget_drops = 0

    # -- events from the controller ------------------------------------
    def on_fill(self, cpu: int, line: int) -> None:
        """*cpu* installed *line* (a bus-visible local re-reference)."""

    def on_invalidate(self, cpu: int, line: int) -> None:
        """*cpu*'s copy of *line* was invalidated or evicted."""
        if line not in self.holders:
            self._line_gone(line)

    def _line_gone(self, line: int) -> None:
        """The line left every cache (end of its sharing epoch)."""

    # -- the decision ---------------------------------------------------
    def decide(self, cpu: int, addr: int, line: int,
               holders: List[int]) -> AdaptiveDecision:
        raise NotImplementedError

    # -- introspection (tests, checker) ---------------------------------
    def describe(self) -> Dict[str, object]:
        """Parameters the conformance shadow rebuilds itself from."""
        return {"kind": self.kind, "page_bytes": self.page_bytes}

    def counters(self) -> Iterable[Tuple[Tuple[int, int], int]]:
        """Live ``((cpu, line), budget)`` pairs; empty unless budgeted."""
        return ()

    def state_snapshot(self) -> Tuple:
        """Hashable snapshot of all decision state (determinism tests)."""
        return (tuple(sorted((line, tuple(holder_cpus(mask)))
                             for line, mask in self.holders.items())),)


class UpdateNPolicy(BaseAdaptivePolicy):
    """Competitive update-N-then-invalidate counters."""

    kind = PolicyKind.UPDATE_N

    def __init__(self, page_bytes: int, n: int) -> None:
        super().__init__(page_bytes)
        if n < 0:
            raise SimulationError(f"adaptive_n must be >= 0, got {n}")
        self.n = n
        #: (cpu, line) -> remaining updates.  A missing key means a
        #: fresh budget of N; entries are dropped (reset) on any
        #: bus-visible local re-reference and on invalidation/eviction.
        self._budget: Dict[Tuple[int, int], int] = {}

    def on_fill(self, cpu: int, line: int) -> None:
        super().on_fill(cpu, line)
        self._budget.pop((cpu, line), None)

    def on_invalidate(self, cpu: int, line: int) -> None:
        super().on_invalidate(cpu, line)
        self._budget.pop((cpu, line), None)

    def decide(self, cpu: int, addr: int, line: int,
               holders: List[int]) -> AdaptiveDecision:
        # The write is a local re-reference by the writer itself.
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
        for i in to_update:
            budget[(i, line)] = budget.get((i, line), n) - 1
        self.update_writes += 1
        self.budget_drops += len(to_invalidate)
        return AdaptiveDecision(True, tuple(to_update),
                                tuple(to_invalidate))

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d["n"] = self.n
        return d

    def counters(self) -> Iterable[Tuple[Tuple[int, int], int]]:
        return self._budget.items()

    def state_snapshot(self) -> Tuple:
        return super().state_snapshot() + (
            tuple(sorted(self._budget.items())),)


class DegreePolicy(BaseAdaptivePolicy):
    """Sharing-degree-triggered update -> invalidate switching."""

    kind = PolicyKind.DEGREE

    def __init__(self, page_bytes: int, threshold: int) -> None:
        super().__init__(page_bytes)
        if threshold < 1:
            raise SimulationError(
                f"degree_threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        #: Lines switched to invalidate mode for their current epoch.
        self._invalidate_mode: Set[int] = set()

    def _line_gone(self, line: int) -> None:
        self._invalidate_mode.discard(line)

    def decide(self, cpu: int, addr: int, line: int,
               holders: List[int]) -> AdaptiveDecision:
        degree = len(holders)
        if degree == 0:
            # No remote copies: plain ownership is exact and cheaper,
            # and the epoch's mode resets for the next sharing phase.
            self._invalidate_mode.discard(line)
            self.invalidate_writes += 1
            return AdaptiveDecision(False, (), ())
        if line in self._invalidate_mode or degree > self.threshold:
            self._invalidate_mode.add(line)
            self.invalidate_writes += 1
            return AdaptiveDecision(False, (), tuple(holders))
        self.update_writes += 1
        return AdaptiveDecision(True, tuple(holders), ())

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d["threshold"] = self.threshold
        return d

    def state_snapshot(self) -> Tuple:
        return super().state_snapshot() + (
            tuple(sorted(self._invalidate_mode)),)


class StaticHybridPolicy(BaseAdaptivePolicy):
    """Unbounded updates on the configured pages, invalidate elsewhere.

    This is section 5.2's selective update: the update route is taken
    for every write to a configured page — including writes that find
    no remote copy (the Firefly write-through).
    """

    kind = PolicyKind.STATIC

    def __init__(self, page_bytes: int,
                 pages: Optional[Iterable[int]] = None) -> None:
        super().__init__(page_bytes)
        self.pages: Set[int] = {p - (p % page_bytes) for p in pages or ()}

    def decide(self, cpu: int, addr: int, line: int,
               holders: List[int]) -> AdaptiveDecision:
        page = addr - (addr % self.page_bytes)
        if page in self.pages:
            self.update_writes += 1
            return AdaptiveDecision(True, tuple(holders), ())
        self.invalidate_writes += 1
        return AdaptiveDecision(False, (), tuple(holders))

    def describe(self) -> Dict[str, object]:
        d = super().describe()
        d["pages"] = frozenset(self.pages)
        return d

    def state_snapshot(self) -> Tuple:
        return super().state_snapshot() + (tuple(sorted(self.pages)),)


def build_policy(config, update_pages: Optional[Iterable[int]] = None
                 ) -> BaseAdaptivePolicy:
    """Instantiate the policy a :class:`SystemConfig` selects.

    *update_pages* feeds :class:`StaticHybridPolicy` (the runner's
    update-core selection); the other policies are page-agnostic and
    ignore them.
    """
    kind = config.adaptive
    page_bytes = config.machine.page_bytes
    if kind == PolicyKind.UPDATE_N:
        return UpdateNPolicy(page_bytes, config.adaptive_n)
    if kind == PolicyKind.DEGREE:
        return DegreePolicy(page_bytes, config.degree_threshold)
    if kind == PolicyKind.STATIC:
        return StaticHybridPolicy(page_bytes, update_pages)
    raise SimulationError(f"unknown adaptive policy {kind!r}")
