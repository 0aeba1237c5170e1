"""Unit tests for the adaptive update/invalidate policy layer.

These drive :mod:`repro.memsys.adaptive` directly — no simulator — to pin
the decision semantics the conformance shadow re-derives: budget
lifecycles (decrement, reset on bus-visible re-reference, drop on
exhaustion), sharing-epoch mode switching, page routing, and the
dispatcher.  Controller-level integration is covered by the conformance
suite and ``tests/test_adaptive_properties.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import SimulationError
from repro.common.types import AdaptivePolicy
from repro.memsys.adaptive import (AdaptiveDecision, DegreePolicy,
                                   StaticHybridPolicy, UpdateNPolicy,
                                   build_policy)
from repro.sim.config import all_configs

PAGE = 4096
LINE = 0x1000


def _fill(p, cpu, line):
    """Install *line* in *cpu*'s (modelled) L2, as the controller does:
    the presence directory changes first, then the policy hears of it."""
    p.holders[line] = p.holders.get(line, 0) | 1 << cpu
    p.on_fill(cpu, line)


def _drop(p, cpu, line):
    """Drop *cpu*'s copy of *line* (a no-op when it holds none)."""
    mask = p.holders.get(line, 0) & ~(1 << cpu)
    if mask:
        p.holders[line] = mask
    else:
        p.holders.pop(line, None)
    p.on_invalidate(cpu, line)


class TestUpdateNPolicy:
    def test_budget_decrements_then_drops(self):
        p = UpdateNPolicy(PAGE, n=2)
        _fill(p, 0, LINE)
        _fill(p, 1, LINE)
        # Two budgeted updates...
        for _ in range(2):
            d = p.decide(0, LINE, LINE, [1])
            assert d == AdaptiveDecision(True, (1,), ())
        # ...then the copy is dry: the write routes to invalidation.
        d = p.decide(0, LINE, LINE, [1])
        assert d == AdaptiveDecision(False, (), (1,))
        assert p.update_writes == 2
        assert p.invalidate_writes == 1

    def test_fill_resets_budget(self):
        p = UpdateNPolicy(PAGE, n=1)
        _fill(p, 0, LINE)
        _fill(p, 1, LINE)
        assert p.decide(0, LINE, LINE, [1]).update
        assert not p.decide(0, LINE, LINE, [1]).update
        # A re-fill is a bus-visible local re-reference: budget is fresh.
        _fill(p, 1, LINE)
        assert p.decide(0, LINE, LINE, [1]).update

    def test_writers_own_budget_resets_on_write(self):
        # cpu1's writes to the line reset cpu1's own budget, so alternating
        # writers keep updating each other indefinitely.
        p = UpdateNPolicy(PAGE, n=1)
        _fill(p, 0, LINE)
        _fill(p, 1, LINE)
        for _ in range(4):
            assert p.decide(0, LINE, LINE, [1]).update
            assert p.decide(1, LINE, LINE, [0]).update
        assert p.update_writes == 8

    def test_partial_drop_partitions_holders(self):
        p = UpdateNPolicy(PAGE, n=1)
        for cpu in (0, 1, 2):
            _fill(p, cpu, LINE)
        assert p.decide(0, LINE, LINE, [1, 2]) == AdaptiveDecision(
            True, (1, 2), ())
        # cpu2 re-references; cpu1's budget stays spent.
        _fill(p, 2, LINE)
        d = p.decide(0, LINE, LINE, [1, 2])
        assert d == AdaptiveDecision(True, (2,), (1,))
        assert p.budget_drops == 1

    def test_invalidate_clears_budget_entry(self):
        p = UpdateNPolicy(PAGE, n=1)
        _fill(p, 1, LINE)
        assert p.decide(0, LINE, LINE, [1]).update
        assert dict(p.counters()) == {(1, LINE): 0}
        _drop(p, 1, LINE)
        assert dict(p.counters()) == {}

    def test_n_zero_always_invalidates(self):
        p = UpdateNPolicy(PAGE, n=0)
        _fill(p, 1, LINE)
        assert p.decide(0, LINE, LINE, [1]) == AdaptiveDecision(
            False, (), (1,))

    def test_negative_n_rejected(self):
        with pytest.raises(SimulationError):
            UpdateNPolicy(PAGE, n=-1)

    def test_describe_and_snapshot(self):
        p = UpdateNPolicy(PAGE, n=3)
        assert p.describe() == {"kind": AdaptivePolicy.UPDATE_N,
                                "page_bytes": PAGE, "n": 3}
        _fill(p, 0, LINE)
        _fill(p, 1, LINE)
        p.decide(0, LINE, LINE, [1])
        residency, budgets = p.state_snapshot()
        assert residency == ((LINE, (0, 1)),)
        assert budgets == (((1, LINE), 2),)


class TestDegreePolicy:
    def test_updates_within_threshold(self):
        p = DegreePolicy(PAGE, threshold=2)
        for cpu in (0, 1, 2):
            _fill(p, cpu, LINE)
        assert p.decide(0, LINE, LINE, [1, 2]) == AdaptiveDecision(
            True, (1, 2), ())

    def test_switches_past_threshold_and_stays_switched(self):
        p = DegreePolicy(PAGE, threshold=2)
        for cpu in (0, 1, 2, 3):
            _fill(p, cpu, LINE)
        assert p.decide(0, LINE, LINE, [1, 2, 3]) == AdaptiveDecision(
            False, (), (1, 2, 3))
        # Sticky for the rest of the epoch, even at lower degree.
        assert p.decide(0, LINE, LINE, [1]) == AdaptiveDecision(
            False, (), (1,))

    def test_epoch_ends_when_line_leaves_every_cache(self):
        p = DegreePolicy(PAGE, threshold=1)
        for cpu in (0, 1, 2):
            _fill(p, cpu, LINE)
        assert not p.decide(0, LINE, LINE, [1, 2]).update
        for cpu in (0, 1, 2):
            _drop(p, cpu, LINE)
        # New epoch: back in update mode.
        _fill(p, 0, LINE)
        _fill(p, 1, LINE)
        assert p.decide(0, LINE, LINE, [1]).update

    def test_unshared_write_resets_mode(self):
        p = DegreePolicy(PAGE, threshold=1)
        for cpu in (0, 1, 2):
            _fill(p, cpu, LINE)
        assert not p.decide(0, LINE, LINE, [1, 2]).update
        assert p.decide(0, LINE, LINE, []) == AdaptiveDecision(
            False, (), ())
        assert p.decide(0, LINE, LINE, [1]).update

    def test_bad_threshold_rejected(self):
        with pytest.raises(SimulationError):
            DegreePolicy(PAGE, threshold=0)

    def test_describe(self):
        assert DegreePolicy(PAGE, threshold=4).describe() == {
            "kind": AdaptivePolicy.DEGREE, "page_bytes": PAGE,
            "threshold": 4}


class TestStaticHybridPolicy:
    def test_routes_by_page(self):
        p = StaticHybridPolicy(PAGE, pages=[3 * PAGE + 17])  # unaligned ok
        _fill(p, 0, LINE)
        _fill(p, 1, LINE)
        on_page = 3 * PAGE + 8
        off_page = 5 * PAGE
        assert p.decide(0, on_page, LINE, [1]) == AdaptiveDecision(
            True, (1,), ())
        assert p.decide(0, off_page, LINE, [1]) == AdaptiveDecision(
            False, (), (1,))

    def test_update_page_write_through_without_holders(self):
        # Firefly writes through even with no remote copy — required for
        # exact BCoh_RelUp equivalence.
        p = StaticHybridPolicy(PAGE, pages=[0])
        assert p.decide(0, 8, LINE, []) == AdaptiveDecision(True, (), ())

    def test_no_pages_always_invalidates(self):
        p = StaticHybridPolicy(PAGE)
        assert p.decide(0, 8, LINE, [1, 2]) == AdaptiveDecision(
            False, (), (1, 2))

    def test_describe_carries_aligned_pages(self):
        p = StaticHybridPolicy(PAGE, pages=[PAGE + 1, 2 * PAGE])
        assert p.describe()["pages"] == frozenset({PAGE, 2 * PAGE})


class TestBuildPolicy:
    def test_dispatch(self):
        cfgs = all_configs()
        p = build_policy(cfgs["Hyb_UpdN"])
        assert isinstance(p, UpdateNPolicy)
        assert p.n == cfgs["Hyb_UpdN"].adaptive_n
        p = build_policy(cfgs["Hyb_Deg"])
        assert isinstance(p, DegreePolicy)
        assert p.threshold == cfgs["Hyb_Deg"].degree_threshold
        p = build_policy(cfgs["Hyb_Static"], update_pages=[PAGE + 5])
        assert isinstance(p, StaticHybridPolicy)

    def test_page_bytes_comes_from_machine(self):
        cfg = all_configs()["Hyb_Static"]
        p = build_policy(cfg, update_pages=[0])
        assert p.page_bytes == cfg.machine.page_bytes

    def test_unknown_kind_rejected(self):
        cfg = dataclasses.replace(all_configs()["Hyb_UpdN"], adaptive=None)
        with pytest.raises(SimulationError):
            build_policy(cfg)

    def test_residency_is_idempotent_and_epochal(self):
        p = build_policy(all_configs()["Hyb_UpdN"])
        _fill(p, 0, LINE)
        _fill(p, 0, LINE)
        _drop(p, 0, LINE)
        _drop(p, 0, LINE)       # double-drop is a no-op
        _drop(p, 1, 2 * LINE)   # never-filled line is a no-op
        assert p.state_snapshot() == ((), ())
