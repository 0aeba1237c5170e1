"""Unit tests for the Illinois/Firefly coherence controller."""

import pytest

from repro.common.errors import SimulationError
from repro.memsys.adaptive import StaticHybridPolicy
from repro.memsys.bus import BusOp
from repro.memsys.states import LineState

LINE = 0x10000  # an arbitrary L2-line-aligned address


class TestFetchShared:
    def test_memory_fetch_latency_is_51(self, rig):
        ready = rig.controller.fetch_shared(0, LINE, 100)
        assert ready == 151
        assert rig[0].l2.state_of(LINE) == LineState.EXCLUSIVE

    def test_unshared_line_loads_exclusive(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        assert rig[0].l2.state_of(LINE) == LineState.EXCLUSIVE
        assert rig[1].l2.state_of(LINE) == LineState.INVALID

    def test_second_reader_gets_cache_supply(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        ready = rig.controller.fetch_shared(1, LINE, 1000)
        # request (5) + cache supply (10) + transfer (20) = 35.
        assert ready == 1035
        assert rig[0].l2.state_of(LINE) == LineState.SHARED
        assert rig[1].l2.state_of(LINE) == LineState.SHARED
        assert rig.controller.cache_to_cache == 1

    def test_dirty_supplier_drops_to_shared(self, rig):
        rig.controller.fetch_owned(0, LINE, 0)
        assert rig[0].l2.state_of(LINE) == LineState.MODIFIED
        rig.controller.fetch_shared(1, LINE, 1000)
        assert rig[0].l2.state_of(LINE) == LineState.SHARED
        assert rig[1].l2.state_of(LINE) == LineState.SHARED

    def test_fetch_of_resident_line_rejected(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        with pytest.raises(SimulationError):
            rig.controller.fetch_shared(0, LINE, 100)

    def test_dirty_eviction_writes_back(self, rig):
        conflicting = LINE + rig.machine.l2.size_bytes
        rig.controller.fetch_owned(0, LINE, 0)
        rig.controller.fetch_shared(0, conflicting, 1000)
        assert rig.controller.writebacks == 1
        assert not rig[0].l2.present(LINE)

    def test_eviction_drops_l1_sublines(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        rig[0].l1d.fill(LINE)
        rig[0].l1d.fill(LINE + 16)
        conflicting = LINE + rig.machine.l2.size_bytes
        rig.controller.fetch_shared(0, conflicting, 1000)
        assert not rig[0].l1d.present(LINE)
        assert not rig[0].l1d.present(LINE + 16)
        # Inclusion eviction is a conflict, not a coherence, invalidation.
        assert LINE not in rig.trackers[0].coh_pending


class TestWritePaths:
    def test_upgrade_invalidates_sharers(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        rig.controller.fetch_shared(1, LINE, 100)
        rig[1].l1d.fill(LINE)
        done = rig.controller.upgrade(0, LINE, 1000)
        assert done == 1005  # invalidation transaction: 5 cycles
        assert rig[0].l2.state_of(LINE) == LineState.MODIFIED
        assert rig[1].l2.state_of(LINE) == LineState.INVALID
        assert not rig[1].l1d.present(LINE)
        # The victim's sink saw a *coherence* invalidation.
        assert LINE in rig.trackers[1].coh_pending

    def test_upgrade_requires_residency(self, rig):
        with pytest.raises(SimulationError):
            rig.controller.upgrade(0, LINE, 0)

    def test_fetch_owned_invalidates_everyone(self, rig):
        rig.controller.fetch_shared(1, LINE, 0)
        ready = rig.controller.fetch_owned(0, LINE, 1000)
        assert rig[0].l2.state_of(LINE) == LineState.MODIFIED
        assert rig[1].l2.state_of(LINE) == LineState.INVALID
        assert ready > 1000

    def test_write_line_to_memory_invalidates(self, rig):
        # The one write of a whole line to memory: the bypass destination
        # register's flush when its block operation ends.
        rig.controller.fetch_shared(1, LINE, 0)
        busy = rig.bus.busy_cycles
        rig[0].write_bypass(LINE, 1000)
        rig[0].end_block_op(1001)
        transfer = rig.machine.bus.line_transfer_cycles(
            rig.machine.l1d.line_bytes)
        assert rig.bus.busy_cycles - busy == transfer
        assert rig[1].l2.state_of(LINE) == LineState.INVALID
        assert rig[0].l2.state_of(LINE) == LineState.INVALID


class TestFirefly:
    def setup_update(self, rig):
        """Selective update: the static policy on LINE's page."""
        rig.controller.attach_policy(
            StaticHybridPolicy(rig.machine.page_bytes, [LINE]))

    def test_update_page_granularity(self, rig):
        self.setup_update(rig)
        page = rig.machine.page_bytes
        policy = rig.controller.adaptive
        for addr, update in ((LINE, True), (LINE + page - 1, True),
                             (LINE + page, False)):
            line = addr - addr % rig.machine.l2.line_bytes
            assert policy.decide(0, addr, line, []).update is update

    def test_update_keeps_remote_copies_valid(self, rig):
        self.setup_update(rig)
        rig.controller.fetch_shared(0, LINE, 0)
        rig.controller.fetch_shared(1, LINE, 100)
        rig[1].l1d.fill(LINE)
        rig.controller.broadcast_update(0, LINE, 1000)
        assert rig[1].l2.state_of(LINE) == LineState.SHARED
        assert rig[1].l1d.present(LINE)
        assert LINE not in rig.trackers[1].coh_pending
        assert rig.controller.updates_sent == 1

    def test_update_without_sharers_goes_modified(self, rig):
        self.setup_update(rig)
        rig.controller.fetch_shared(0, LINE, 0)
        rig.controller.broadcast_update(0, LINE, 100)
        assert rig[0].l2.state_of(LINE) == LineState.MODIFIED

    def test_upgrade_on_update_page_becomes_update(self, rig):
        self.setup_update(rig)
        rig.controller.fetch_shared(0, LINE, 0)
        rig.controller.fetch_shared(1, LINE, 100)
        rig.controller.upgrade(0, LINE, 1000)
        assert rig[1].l2.state_of(LINE) == LineState.SHARED
        assert rig.controller.invalidations_sent == 0

    def test_fetch_owned_on_update_page_leaves_sharers(self, rig):
        self.setup_update(rig)
        rig.controller.fetch_shared(1, LINE, 0)
        rig.controller.fetch_owned(0, LINE, 1000)
        assert rig[1].l2.state_of(LINE) == LineState.SHARED


class TestDmaSnoop:
    def test_snoop_src_dirty_supplies(self, rig):
        rig.controller.fetch_owned(0, LINE, 0)
        assert rig.controller.dma_snoop_src(1, LINE)
        assert rig[0].l2.state_of(LINE) == LineState.SHARED

    def test_snoop_src_clean_untouched(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        assert not rig.controller.dma_snoop_src(1, LINE)
        assert rig[0].l2.state_of(LINE) == LineState.EXCLUSIVE

    def test_update_dst_counts_holders(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        rig.controller.fetch_shared(1, LINE, 100)
        assert rig.controller.dma_update_dst(0, LINE) == 2
        assert rig[0].l2.state_of(LINE) == LineState.SHARED
        assert rig[1].l2.state_of(LINE) == LineState.SHARED


class TestInvariants:
    def test_clean_system_passes(self, rig):
        rig.controller.fetch_shared(0, LINE, 0)
        rig.controller.fetch_shared(1, LINE, 100)
        rig.controller.check_invariants()

    def test_double_owner_detected(self, rig):
        for cpu in (0, 1):
            rig[cpu].l2.fill(LINE)
            rig[cpu].l2.set_state(LINE, LineState.MODIFIED)
        with pytest.raises(SimulationError, match="multiple owners"):
            rig.controller.check_invariants()

    def test_owner_plus_sharer_detected(self, rig):
        for cpu, state in ((0, LineState.MODIFIED), (1, LineState.SHARED)):
            rig[cpu].l2.fill(LINE)
            rig[cpu].l2.set_state(LINE, state)
        with pytest.raises(SimulationError):
            rig.controller.check_invariants()

    def test_inclusion_violation_detected(self, rig):
        rig[0].l1d.fill(LINE)
        with pytest.raises(SimulationError, match="not in L2"):
            rig.controller.check_invariants()
