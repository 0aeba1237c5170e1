"""Unit tests for lock and barrier management (repro.sim.sync)."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.sync import BarrierManager, LockTable


class TestLockTable:
    def test_acquire_free_lock(self):
        locks = LockTable()
        ok, grant = locks.try_acquire(0x10, 0, 100)
        assert ok and grant == 100
        assert locks.holder(0x10) == 0

    def test_acquire_held_lock_fails(self):
        locks = LockTable()
        locks.try_acquire(0x10, 0, 0)
        ok, _ = locks.try_acquire(0x10, 1, 50)
        assert not ok
        assert locks.holder(0x10) == 0

    def test_reacquire_own_lock_is_error(self):
        locks = LockTable()
        locks.try_acquire(0x10, 0, 0)
        with pytest.raises(SimulationError):
            locks.try_acquire(0x10, 0, 10)

    def test_release_then_reacquire(self):
        locks = LockTable()
        locks.try_acquire(0x10, 0, 0)
        locks.release(0x10, 0, 50)
        assert locks.holder(0x10) is None
        ok, grant = locks.try_acquire(0x10, 1, 20)
        assert ok
        # The hand-off cannot predate the release.
        assert grant == 50

    def test_release_not_held_is_error(self):
        locks = LockTable()
        with pytest.raises(SimulationError):
            locks.release(0x10, 0, 0)

    def test_release_by_wrong_cpu_is_error(self):
        locks = LockTable()
        locks.try_acquire(0x10, 0, 0)
        with pytest.raises(SimulationError):
            locks.release(0x10, 1, 10)

    def test_statistics(self):
        locks = LockTable()
        locks.try_acquire(0x10, 0, 0)
        locks.note_contention()
        assert locks.acquisitions == 1
        assert locks.contended_acquisitions == 1

    def test_held_locks_listing(self):
        locks = LockTable()
        locks.try_acquire(0x20, 0, 0)
        locks.try_acquire(0x10, 1, 0)
        assert [locks.holder(a) for a in (0x10, 0x20, 0x30)] == [1, 0, None]


class TestBarrierManager:
    def test_incomplete_episode_returns_none(self):
        barriers = BarrierManager(release_cycles=40)
        assert barriers.arrive(0x100, 3, 0, 10) is None
        assert barriers.arrive(0x100, 3, 1, 20) is None

    def test_last_arrival_releases(self):
        barriers = BarrierManager(release_cycles=40)
        barriers.arrive(0x100, 3, 0, 10)
        barriers.arrive(0x100, 3, 1, 20)
        outcome = barriers.arrive(0x100, 3, 2, 30)
        assert outcome is not None
        release, waiters = outcome
        assert release == 70  # max arrival (30) + release overhead (40)
        assert sorted(waiters) == [0, 1]
        assert barriers.episodes_completed == 1

    def test_episode_resets_after_release(self):
        barriers = BarrierManager(release_cycles=40)
        for cpu in range(2):
            barriers.arrive(0x100, 2, cpu, cpu * 10)
        assert barriers.arrive(0x100, 2, 0, 100) is None

    def test_single_participant_releases_immediately(self):
        barriers = BarrierManager(release_cycles=40)
        outcome = barriers.arrive(0x100, 1, 0, 10)
        assert outcome == (50, [])

    def test_double_arrival_is_error(self):
        barriers = BarrierManager(release_cycles=40)
        barriers.arrive(0x100, 3, 0, 10)
        with pytest.raises(SimulationError):
            barriers.arrive(0x100, 3, 0, 20)

    def test_inconsistent_participants_is_error(self):
        barriers = BarrierManager(release_cycles=40)
        barriers.arrive(0x100, 3, 0, 10)
        with pytest.raises(SimulationError):
            barriers.arrive(0x100, 2, 1, 20)

    def test_independent_barriers(self):
        barriers = BarrierManager(release_cycles=10)
        barriers.arrive(0x100, 2, 0, 0)
        barriers.arrive(0x200, 2, 1, 0)
        outcome = barriers.arrive(0x100, 2, 2, 5)
        assert outcome is not None and sorted(outcome[1]) == [0]
