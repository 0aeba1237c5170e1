"""Unit tests for the caches at their direct-mapped (1-way) point."""

import pytest

from repro.common.params import CacheParams
from repro.memsys.cache import Cache, CoherentCache
from repro.memsys.states import LineState


def drop(cache, addr):
    """Remove *addr*'s line the way the simulator does: an L1 line by
    ``where.pop`` and ``_drop``, as ``CoherenceController._drop_from_l1``
    does, an L2 line by ``set_state(line, INVALID)``.  Returns whether it
    was resident."""
    line = cache.line_addr(addr)
    if line not in cache.where:
        return False
    if isinstance(cache, CoherentCache):
        cache.set_state(line, LineState.INVALID)
    else:
        cache._drop(cache.where.pop(line))
    return True


@pytest.fixture
def cache():
    return Cache(CacheParams(1024, 16))  # 64 lines


@pytest.fixture
def l2():
    return CoherentCache(CacheParams(2048, 32))  # 64 lines


class TestDirectMapped:
    def test_initially_empty(self, cache):
        assert not cache.present(0x0)
        assert cache.resident_lines() == []

    def test_fill_then_present(self, cache):
        assert cache.fill(0x104) == -1
        assert cache.present(0x100)
        assert cache.present(0x10F)
        assert not cache.present(0x110)

    def test_fill_same_line_is_noop(self, cache):
        cache.fill(0x100)
        fills_before = cache.fills
        assert cache.fill(0x108) == -1
        assert cache.fills == fills_before

    def test_conflict_eviction(self, cache):
        cache.fill(0x100)
        evicted = cache.fill(0x100 + 1024)  # same set, different tag
        assert evicted == 0x100
        assert not cache.present(0x100)
        assert cache.present(0x100 + 1024)
        assert cache.evictions == 1

    def test_invalidate(self, cache):
        cache.fill(0x200)
        assert drop(cache, 0x200)
        assert not cache.present(0x200)
        assert not drop(cache, 0x200)

    def test_invalidate_range(self, cache):
        cache.fill(0x100)
        cache.fill(0x110)
        cache.fill(0x120)
        dropped = [line for line in range(0x100, 0x120, 16)
                   if drop(cache, line)]
        assert dropped == [0x100, 0x110]
        assert cache.present(0x120)
        assert cache.resident_lines() == [0x120]

    def test_invalidate_range_unaligned_base(self, cache):
        cache.fill(0x100)
        assert drop(cache, 0x108)
        assert not cache.present(0x100)
        assert not drop(cache, 0x10C)

    def test_distinct_lines_same_set_never_coresident(self, cache):
        cache.fill(0x0)
        cache.fill(1024)
        assert not cache.present(0x0)
        assert cache.present(1024)


class TestCoherent:
    def test_state_of_absent_is_invalid(self, l2):
        assert l2.state_of(0x40) == LineState.INVALID

    def test_fill_state(self, l2):
        l2.fill(0x40)
        l2.set_state(0x40, LineState.EXCLUSIVE)
        assert l2.state_of(0x40) == LineState.EXCLUSIVE
        assert l2.state_of(0x5F) == LineState.EXCLUSIVE

    def test_set_state(self, l2):
        l2.fill(0x40)
        l2.set_state(0x40, LineState.EXCLUSIVE)
        l2.set_state(0x40, LineState.MODIFIED)
        assert l2.state_of(0x40) == LineState.MODIFIED

    def test_set_state_invalid_drops_line(self, l2):
        l2.fill(0x40)
        l2.set_state(0x40, LineState.SHARED)
        l2.set_state(0x40, LineState.INVALID)
        assert not l2.present(0x40)

    def test_set_state_missing_raises(self, l2):
        with pytest.raises(KeyError):
            l2.set_state(0x40, LineState.SHARED)

    def test_fill_state_reports_dirty_eviction(self, l2):
        l2.fill(0x40)
        l2.set_state(0x40, LineState.MODIFIED)
        assert l2.fill(0x40 + 2048) == 0x40
        # fill() leaves the frame's state alone: until the caller sets
        # it, it is the victim's, which decides the write-back.
        assert l2.states[l2.where[0x40 + 2048]] == LineState.MODIFIED

    def test_fill_state_no_eviction(self, l2):
        assert l2.fill(0x40) == -1
        assert l2.states[l2.where[0x40]] == LineState.INVALID

    def test_invalidate_clears_state(self, l2):
        l2.fill(0x40)
        l2.set_state(0x40, LineState.MODIFIED)
        assert drop(l2, 0x40)
        assert l2.state_of(0x40) == LineState.INVALID
