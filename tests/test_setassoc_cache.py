"""Tests for the LRU cache arrays and the assoc machine axis.

Covers the LRU replacement policy, per-set isolation, the coherent
(MESI-state) variant, the ``CacheParams.assoc`` validation, and — as
hypothesis properties — that the ``where`` frame index stays consistent
with the authoritative ``tags`` list under any sequence of mutations (the
inline hit paths silently diverge if a mutation path forgets it), and that
evictions and the canonical recency ranks match a per-set ``OrderedDict``
LRU reference model at 1, 2 and 4 ways.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.params import (BASE_MACHINE, MAX_CPUS, CacheParams,
                                 MachineParams, machine_for)
from repro.memsys.cache import Cache, CoherentCache
from repro.memsys.states import LineState


# 1024 B, 16-B lines, 4-way: 64 frames in 16 sets.  Lines 0, 256, 512,
# ... all map to set 0.
PARAMS_4WAY = CacheParams(1024, 16, 4)
SET_STRIDE = 256


def set0_line(i):
    return i * SET_STRIDE


class TestCacheParamsAssoc:
    def test_default_is_direct_mapped(self):
        p = CacheParams(1024, 16)
        assert p.assoc == 1
        assert p.num_sets == p.num_lines == 64

    def test_num_sets_divides_frames(self):
        assert PARAMS_4WAY.num_lines == 64
        assert PARAMS_4WAY.num_sets == 16

    def test_set_index_uses_sets_not_frames(self):
        # 16 sets: line 256 (frame index 16 direct-mapped) is set 0.
        assert PARAMS_4WAY.set_index(256) == 0
        assert PARAMS_4WAY.set_index(16) == 1

    def test_assoc_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            CacheParams(1024, 16, 3)

    def test_assoc_cannot_exceed_frames(self):
        with pytest.raises(ConfigError):
            CacheParams(64, 16, 8)  # 4 frames, 8 ways

    def test_fully_associative_allowed(self):
        p = CacheParams(64, 16, 4)  # 4 frames, 4 ways: one set
        assert p.num_sets == 1


class TestLru:
    def test_fills_up_to_assoc_without_eviction(self):
        cache = Cache(PARAMS_4WAY)
        for i in range(4):
            assert cache.fill(set0_line(i)) == -1
        assert all(cache.present(set0_line(i)) for i in range(4))
        assert cache.fills == 4 and cache.evictions == 0

    def test_fifth_fill_evicts_lru(self):
        cache = Cache(PARAMS_4WAY)
        for i in range(4):
            cache.fill(set0_line(i))
        # Fill order is the recency order: line 0 is LRU.
        assert cache.fill(set0_line(4)) == set0_line(0)
        assert not cache.present(set0_line(0))

    def test_touch_promotes(self):
        cache = Cache(PARAMS_4WAY)
        for i in range(4):
            cache.fill(set0_line(i))
        cache.touch(set0_line(0))  # now line 1 is LRU
        assert cache.fill(set0_line(4)) == set0_line(1)
        assert cache.present(set0_line(0))

    def test_refill_of_resident_line_promotes(self):
        cache = Cache(PARAMS_4WAY)
        for i in range(4):
            cache.fill(set0_line(i))
        fills = cache.fills
        assert cache.fill(set0_line(0)) == -1  # already present
        assert cache.fills == fills  # not a new fill
        assert cache.fill(set0_line(4)) == set0_line(1)  # 0 was promoted

    def test_present_is_pure(self):
        # The conformance checker probes present() freely; it must not
        # perturb recency.
        cache = Cache(PARAMS_4WAY)
        for i in range(4):
            cache.fill(set0_line(i))
        for _ in range(10):
            cache.present(set0_line(0))
        assert cache.fill(set0_line(4)) == set0_line(0)  # still LRU

    def test_invalidated_way_is_refilled_first(self):
        cache = Cache(PARAMS_4WAY)
        for i in range(4):
            cache.fill(set0_line(i))
        assert cache.invalidate(set0_line(2))
        assert cache.fill(set0_line(4)) == -1  # empty way, no eviction
        assert cache.present(set0_line(4))

    def test_sets_are_isolated(self):
        cache = Cache(PARAMS_4WAY)
        for i in range(4):
            cache.fill(set0_line(i))
        # Thrash a different set; set 0 must be untouched.
        for i in range(10):
            cache.fill(16 + i * SET_STRIDE)
        assert all(cache.present(set0_line(i)) for i in range(4))

    def test_touch_on_absent_line_is_noop(self):
        cache = Cache(PARAMS_4WAY)
        cache.fill(set0_line(0))
        cache.touch(set0_line(7))  # absent
        assert cache.resident_lines() == [set0_line(0)]

    def test_direct_mapped_touch_is_noop(self):
        cache = Cache(CacheParams(1024, 16))
        cache.fill(0)
        cache.touch(0)
        assert cache.present(0)


def fill_in_state(cache, addr, state):
    """Install *addr*'s line in *state* as the coherence controller does:
    ``fill``, then the frame's state, which is still the victim's until
    it is overwritten.  Returns the evicted ``(line, state)``, or
    ``(-1, None)`` when nothing was displaced."""
    evicted = cache.fill(addr)
    idx = cache.where[cache.line_addr(addr)]
    victim = (-1, None) if evicted == -1 else (evicted, cache.states[idx])
    cache.states[idx] = state
    return victim


def invalidate_lines(cache, base, size):
    """Drop every line overlapping ``[base, base + size)`` one
    ``invalidate`` at a time; returns the lines dropped."""
    return [line for line in range(cache.line_addr(base), base + size,
                                   cache.line_bytes)
            if cache.invalidate(line)]


class TestCoherentSetAssociative:
    def test_fill_state_and_state_of(self):
        l2 = CoherentCache(CacheParams(2048, 32, 2))
        assert fill_in_state(l2, 0, LineState.EXCLUSIVE) == (-1, None)
        assert l2.state_of(0) == LineState.EXCLUSIVE
        assert l2.state_of(17) == LineState.EXCLUSIVE  # same line
        assert l2.state_of(32) == LineState.INVALID

    def test_eviction_returns_victim_state(self):
        l2 = CoherentCache(CacheParams(2048, 32, 2))
        stride = 1024  # 32 sets of 2: lines 0, 1024, 2048 share set 0
        fill_in_state(l2, 0, LineState.MODIFIED)
        fill_in_state(l2, stride, LineState.SHARED)
        evicted, state = fill_in_state(l2, 2 * stride, LineState.EXCLUSIVE)
        assert (evicted, state) == (0, LineState.MODIFIED)

    def test_set_state_invalid_clears_frame(self):
        l2 = CoherentCache(CacheParams(2048, 32, 2))
        fill_in_state(l2, 0, LineState.SHARED)
        l2.set_state(0, LineState.INVALID)
        assert not l2.present(0)
        assert l2.state_of(0) == LineState.INVALID

    def test_set_state_raises_on_absent_line(self):
        l2 = CoherentCache(CacheParams(2048, 32, 2))
        with pytest.raises(KeyError):
            l2.set_state(64, LineState.MODIFIED)

    def test_fill_state_on_resident_line_updates_state_only(self):
        l2 = CoherentCache(CacheParams(2048, 32, 2))
        fill_in_state(l2, 0, LineState.SHARED)
        fills = l2.fills
        assert fill_in_state(l2, 0, LineState.MODIFIED) == (-1, None)
        assert l2.fills == fills
        assert l2.state_of(0) == LineState.MODIFIED

    def test_invalidate_range_drops_all_ways(self):
        l2 = CoherentCache(CacheParams(2048, 32, 2))
        fill_in_state(l2, 0, LineState.SHARED)
        fill_in_state(l2, 32, LineState.EXCLUSIVE)
        dropped = invalidate_lines(l2, 0, 64)
        assert sorted(dropped) == [0, 32]
        assert l2.resident_lines() == []


class TestMachineFor:
    def test_exact_sizing(self):
        # The bugfix: a 2-CPU trace gets a 2-CPU machine, not the 4-CPU
        # Base with phantom idle processors.
        assert machine_for(2).num_cpus == 2
        assert machine_for(1).num_cpus == 1
        assert machine_for(16).num_cpus == 16

    def test_base_identity(self):
        # The paper point must keep its exact fingerprint.
        assert machine_for(4) is BASE_MACHINE

    def test_assoc_applies_to_all_caches(self):
        m = machine_for(8, assoc=4)
        assert (m.l1i.assoc, m.l1d.assoc, m.l2.assoc) == (4, 4, 4)
        # Geometry (total bytes) is unchanged; only the organization.
        assert m.l1d.size_bytes == BASE_MACHINE.l1d.size_bytes

    def test_bus_width(self):
        m = machine_for(8, bus_width_bytes=16)
        assert m.bus.width_bytes == 16
        # A 32-B line now moves in 2 beats of 5 CPU cycles.
        assert m.bus.line_transfer_cycles(32) == 10

    def test_bus_width_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            machine_for(8, bus_width_bytes=12)

    def test_cpu_bound_is_centralized(self):
        with pytest.raises(ConfigError):
            machine_for(0)
        with pytest.raises(ConfigError):
            machine_for(MAX_CPUS + 1)
        with pytest.raises(ConfigError):
            MachineParams(num_cpus=MAX_CPUS + 1)
        assert machine_for(MAX_CPUS).num_cpus == MAX_CPUS

    def test_profiles_and_generator_share_the_bound(self):
        # Satellite: the [1, MAX_CPUS] bound must not drift between the
        # machine params and the workload generator's validation.
        from repro.common.errors import ProfileError
        from repro.synthetic.generator import SweepSpec
        from repro.synthetic.profiles import get_profile
        with pytest.raises(ProfileError, match=str(MAX_CPUS)):
            SweepSpec(num_cpus=(MAX_CPUS + 1,)).validate()
        with pytest.raises((ProfileError, KeyError)):
            get_profile(f"gen:server:c{MAX_CPUS + 1}:i060:steady:0:0")


# ----------------------------------------------------------------------
# Index properties: where agrees with tags after any op mix, and
# evictions follow true LRU.
# ----------------------------------------------------------------------

# Small caches so collisions and evictions are frequent.
_TAG_PARAMS = [CacheParams(256, 16, assoc) for assoc in (1, 2, 4)]
_STATE_PARAMS = [CacheParams(512, 32, assoc) for assoc in (1, 2, 4)]

_ops = st.lists(
    st.tuples(st.sampled_from(["fill", "invalidate", "invalidate_lines",
                               "touch"]),
              st.integers(min_value=0, max_value=1 << 12),
              st.integers(min_value=1, max_value=128)),
    min_size=1, max_size=300)

_state_ops = st.lists(
    st.tuples(st.sampled_from(["fill", "fill_in_state", "set_state",
                               "invalidate", "invalidate_lines", "touch"]),
              st.integers(min_value=0, max_value=1 << 12),
              st.integers(min_value=1, max_value=128),
              st.sampled_from(list(LineState))),
    min_size=1, max_size=300)


def _assert_mirrors(cache):
    assert cache.where == {tag: frame for frame, tag in enumerate(cache.tags)
                           if tag != -1}


class LruModel:
    """Reference LRU cache: one ``OrderedDict`` per set, least recently
    used line first, mapping each resident line to its MESI state (None
    for a tag-only cache)."""

    def __init__(self, params):
        self.line_bytes = params.line_bytes
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        self.sets = [OrderedDict() for _ in range(self.num_sets)]

    def _ways(self, line):
        return self.sets[(line // self.line_bytes) % self.num_sets]

    def line(self, addr):
        return addr - addr % self.line_bytes

    def fill(self, addr, state=None):
        """Install (or promote) *addr*'s line; returns the evicted
        ``(line, state)``, ``(-1, None)`` when nothing was displaced."""
        line = self.line(addr)
        ways = self._ways(line)
        if line in ways:
            ways.move_to_end(line)
            if state is not None:
                ways[line] = state
            return -1, None
        victim = (-1, None)
        if len(ways) == self.assoc:
            victim = ways.popitem(last=False)
        ways[line] = state
        return victim

    def touch(self, addr):
        line = self.line(addr)
        if line in self._ways(line):
            self._ways(line).move_to_end(line)

    def drop(self, addr):
        line = self.line(addr)
        return self._ways(line).pop(line, -1) != -1

    def set_state(self, addr, state):
        line = self.line(addr)
        if state == LineState.INVALID:
            del self._ways(line)[line]
        else:
            self._ways(line)[line] = state

    def resident(self):
        return {line: state for ways in self.sets
                for line, state in ways.items()}

    def ranks(self):
        """Line -> recency rank: 0 for its set's MRU line."""
        return {line: len(ways) - 1 - pos for ways in self.sets
                for pos, line in enumerate(ways)}


def _assert_matches_model(cache, model):
    _assert_mirrors(cache)
    resident = model.resident()
    assert set(cache.where) == set(resident)
    ranks = model.ranks()
    for line, frame in cache.where.items():
        assert frame // cache.assoc == cache.set_index(line)
        assert cache.ranks[frame] == ranks[line]
        if resident[line] is not None:
            assert cache.states[frame] == resident[line]
    # Empty frames hold ``assoc``.
    assert all(cache.ranks[frame] == cache.assoc
               for frame, tag in enumerate(cache.tags) if tag == -1)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, params=st.sampled_from(_TAG_PARAMS))
def test_tag_cache_matches_lru_model(ops, params):
    cache = Cache(params)
    model = LruModel(params)
    for op, addr, size in ops:
        if op == "fill":
            assert cache.fill(addr) == model.fill(addr)[0]
        elif op == "invalidate":
            assert cache.invalidate(addr) == model.drop(addr)
        elif op == "invalidate_lines":
            first = model.line(addr)
            expected = [line for line in range(first, addr + size,
                                               params.line_bytes)
                        if model.drop(line)]
            assert invalidate_lines(cache, addr, size) == expected
        else:
            cache.touch(addr)
            model.touch(addr)
        _assert_matches_model(cache, model)


@settings(max_examples=60, deadline=None)
@given(ops=_state_ops, params=st.sampled_from(_STATE_PARAMS))
def test_coherent_cache_matches_lru_model(ops, params):
    cache = CoherentCache(params)
    model = LruModel(params)
    for op, addr, size, state in ops:
        if op in ("fill", "fill_in_state"):
            if state == LineState.INVALID:
                continue
            assert fill_in_state(cache, addr, state) == \
                model.fill(addr, state)
        elif op == "set_state":
            if cache.present(addr):
                cache.set_state(addr, state)
                model.set_state(addr, state)
            else:
                with pytest.raises(KeyError):
                    cache.set_state(addr, state)
        elif op == "invalidate":
            assert cache.invalidate(addr) == model.drop(addr)
        elif op == "invalidate_lines":
            first = model.line(addr)
            expected = [line for line in range(first, addr + size,
                                               params.line_bytes)
                        if model.drop(line)]
            assert invalidate_lines(cache, addr, size) == expected
        else:
            cache.touch(addr)
            model.touch(addr)
        _assert_matches_model(cache, model)


@settings(max_examples=60, deadline=None)
@given(ops=_ops, params=st.sampled_from(_TAG_PARAMS))
def test_tag_mirror_stays_identical(ops, params):
    cache = Cache(params)
    for op, addr, size in ops:
        if op == "fill":
            cache.fill(addr)
        elif op == "invalidate":
            cache.invalidate(addr)
        elif op == "invalidate_lines":
            invalidate_lines(cache, addr, size)
        else:
            cache.touch(addr)
        _assert_mirrors(cache)


@settings(max_examples=60, deadline=None)
@given(ops=_state_ops, params=st.sampled_from(_STATE_PARAMS))
def test_state_mirror_stays_identical(ops, params):
    cache = CoherentCache(params)
    for op, addr, size, state in ops:
        if op == "fill":
            cache.fill(addr)
        elif op == "fill_in_state":
            fill_in_state(cache, addr, state)
        elif op == "set_state":
            if cache.present(addr):
                cache.set_state(addr, state)
        elif op == "invalidate":
            cache.invalidate(addr)
        elif op == "invalidate_lines":
            invalidate_lines(cache, addr, size)
        else:
            cache.touch(addr)
        _assert_mirrors(cache)


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_lru_never_evicts_most_recently_used(ops):
    cache = Cache(CacheParams(256, 16, 4))
    last_used = None
    for op, addr, size in ops:
        if op == "fill":
            evicted = cache.fill(addr)
            line = cache.line_addr(addr)
            if evicted != -1:
                assert evicted != last_used
            last_used = line
        elif op == "invalidate":
            if cache.invalidate(addr) and cache.line_addr(addr) == last_used:
                last_used = None
        elif op == "invalidate_lines":
            invalidate_lines(cache, addr, size)
            last_used = None
        else:
            if cache.present(addr):
                cache.touch(addr)
                last_used = cache.line_addr(addr)
