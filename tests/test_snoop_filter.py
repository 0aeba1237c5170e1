"""The coherence controller's presence directory (snoop filter).

``CoherenceController.holders`` maps every L2 line to a bitmask of the
CPUs holding it; the L2s keep it exact in ``Cache.fill`` and
``_drop``.  These tests pin that invariant at the cache level (random
operation sequences over several attached caches) and at the system
level (every ``_holders`` / ``_dirty_holder`` answer equals a brute-force
scan over all ports, in the same order, on the 8-, 16- and 32-CPU
machine points).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tables import MACHINE_POINTS, machine_point
from repro.check import fuzz
from repro.common.params import BASE_MACHINE, CacheParams
from repro.memsys.bus import Bus
from repro.memsys.cache import Cache, CoherentCache, holder_cpus
from repro.memsys.coherence import CoherenceController
from repro.memsys.sink import MissTracker
from repro.memsys.states import LineState
from tests.test_cache import drop
from repro.sim.config import all_configs
from repro.sim.system import MultiprocessorSystem

_L2_PARAMS = [CacheParams(256, 32, 1), CacheParams(256, 32, 2),
              CacheParams(512, 32, 4)]

_OPS = st.lists(
    st.tuples(st.sampled_from(["fill", "set_state", "invalidate",
                               "invalidate_lines", "touch"]),
              st.integers(0, 4),                      # cache index
              st.integers(0, 2047),                   # address
              st.integers(1, 160),                    # range size
              st.sampled_from(list(LineState))),
    max_size=120)


def _rig(num_caches, params):
    controller = CoherenceController(BASE_MACHINE, Bus(BASE_MACHINE.bus))
    l2s = []
    for _ in range(num_caches):
        l2 = CoherentCache(params)
        controller.attach(Cache(CacheParams(128, 16)),
                          Cache(CacheParams(128, 16)), l2, MissTracker())
        l2s.append(l2)
    return controller, l2s


def _rebuilt(l2s):
    """The directory recomputed from each L2's residency map."""
    expected = {}
    for cpu, l2 in enumerate(l2s):
        for line in l2.where:
            expected[line] = expected.get(line, 0) | 1 << cpu
    return expected


@settings(max_examples=80, deadline=None)
@given(num_caches=st.integers(2, 5), params=st.sampled_from(_L2_PARAMS),
       ops=_OPS)
def test_directory_tracks_every_residency_change(num_caches, params, ops):
    controller, l2s = _rig(num_caches, params)
    for op, which, addr, size, state in ops:
        l2 = l2s[which % num_caches]
        if op == "fill":
            l2.fill(addr)
        elif op == "set_state":
            if l2.present(addr):
                l2.set_state(addr, state)
        elif op == "invalidate":
            drop(l2, addr)
        elif op == "invalidate_lines":
            for line in range(addr - addr % l2.line_bytes, addr + size,
                              l2.line_bytes):
                drop(l2, line)
        else:
            l2.touch(addr)
        assert controller.holders == _rebuilt(l2s)
        assert all(l2.holders is controller.holders for l2 in l2s)


def test_standalone_cache_keeps_a_private_directory():
    l2 = CoherentCache(CacheParams(256, 32, 2))
    l2.fill(0x40)
    l2.set_state(0x40, LineState.SHARED)
    assert l2.holders == {0x40: 1}
    l2.set_state(0x40, LineState.INVALID)
    assert l2.holders == {}


def test_holder_cpus_ascending():
    assert holder_cpus(0) == []
    assert holder_cpus(0b1011) == [0, 1, 3]
    assert holder_cpus(1 << 31 | 1 << 4) == [4, 31]


def _brute_holders(controller, line, except_cpu):
    return [i for i, p in enumerate(controller.ports)
            if i != except_cpu and p.l2.state_of(line) != LineState.INVALID]


def _brute_dirty(controller, line, cpus):
    """The first port among *cpus* holding *line* MODIFIED, scanning
    every port."""
    for i, p in enumerate(controller.ports):
        if i in cpus and p.l2.state_of(line) == LineState.MODIFIED:
            return i
    return None


def _cross_checked(controller):
    """Give *controller* a subclass whose two snoop helpers compare every
    call against the per-port scan they replaced."""
    calls = [0]

    class CrossChecked(CoherenceController):
        __slots__ = ()

        def _holders(self, line, except_cpu):
            got = CoherenceController._holders(self, line, except_cpu)
            assert got == _brute_holders(self, line, except_cpu)
            calls[0] += 1
            return got

        def _dirty_holder(self, line, cpus):
            got = CoherenceController._dirty_holder(self, line, cpus)
            assert got == _brute_dirty(self, line, cpus)
            calls[0] += 1
            return got

    controller.__class__ = CrossChecked
    return calls


_WIDE_POINTS = [point for point in MACHINE_POINTS if point[1] > 4]


@pytest.mark.parametrize("point", _WIDE_POINTS, ids=lambda p: p[0])
@settings(max_examples=5, deadline=None)
@given(scheme=st.sampled_from(["Base", "Blk_Dma", "BCoh_RelUp", "Hyb_UpdN",
                               "Hyb_Deg"]),
       seed=st.integers(0, 10_000))
def test_snoops_match_brute_force_on_machine_points(point, scheme, seed):
    _label, cpus, assoc, bus_width = point
    machine = machine_point(cpus, assoc, bus_width)
    trace = fuzz.build_trace(fuzz.generate_case(seed, num_cpus=cpus,
                                                length=40))
    system = MultiprocessorSystem(trace, all_configs(machine)[scheme],
                                  update_pages=[fuzz.UPDATE_PAGE])
    controller = system.controller
    calls = _cross_checked(controller)
    system.run()
    assert calls[0] > 0
    controller.check_invariants()
    # After the run: every resident line, plus one never cached, seen
    # from each of its holders and from the first and last CPU.
    for line in sorted(controller.holders) + [1 << 40]:
        mask = controller.holders.get(line, 0)
        for cpu in {0, cpus - 1, *holder_cpus(mask)}:
            assert (controller._holders(line, cpu)
                    == _brute_holders(controller, line, cpu))
            others = _brute_holders(controller, line, cpu)
            assert (controller._dirty_holder(line, others)
                    == _brute_dirty(controller, line, others))
