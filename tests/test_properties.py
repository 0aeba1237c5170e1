"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import BASE_MACHINE, CacheParams
from repro.memsys.bus import Bus, BusOp
from repro.memsys.cache import Cache
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.states import LineState
from repro.memsys.writebuffer import TimedWriteBuffer
from repro.sim.config import SystemConfig
from repro.sim.metrics import MissTracker
from repro.sim.system import MultiprocessorSystem
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder

addresses = st.integers(min_value=0, max_value=1 << 20)


@given(st.lists(addresses, min_size=1, max_size=200))
def test_cache_never_holds_two_lines_in_one_set(addrs):
    cache = Cache(CacheParams(1024, 16))
    for addr in addrs:
        cache.fill(addr)
        resident = cache.resident_lines()
        # Direct-mapped: all resident lines map to distinct sets.
        sets = [cache.set_index(line) for line in resident]
        assert len(sets) == len(set(sets))
        # And the tag array is consistent: every resident line is present.
        assert all(cache.present(line) for line in resident)


@given(st.lists(addresses, min_size=1, max_size=200))
def test_fill_then_present_always(addrs):
    cache = Cache(CacheParams(2048, 32))
    for addr in addrs:
        cache.fill(addr)
        assert cache.present(addr)


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 60)),
                min_size=1, max_size=100))
def test_write_buffer_fifo_and_bounds(ops):
    wb = TimedWriteBuffer(4)
    t = 0
    completions = []
    for dt, dur in ops:
        t += dt
        insert_t, stall, start = wb.admit(t)
        assert start >= insert_t
        wb.complete(start, start + dur)
        completions.append(wb.last_service_end)
        assert stall >= 0
        assert wb.occupancy(insert_t) <= wb.depth
        t = insert_t
    # FIFO drain: completion times never decrease.
    assert completions == sorted(completions)


#: The summary key of every bus transaction kind, as the snapshots and
#: tracer events spell them.
_BUS_KIND_NAMES = {
    BusOp.READ_MEM: "read_mem", BusOp.READ_CACHE: "read_cache",
    BusOp.OWNERSHIP: "ownership", BusOp.INVALIDATE: "invalidate",
    BusOp.UPDATE: "update", BusOp.WRITEBACK: "writeback",
    BusOp.PREFETCH: "prefetch", BusOp.DMA: "dma",
}


class _GrantLog:
    """Probe stand-in recording every ``bus_grant``."""

    def __init__(self):
        self.grants = []

    def bus_grant(self, kind, t, grant, duration):
        self.grants.append((kind, t, grant, duration))


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 50),
                          st.sampled_from(list(BusOp)),
                          st.none() | st.tuples(st.integers(0, 40),
                                                st.integers(0, 50))),
                min_size=1, max_size=100))
def test_bus_reservations_disjoint_and_accounted(ops):
    """Grants never overlap, and the per-kind lists count exactly what a
    ``Counter`` keyed by kind would, zero-cycle holds included.  A split
    transaction is one transaction whose two phases are the request
    phase then, *wait* cycles after it, the data phase, each reserved
    and reported to the probe as a single hold would be."""
    bus = Bus(BASE_MACHINE.bus)
    bus.probe = log = _GrantLog()
    request = BASE_MACHINE.bus.request_cycles
    t = 0
    next_free = 0
    intervals = []
    grants = []
    total = wait_total = 0
    transactions, held = Counter(), Counter()
    for dt, dur, kind, split in ops:
        t += dt
        if split is None:
            phases = [(t, dur)]
            grant = bus.acquire(t, dur, kind)
        else:
            wait, data = split
            phases = [(t, request), (None, data)]
            end = bus.split_transaction(t, kind, wait, data)
        # The reference: each phase granted at max(asked, bus free).
        for asked, duration in phases:
            if asked is None:
                asked = intervals[-1][1] + wait
            granted = max(asked, next_free)
            next_free = granted + duration
            intervals.append((granted, next_free))
            grants.append((kind, asked, granted, duration))
            total += duration
            wait_total += granted - asked
            held[kind] += duration
        transactions[kind] += 1
        if split is None:
            assert grant == intervals[-1][0]
        else:
            assert end == intervals[-1][1]
    assert bus.next_free == next_free
    assert bus.busy_cycles == total
    assert bus.wait_cycles == wait_total
    assert log.grants == grants
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2
    assert bus.transactions == [transactions[kind] for kind in BusOp]
    assert bus.cycles_by_kind == [held[kind] for kind in BusOp]
    assert bus.traffic_summary() == {
        _BUS_KIND_NAMES[kind]: cycles for kind, cycles in held.items()}
    assert bus.transaction_summary() == {
        _BUS_KIND_NAMES[kind]: count for kind, count in transactions.items()}


@given(st.lists(st.tuples(st.integers(0, 3), addresses, st.booleans()),
                min_size=1, max_size=150))
@settings(max_examples=50, deadline=None)
def test_coherence_single_owner_invariant(ops):
    """Random reads/writes from 4 CPUs never create two owners of a line."""
    machine = BASE_MACHINE
    bus = Bus(machine.bus)
    controller = CoherenceController(machine, bus)
    mems = [CpuMemorySystem(machine, bus, controller, MissTracker())
            for _ in range(4)]
    t = 0
    for cpu, addr, is_write in ops:
        if is_write:
            mems[cpu].write(addr, t)
        else:
            mems[cpu].read(addr, t)
        t += 100
    controller.check_invariants()


@given(st.lists(st.tuples(st.integers(0, 3), addresses, st.booleans()),
                min_size=1, max_size=100))
@settings(max_examples=30, deadline=None)
def test_access_results_well_formed(ops):
    """done >= t, stalls >= 0, for arbitrary interleavings."""
    machine = BASE_MACHINE
    bus = Bus(machine.bus)
    controller = CoherenceController(machine, bus)
    mems = [CpuMemorySystem(machine, bus, controller, MissTracker())
            for _ in range(4)]
    t = 0
    for cpu, addr, is_write in ops:
        if is_write:
            done, stall = mems[cpu].write(addr, t)
        else:
            res = mems[cpu].read(addr, t)
            done, stall = res.done, res.stall
            assert res.pref_stall >= 0
        assert done >= t
        assert stall >= 0
        t = done


@st.composite
def small_traces(draw):
    """Random but *valid* 2-CPU traces with locks, barriers and block ops."""
    b = TraceBuilder(2)
    num_barriers = draw(st.integers(0, 2))
    for cpu in range(2):
        n = draw(st.integers(1, 30))
        for _ in range(n):
            kind = draw(st.sampled_from(["r", "w", "lock", "blk"]))
            addr = draw(st.integers(0, 1 << 18)) * 4
            if kind == "r":
                b.emit(cpu, rec.read(addr, pc=0x100, icount=2))
            elif kind == "w":
                b.emit(cpu, rec.write(addr, pc=0x104, icount=2))
            elif kind == "lock":
                b.emit(cpu, rec.lock_acquire(0x40))
                b.emit(cpu, rec.write(0x80, icount=1))
                b.emit(cpu, rec.lock_release(0x40))
            else:
                size = draw(st.sampled_from([64, 256, 1024]))
                src = 0x100000 + draw(st.integers(0, 15)) * 0x1000
                dst = 0x200000 + draw(st.integers(0, 15)) * 0x1000
                if src != dst:
                    b.emit_block_copy(cpu, src=src, dst=dst, size=size)
        for _ in range(num_barriers):
            b.emit(cpu, rec.barrier(0xC0, 2))
    return b.build()


@given(small_traces())
@settings(max_examples=25, deadline=None)
def test_random_traces_simulate_cleanly(trace):
    """Any valid trace runs to completion with consistent accounting."""
    system = MultiprocessorSystem(trace, SystemConfig("prop"))
    metrics = system.run()
    system.check_invariants()
    # Every CPU's attributed time is non-negative and bounded by makespan.
    assert all(0 <= t <= metrics.makespan for t in metrics.cpu_end_times)
    # Miss taxonomy sums to the OS read-miss count.
    assert sum(metrics.os_miss_kind.values()) == metrics.os_read_misses()
    # Reads recorded >= misses recorded.
    for reads, misses in zip(metrics.reads, metrics.read_misses):
        assert reads >= misses


@given(small_traces())
@settings(max_examples=15, deadline=None)
def test_dma_never_slower_to_validate_invariants(trace):
    """Every scheme runs the same random trace without violating coherence."""
    from repro.sim.config import standard_configs
    for name in ("Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma"):
        system = MultiprocessorSystem(trace, standard_configs()[name])
        system.run()
        system.check_invariants()
