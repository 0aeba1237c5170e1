"""Unit tests for the split-transaction bus (repro.memsys.bus)."""

from repro.common.params import BusParams
from repro.memsys.bus import Bus, BusOp
from repro.sim.metrics import SystemMetrics


def make_bus():
    return Bus(BusParams())


def test_grant_immediately_when_free():
    bus = make_bus()
    assert bus.acquire(100, 20, BusOp.READ_MEM) == 100
    assert bus.next_free == 120


def test_grant_queues_behind_holder():
    bus = make_bus()
    bus.acquire(0, 20, BusOp.READ_MEM)
    grant = bus.acquire(5, 20, BusOp.READ_MEM)
    assert grant == 20
    assert bus.wait_cycles == 15


def test_busy_cycles_accumulate():
    bus = make_bus()
    bus.acquire(0, 20, BusOp.READ_MEM)
    bus.acquire(0, 5, BusOp.INVALIDATE)
    assert bus.busy_cycles == 25


def test_reservations_never_overlap():
    bus = make_bus()
    intervals = []
    for i in range(10):
        grant = bus.acquire(i * 3, 7, BusOp.READ_MEM)
        intervals.append((grant, grant + 7))
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2


def test_transaction_counting():
    bus = make_bus()
    bus.split_transaction(0, BusOp.READ_MEM, 26, 20)
    assert bus.transactions[BusOp.READ_MEM] == 1
    assert bus.cycles_by_kind[BusOp.READ_MEM] == 25
    bus.acquire(0, 5, BusOp.INVALIDATE)
    assert bus.transactions[BusOp.INVALIDATE] == 1


class GrantLog:
    """Probe stand-in recording every ``bus_grant``."""

    def __init__(self):
        self.grants = []

    def bus_grant(self, kind, t, grant, duration):
        self.grants.append((kind, t, grant, duration))


def test_split_transaction_is_request_then_data_phase():
    """One split transaction reserves, accounts and reports exactly what
    its request phase and, *wait* cycles after it, its data phase would
    as two holds of the bus, except that it counts one transaction."""
    split, phases = make_bus(), make_bus()
    split.probe, phases.probe = GrantLog(), GrantLog()
    request = split.params.request_cycles
    # Free bus, a queued request, a zero wait, back-to-back transactions.
    for t, kind, wait, data in ((100, BusOp.READ_MEM, 26, 20),
                                (110, BusOp.READ_CACHE, 10, 20),
                                (110, BusOp.OWNERSHIP, 0, 40),
                                (400, BusOp.PREFETCH, 26, 10)):
        end = split.split_transaction(t, kind, wait, data)
        grant = phases.acquire(t, request, kind)
        data_at = grant + request + wait
        assert phases.acquire(data_at, data, kind) == data_at
        phases.transactions[kind] -= 1
        assert end == data_at + data
        for field in ("next_free", "busy_cycles", "wait_cycles",
                      "transactions", "cycles_by_kind"):
            assert getattr(split, field) == getattr(phases, field), field
        assert split.probe.grants == phases.probe.grants
    assert split.wait_cycles == 41 + 76


def test_utilization():
    bus = make_bus()
    bus.acquire(0, 50, BusOp.DMA)
    metrics = SystemMetrics(1)
    metrics.bus_busy_cycles = bus.busy_cycles
    for end, utilization in ((100, 0.5), (0, 0.0), (25, 1.0)):  # clamped
        metrics.finalize([end])
        assert metrics.bus_utilization() == utilization


def test_traffic_summary_keys():
    bus = make_bus()
    bus.acquire(0, 10, BusOp.UPDATE)
    bus.acquire(0, 20, BusOp.WRITEBACK)
    summary = bus.traffic_summary()
    assert summary["update"] == 10
    assert summary["writeback"] == 20
