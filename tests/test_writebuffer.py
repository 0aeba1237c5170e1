"""Unit tests for timed write buffers (repro.memsys.writebuffer)."""

import pytest

from repro.memsys.writebuffer import TimedWriteBuffer


def fixed(duration):
    """Service taking a fixed number of cycles: start -> end."""
    return lambda start: start + duration


def enqueue(wb, t, service):
    """Admit an entry at *t*, run *service* from its start and complete
    it, as the hierarchy does; returns ``(insert_time, stall)``."""
    insert_t, stall, start = wb.admit(t)
    wb.complete(start, service(start))
    return insert_t, stall


def test_rejects_zero_depth():
    with pytest.raises(ValueError):
        TimedWriteBuffer(0)


def test_no_stall_when_room():
    wb = TimedWriteBuffer(4)
    t, stall = enqueue(wb, 100, fixed(3))
    assert (t, stall) == (100, 0)


def test_fifo_serialization():
    wb = TimedWriteBuffer(4)
    enqueue(wb, 0, fixed(10))
    enqueue(wb, 0, fixed(10))
    # The second entry starts only when the first finishes.
    assert wb.last_service_end == 20


def test_overflow_stalls_until_slot_frees():
    wb = TimedWriteBuffer(2)
    enqueue(wb, 0, fixed(10))   # completes at 10
    enqueue(wb, 0, fixed(10))   # completes at 20
    t, stall = enqueue(wb, 0, fixed(10))
    assert stall == 10         # waits for the first entry to retire
    assert t == 10
    assert wb.overflows == 1
    assert wb.stall_cycles == 10


def test_entries_expire_with_time():
    wb = TimedWriteBuffer(2)
    enqueue(wb, 0, fixed(5))
    enqueue(wb, 0, fixed(5))
    assert wb.occupancy(4) == 2
    assert wb.occupancy(5) == 1
    assert wb.occupancy(10) == 0


def test_no_stall_after_drain():
    wb = TimedWriteBuffer(1)
    enqueue(wb, 0, fixed(5))
    t, stall = enqueue(wb, 100, fixed(5))
    assert (t, stall) == (100, 0)


def test_drain_time_empty():
    wb = TimedWriteBuffer(4)
    assert wb.drain_time(42) == 42


def test_drain_time_waits_for_last_entry():
    wb = TimedWriteBuffer(4)
    enqueue(wb, 0, fixed(7))
    enqueue(wb, 0, fixed(7))
    assert wb.drain_time(0) == 14
    assert wb.drain_time(20) == 20


def test_service_start_never_before_enqueue():
    starts = []

    def service(start):
        starts.append(start)
        return start + 1

    wb = TimedWriteBuffer(4)
    enqueue(wb, 50, service)
    enqueue(wb, 40, service)  # enqueued "earlier" but serialized after
    assert starts[0] == 50
    assert starts[1] == 51
    assert wb.admit(45) == (45, 0, 52)


def test_completion_before_start_rejected():
    wb = TimedWriteBuffer(4)
    _insert, _stall, start = wb.admit(10)
    with pytest.raises(ValueError):
        wb.complete(start, start - 1)
    assert wb.enqueues == 0 and wb.last_service_end == 0


def test_enqueue_counts():
    wb = TimedWriteBuffer(2)
    for _ in range(5):
        enqueue(wb, 0, fixed(1))
    assert wb.enqueues == 5


# ----------------------------------------------------------------------
# Drain ordering under back-to-back block operations
# ----------------------------------------------------------------------
def test_backtoback_bursts_complete_in_fifo_order():
    """Two block ops' write bursts drain strictly in enqueue order even
    when service times vary wildly (the conformance wb-order invariant)."""
    wb = TimedWriteBuffer(4)
    completions = []
    for duration in (7, 1, 9, 2, 5, 1, 8, 3):  # op A then op B, no gap
        enqueue(wb, 0, fixed(duration))
        completions.append(wb.last_service_end)
    assert completions == sorted(completions)
    assert wb.drain_time(0) == completions[-1]


def test_backtoback_bursts_with_gap_keep_order():
    """A second burst starting while the first still drains serializes
    behind it; one starting after the drain does not stall."""
    wb = TimedWriteBuffer(2)
    for _ in range(4):
        enqueue(wb, 0, fixed(10))
    mid_end = wb.last_service_end
    assert mid_end == 40
    # Back-to-back: next burst overlaps the tail of the first.
    t, stall = enqueue(wb, 15, fixed(10))
    assert stall > 0
    assert wb.last_service_end == 50
    # After a full drain there is no carried-over stall.
    t, stall = enqueue(wb, 200, fixed(10))
    assert (t, stall) == (200, 0)


def test_occupancy_during_backtoback_bursts():
    wb = TimedWriteBuffer(3)
    for start in (0, 0, 0, 30, 30, 30):
        enqueue(wb, start, fixed(10))
    # Entries retire strictly in completion order as time advances.
    occ = [wb.occupancy(t) for t in (0, 15, 45, 1000)]
    assert occ[0] >= occ[1] or occ[1] >= occ[2]
    assert occ[-1] == 0
