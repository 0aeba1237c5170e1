"""Timed FIFO write buffers.

The machine has two write buffers per processor (section 2.4):

* a 4-deep, word-wide buffer between the write-through L1D and the L2;
* an 8-deep, 32-byte-wide buffer between the L2 and the bus, holding the
  writes that need a bus transaction (ownership fetches, invalidations,
  write-backs, bypassed block-op lines).

Reads bypass the buffers (release consistency); the processor only stalls
when it tries to insert into a *full* buffer — that stall is the
``D Write`` component of Figures 1 and 3.  Each entry carries a completion
time; an entry's service may start only after the previous entry finished
(FIFO drain), which is what makes a burst of bus-bound writes back up into
the processor.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


class TimedWriteBuffer:
    """FIFO buffer whose entries are (completion-time) timestamps.

    An entry goes in through two plain calls, with no service callback:
    :meth:`admit` takes a slot and says when the entry's service may
    start; the caller runs the service itself (an L2 drain, a bus
    transaction) and hands its end to :meth:`complete`.
    """

    __slots__ = ("depth", "name", "_entries", "last_service_end",
                 "stall_cycles", "enqueues", "overflows")

    def __init__(self, depth: int, name: str = "wb") -> None:
        if depth < 1:
            raise ValueError("buffer depth must be >= 1")
        self.depth = depth
        self.name = name
        #: Completion times of in-flight entries, oldest first.
        self._entries: Deque[int] = deque()
        #: When the most recent entry's service ends (FIFO serialization).
        self.last_service_end: int = 0
        #: Total cycles the processor stalled inserting into a full buffer.
        self.stall_cycles: int = 0
        #: Entries ever enqueued.
        self.enqueues: int = 0
        #: Enqueues that found the buffer full.
        self.overflows: int = 0

    def _expire(self, t: int) -> None:
        entries = self._entries
        while entries and entries[0] <= t:
            entries.popleft()

    def occupancy(self, t: int) -> int:
        """Entries still in flight at time *t*."""
        self._expire(t)
        return len(self._entries)

    def admit(self, t: int) -> Tuple[int, int, int]:
        """Admit an entry at time *t*, waiting for a slot if the buffer
        is full.

        Returns ``(insert_time, stall, start)``: when the entry went in,
        how long the caller waited for a free slot (0 when the buffer had
        room), and when its service may begin, after the previous entry's
        (FIFO drain).  The caller runs the service from ``start`` and
        passes its end to :meth:`complete` before admitting another entry.
        """
        entries = self._entries
        while entries and entries[0] <= t:
            entries.popleft()
        stall = 0
        if len(entries) >= self.depth:
            free_at = entries[0]
            stall = free_at - t
            t = free_at
            while entries and entries[0] <= t:
                entries.popleft()
            self.overflows += 1
            self.stall_cycles += stall
        lse = self.last_service_end
        return t, stall, t if t > lse else lse

    def complete(self, start: int, end: int) -> None:
        """Record that the entry admitted with service start *start*
        drains at *end*."""
        if end < start:
            raise ValueError(f"{self.name}: service ended before it started")
        self.last_service_end = end
        self._entries.append(end)
        self.enqueues += 1

    def drain_time(self, t: int) -> int:
        """Earliest time at or after *t* when the buffer is empty.

        Used by release-consistency synchronization points (lock release,
        barrier arrival), which must wait for all buffered writes.
        """
        self._expire(t)
        if not self._entries:
            return t
        return self._entries[-1]
