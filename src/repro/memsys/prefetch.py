"""Prefetch support: pending-fill tracking and the Blk_ByPref line buffer.

Two mechanisms from the paper live here:

* :class:`PendingFills` — software prefetches (Blk_Pref, and the hot-spot
  prefetches of section 6) install the line in the caches immediately but
  record when the data actually arrives.  A demand access that lands before
  the arrival time pays the *remaining* latency, which the metrics layer
  reports as partially-hidden ``Pref`` stall (Figure 3).

* :class:`PrefetchLineBuffer` — Blk_ByPref prefetches the source block into
  a small 8-line buffer beside the L1 ("The processor can access the
  prefetch buffer as fast as the primary cache") instead of polluting the
  caches.  The buffer replaces FIFO.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional


class PendingFills:
    """Arrival times of lines prefetched into the caches.

    ``ready`` is public: the simulator's L1-hit fast path binds the dict
    once and uses a membership probe to decide whether a resident line
    still has a fill in flight (in which case it takes the slow path,
    which calls :meth:`consume`).  The dict is mutated in place only.
    """

    __slots__ = ("ready", "issued")

    def __init__(self) -> None:
        #: line address -> cycle the prefetched data arrives.
        self.ready: Dict[int, int] = {}
        self.issued = 0

    def add(self, line: int, ready: int) -> None:
        """Record that *line* was requested and arrives at *ready*."""
        self.ready[line] = ready
        self.issued += 1

    def consume(self, line: int, t: int) -> int:
        """Remaining latency of *line* at time *t* (0 when absent/arrived).

        The entry is removed once the data has arrived or been waited for.
        """
        ready = self.ready.pop(line, None)
        if ready is None or ready <= t:
            return 0
        return ready - t

    def peek(self, line: int) -> Optional[int]:
        """Arrival time of *line* if a fill is pending, else None."""
        return self.ready.get(line)

    def drop(self, line: int) -> None:
        """Forget a pending fill (line was invalidated or evicted)."""
        self.ready.pop(line, None)

    def __len__(self) -> int:
        return len(self.ready)


class PrefetchLineBuffer:
    """FIFO buffer of prefetched lines, accessed as fast as the L1."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("prefetch buffer needs capacity >= 1")
        self.capacity = capacity
        self._lines: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def insert(self, line: int, ready: int) -> None:
        """Add *line* (arriving at *ready*), evicting the oldest if full."""
        if line in self._lines:
            self._lines.pop(line)
        elif len(self._lines) >= self.capacity:
            self._lines.popitem(last=False)
        self._lines[line] = ready

    def lookup(self, line: int) -> Optional[int]:
        """Arrival time of *line* if buffered, else None."""
        return self._lines.get(line)

    def contains(self, line: int) -> bool:
        return line in self._lines

    def clear(self) -> None:
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._lines)
