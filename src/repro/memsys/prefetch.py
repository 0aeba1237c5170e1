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
from typing import Dict


class PendingFills:
    """Arrival times of lines prefetched into the caches.

    ``ready`` is public: the simulator's L1-hit fast path binds the dict
    once and uses a membership probe to decide whether a resident line
    still has a fill in flight (in which case it sends the read to
    :meth:`CpuMemorySystem.load
    <repro.memsys.hierarchy.CpuMemorySystem.load>`, which pops the
    entry).  The dict is mutated in place only.
    """

    __slots__ = ("ready",)

    def __init__(self) -> None:
        #: line address -> cycle the prefetched data arrives.
        self.ready: Dict[int, int] = {}

    def add(self, line: int, ready: int) -> None:
        """Record that *line* was requested and arrives at *ready*."""
        self.ready[line] = ready

    def drop(self, line: int) -> None:
        """Forget a pending fill (line was invalidated or evicted)."""
        self.ready.pop(line, None)


class PrefetchLineBuffer:
    """FIFO buffer of prefetched lines, accessed as fast as the L1.

    ``lines`` is public for the same reason as :attr:`PendingFills.ready`:
    the processor's record loop binds it once and serves a block-op read
    of a ready buffered line itself.  It is mutated in place only.
    """

    __slots__ = ("capacity", "lines")

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("prefetch buffer needs capacity >= 1")
        self.capacity = capacity
        #: line address -> cycle the prefetched data arrives, oldest first.
        self.lines: "OrderedDict[int, int]" = OrderedDict()

    def insert(self, line: int, ready: int) -> None:
        """Add *line* (arriving at *ready*), evicting the oldest if full."""
        if line in self.lines:
            self.lines.pop(line)
        elif len(self.lines) >= self.capacity:
            self.lines.popitem(last=False)
        self.lines[line] = ready

    def contains(self, line: int) -> bool:
        return line in self.lines

    def clear(self) -> None:
        self.lines.clear()
