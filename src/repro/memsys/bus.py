"""Split-transaction bus model.

The bus is the single shared resource of the machine: 8 bytes wide, 40 MHz,
5 processor cycles per bus cycle.  We model it as a reservation timeline —
a transaction asks for the bus at time ``t`` and is granted
``max(t, next_free)``; the bus is then busy for the transaction's occupancy.
Because the system scheduler always advances the processor with the
smallest local time, grants are issued in (approximately) global time order
and the timeline reproduces first-order queueing contention without a
cycle-by-cycle tick loop.

Transaction kinds are tracked so the traffic comparisons of sections 5.2
and 6 (update-traffic overhead, prefetch-traffic neutrality) can be
reproduced.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Dict

from repro.common.params import BusParams


class BusOp(enum.Enum):
    """Kinds of bus transactions, for traffic accounting."""

    READ_MEM = "read_mem"
    READ_CACHE = "read_cache"
    OWNERSHIP = "ownership"
    INVALIDATE = "invalidate"
    UPDATE = "update"
    WRITEBACK = "writeback"
    PREFETCH = "prefetch"
    DMA = "dma"
    SYNC = "sync"


class Bus:
    """Reservation-timeline bus with per-kind traffic statistics."""

    def __init__(self, params: BusParams) -> None:
        self.params = params
        #: First cycle at which the bus is free.
        self.next_free: int = 0
        #: Total cycles the bus has been held.
        self.busy_cycles: int = 0
        #: Total cycles transactions waited for the bus.
        self.wait_cycles: int = 0
        #: Transaction counts by kind.
        self.transactions: Counter = Counter()
        #: Held cycles by kind.
        self.cycles_by_kind: Counter = Counter()
        #: Attached observer (:class:`~repro.memsys.sink.Probe`), or None.
        self.probe = None

    def acquire(self, t: int, duration: int, kind: BusOp,
                record_txn: bool = True) -> int:
        """Reserve the bus for *duration* cycles starting no earlier than *t*.

        Returns the grant time.  The caller's transaction completes at
        ``grant + duration``.  Split transactions reserve the bus twice
        (request phase, data phase); the second reservation passes
        ``record_txn=False`` so the transaction is counted once while its
        occupancy is still charged.
        """
        grant = t if t >= self.next_free else self.next_free
        self.next_free = grant + duration
        self.busy_cycles += duration
        self.wait_cycles += grant - t
        if record_txn:
            self.transactions[kind] += 1
        self.cycles_by_kind[kind] += duration
        if self.probe is not None:
            self.probe.bus_grant(kind, t, grant, duration)
        return grant

    def utilization(self, total_cycles: int) -> float:
        """Fraction of *total_cycles* the bus was held."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)

    def traffic_summary(self) -> Dict[str, int]:
        """Held cycles per transaction kind, keyed by kind name."""
        return {kind.value: cycles for kind, cycles in self.cycles_by_kind.items()}
