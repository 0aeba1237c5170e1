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
reproduced.  A kind is a :class:`BusOp`, an ``IntEnum``: the per-kind
statistics are plain int lists indexed by its value, and names
(:data:`BUS_OP_NAMES`) are attached only when a summary is read, so
:meth:`Bus.acquire` never hashes an enum member.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.common.params import BusParams


class BusOp(enum.IntEnum):
    """Kinds of bus transactions, for traffic accounting."""

    READ_MEM = 0
    READ_CACHE = 1
    OWNERSHIP = 2
    INVALIDATE = 3
    UPDATE = 4
    WRITEBACK = 5
    PREFETCH = 6
    DMA = 7


#: Summary key (and tracer event suffix) of each kind, by value.
BUS_OP_NAMES = tuple(op.name.lower() for op in BusOp)

# Each kind as a plain int module global, for the per-access callers of
# :meth:`Bus.acquire`: it indexes the per-kind lists directly and costs
# no enum class-attribute load.
BUS_READ_MEM = int(BusOp.READ_MEM)
BUS_READ_CACHE = int(BusOp.READ_CACHE)
BUS_OWNERSHIP = int(BusOp.OWNERSHIP)
BUS_INVALIDATE = int(BusOp.INVALIDATE)
BUS_UPDATE = int(BusOp.UPDATE)
BUS_WRITEBACK = int(BusOp.WRITEBACK)
BUS_PREFETCH = int(BusOp.PREFETCH)
BUS_DMA = int(BusOp.DMA)


class Bus:
    """Reservation-timeline bus with per-kind traffic statistics."""

    __slots__ = ("params", "next_free", "busy_cycles", "wait_cycles",
                 "transactions", "cycles_by_kind", "probe")

    def __init__(self, params: BusParams) -> None:
        self.params = params
        #: First cycle at which the bus is free.
        self.next_free: int = 0
        #: Total cycles the bus has been held.
        self.busy_cycles: int = 0
        #: Total cycles transactions waited for the bus.
        self.wait_cycles: int = 0
        #: Transaction counts, indexed by kind.
        self.transactions: List[int] = [0] * len(BusOp)
        #: Held cycles, indexed by kind.
        self.cycles_by_kind: List[int] = [0] * len(BusOp)
        #: Attached observer (:class:`~repro.memsys.sink.Probe`), or None.
        self.probe = None

    def acquire(self, t: int, duration: int, kind: int) -> int:
        """Reserve the bus for *duration* cycles starting no earlier than *t*.

        *kind* is a :class:`BusOp` value.  Returns the grant time; the
        caller's transaction completes at ``grant + duration``.  The
        transaction is counted once.
        """
        grant = t if t >= self.next_free else self.next_free
        self.next_free = grant + duration
        self.busy_cycles += duration
        self.wait_cycles += grant - t
        self.transactions[kind] += 1
        self.cycles_by_kind[kind] += duration
        if self.probe is not None:
            self.probe.bus_grant(kind, t, grant, duration)
        return grant

    def split_transaction(self, t: int, kind: int, wait: int,
                          data: int) -> int:
        """Reserve both phases of one split transaction asked for at *t*;
        returns when its data phase ends.

        The request phase holds the bus for ``request_cycles`` from the
        grant; the data phase holds it for *data* cycles from *wait*
        (>= 0) cycles after the request phase ends, while memory or the
        supplying cache works.  The transaction is counted once, the
        occupancy of both phases is charged, and an attached probe sees
        one ``bus_grant`` per phase.

        The wait is not given to other requests: :attr:`next_free` is
        one cursor, and the data phase moves it past the wait, so a
        request that arrives meanwhile is granted only after the data
        phase ends.  A bus model that releases the bus between the
        phases replaces this method.
        """
        request = self.params.request_cycles
        grant = t if t >= self.next_free else self.next_free
        data_at = grant + request + wait
        end = data_at + data
        self.next_free = end
        self.busy_cycles += request + data
        self.wait_cycles += grant - t
        self.transactions[kind] += 1
        self.cycles_by_kind[kind] += request + data
        if self.probe is not None:
            self.probe.bus_grant(kind, t, grant, request)
            self.probe.bus_grant(kind, data_at, data_at, data)
        return end

    def utilization(self, total_cycles: int) -> float:
        """Fraction of *total_cycles* the bus was held."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)

    def traffic_summary(self) -> Dict[str, int]:
        """Held cycles per kind that ran a transaction, keyed by kind name.

        Every hold of the bus belongs to a counted transaction, so this
        is every kind that held the bus, for zero cycles too.
        """
        return {BUS_OP_NAMES[kind]: cycles
                for kind, cycles in enumerate(self.cycles_by_kind)
                if self.transactions[kind]}

    def transaction_summary(self) -> Dict[str, int]:
        """Transaction counts per kind that ran one, keyed by kind name."""
        return {BUS_OP_NAMES[kind]: count
                for kind, count in enumerate(self.transactions) if count}
