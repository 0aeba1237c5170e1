"""Unit helpers: sizes, clock conversion, address arithmetic.

The simulated machine (paper section 2.4) runs the processors at 200 MHz and
the bus at 40 MHz, so one bus cycle is exactly five processor cycles.  All
simulator timing is expressed in *processor* cycles; these helpers keep the
conversions in one place.
"""

from __future__ import annotations

#: Bytes in a kilobyte, as used for cache sizes throughout the paper.
KB = 1024

#: Processor clock frequency of the simulated machine (Hz).
CPU_HZ = 200_000_000

#: Bus clock frequency of the simulated machine (Hz).
BUS_HZ = 40_000_000

#: Processor cycles per bus cycle (200 MHz / 40 MHz).
CPU_CYCLES_PER_BUS_CYCLE = CPU_HZ // BUS_HZ

#: Machine word size in bytes (32-bit machine, as on the Alliant FX/8).
WORD_BYTES = 4


def cycles_to_seconds(cycles: float) -> float:
    """Convert processor cycles to seconds of simulated time."""
    return cycles / CPU_HZ


def is_power_of_two(n: int) -> bool:
    """Return True when *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def align_down(addr: int, granularity: int) -> int:
    """Round *addr* down to a multiple of *granularity* (a power of two)."""
    return addr & ~(granularity - 1)


def align_up(addr: int, granularity: int) -> int:
    """Round *addr* up to a multiple of *granularity* (a power of two)."""
    return (addr + granularity - 1) & ~(granularity - 1)


def ceil_div(a: int, b: int) -> int:
    """Integer division rounding up."""
    return -(-a // b)
