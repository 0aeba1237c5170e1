"""Machine parameter dataclasses and the Base configuration of section 2.4.

The paper's simulated machine:

* 4 processors at 200 MHz.
* Per processor: 16-KB direct-mapped L1 instruction cache (16-B lines),
  32-KB direct-mapped write-through L1 data cache (16-B lines), 256-KB
  direct-mapped write-back lockup-free unified L2 cache (32-B lines).
* A 4-deep word-wide write buffer between L1 and L2 and an 8-deep
  32-byte-wide write buffer between L2 and the bus.  Reads bypass writes.
* Illinois cache-coherence protocol under release consistency.
* 8-byte-wide 40-MHz split-transaction bus; a 32-B line transfer occupies
  the bus for 20 processor cycles.
* Uncontended word-read latencies: 1 cycle (L1), 12 (L2), 51 (memory).

Figures 6 and 7 sweep the L1D size over {16, 32, 64} KB and the L1D line
size over {16, 32, 64} B (with 64-B L2 lines for the line-size sweep);
:func:`MachineParams.with_l1d` builds those variants.
"""

from __future__ import annotations

import dataclasses

from repro.common.errors import ConfigError
from repro.common.units import KB, is_power_of_two


#: Widest machine the simulator (and the workload generator) accepts.
#: The single authority for the bound: :class:`MachineParams`,
#: ``repro.synthetic.profiles`` and ``repro.synthetic.generator`` all
#: validate against this constant so the limits cannot drift apart.
MAX_CPUS = 32


def validate_num_cpus(num_cpus: int, context: str = "machine") -> None:
    """Raise :class:`ConfigError` unless ``1 <= num_cpus <= MAX_CPUS``."""
    if not 1 <= num_cpus <= MAX_CPUS:
        raise ConfigError(
            f"{context}: num_cpus {num_cpus} outside [1, {MAX_CPUS}]")


@dataclasses.dataclass(frozen=True)
class CacheParams:
    """Geometry of one cache array.

    ``assoc`` is the set associativity: 1 (the paper's direct-mapped
    testbed) or any power of two up to fully associative.  A set-
    associative cache keeps ``num_sets == num_lines // assoc`` sets of
    ``assoc`` line frames each, replaced LRU within the set.
    """

    size_bytes: int
    line_bytes: int
    assoc: int = 1

    def __post_init__(self) -> None:
        if not is_power_of_two(self.size_bytes):
            raise ConfigError(f"cache size {self.size_bytes} not a power of two")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError(f"line size {self.line_bytes} not a power of two")
        if self.size_bytes % self.line_bytes:
            raise ConfigError("cache size must be a multiple of the line size")
        if self.size_bytes < self.line_bytes:
            raise ConfigError("cache smaller than one line")
        if not is_power_of_two(self.assoc):
            raise ConfigError(f"associativity {self.assoc} not a power of two")
        if self.assoc > self.size_bytes // self.line_bytes:
            raise ConfigError(
                f"associativity {self.assoc} exceeds the "
                f"{self.size_bytes // self.line_bytes} line frames")

    @property
    def num_lines(self) -> int:
        """Number of line frames (sets x ways)."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (== ``num_lines`` when direct-mapped)."""
        return self.num_lines // self.assoc


@dataclasses.dataclass(frozen=True)
class BusParams:
    """Split-transaction bus timing, in processor cycles."""

    #: Processor cycles per bus cycle (200 MHz CPU / 40 MHz bus).
    cpu_cycles_per_bus_cycle: int = 5
    #: Bus width in bytes.
    width_bytes: int = 8
    #: Cycles the bus is held for the address/request phase of a read.
    request_cycles: int = 5
    #: Cycles main memory needs between request and first data (no bus held).
    memory_access_cycles: int = 26
    #: Cycles a dirty cache needs to start supplying a line (Illinois).
    cache_supply_cycles: int = 10
    #: Cycles an invalidation-only transaction holds the bus.
    invalidate_cycles: int = 5
    #: Cycles an 8-byte Firefly update transaction holds the bus.
    update_cycles: int = 10

    def line_transfer_cycles(self, line_bytes: int) -> int:
        """Bus occupancy (CPU cycles) to move one line of *line_bytes*.

        One bus cycle moves ``width_bytes``; a 32-B line therefore takes
        4 bus cycles == 20 processor cycles, matching the paper.
        """
        beats = -(-line_bytes // self.width_bytes)
        return beats * self.cpu_cycles_per_bus_cycle


@dataclasses.dataclass(frozen=True)
class WriteBufferParams:
    """Depth/width of the two write buffers."""

    #: Entries in the word-wide buffer between L1D and L2.
    l1_depth: int = 4
    #: Cycles to retire one word from the L1 buffer into an owned L2 line.
    l1_drain_cycles: int = 3
    #: Entries in the 32-byte-wide buffer between L2 and the bus.
    l2_depth: int = 8


@dataclasses.dataclass(frozen=True)
class DmaParams:
    """Timing of the Blk_Dma engine (section 4.2).

    The operation takes 19 cycles to start (plus bus-arbitration
    contention), then transfers 8 bytes every 2 bus cycles in the best
    case.
    """

    startup_cycles: int = 19
    bytes_per_beat: int = 8
    #: Bus cycles per beat (2 bus cycles = 10 CPU cycles per 8 bytes).
    bus_cycles_per_beat: int = 2


@dataclasses.dataclass(frozen=True)
class MachineParams:
    """Complete description of the simulated multiprocessor."""

    num_cpus: int = 4
    l1i: CacheParams = CacheParams(16 * KB, 16)
    l1d: CacheParams = CacheParams(32 * KB, 16)
    l2: CacheParams = CacheParams(256 * KB, 32)
    bus: BusParams = BusParams()
    write_buffers: WriteBufferParams = WriteBufferParams()
    dma: DmaParams = DmaParams()
    #: Latency of an L1D hit (cycles).  Must be 1: a hit is charged as
    #: its one instruction's exec cycle, so any other value would
    #: advance the clocks by cycles no Figure 3 bar accounts for.
    l1_hit_cycles: int = 1
    #: Uncontended latency of a word read satisfied by L2 (cycles).
    l2_hit_cycles: int = 12
    #: Page size used by the OS (block copies are at most one page).
    page_bytes: int = 4096
    #: Cycles to transfer lock ownership once released (spin re-read).
    lock_handoff_cycles: int = 20
    #: Cycles of scheduler overhead to release a barrier.
    barrier_release_cycles: int = 40

    def __post_init__(self) -> None:
        validate_num_cpus(self.num_cpus)
        if self.l1_hit_cycles != 1:
            raise ConfigError(
                f"l1_hit_cycles must be 1, not {self.l1_hit_cycles}: an L1D "
                f"hit is charged one exec cycle")
        if self.l2.line_bytes < self.l1d.line_bytes:
            raise ConfigError("L2 line must be at least as large as L1D line")
        if self.l2.size_bytes < self.l1d.size_bytes:
            raise ConfigError("L2 must be at least as large as L1D (inclusion)")

    @property
    def memory_read_cycles(self) -> int:
        """Uncontended word-read-from-memory latency (cycles).

        request + DRAM access + line transfer — 5 + 26 + 20 = 51 for the
        Base machine, matching section 2.4.
        """
        return (
            self.bus.request_cycles
            + self.bus.memory_access_cycles
            + self.bus.line_transfer_cycles(self.l2.line_bytes)
        )

    def with_l1d(self, size_bytes: int | None = None, line_bytes: int | None = None,
                 l2_line_bytes: int | None = None) -> "MachineParams":
        """Return a copy with a different L1D geometry (Figures 6 and 7).

        When *line_bytes* grows past the L2 line, the L2 line follows so
        inclusion still holds; Figure 7 uses 64-B L2 lines explicitly.
        """
        l1d = CacheParams(
            size_bytes if size_bytes is not None else self.l1d.size_bytes,
            line_bytes if line_bytes is not None else self.l1d.line_bytes,
        )
        l2_line = l2_line_bytes if l2_line_bytes is not None else self.l2.line_bytes
        l2_line = max(l2_line, l1d.line_bytes)
        l2 = CacheParams(self.l2.size_bytes, l2_line)
        return dataclasses.replace(self, l1d=l1d, l2=l2)


#: The Base machine of section 2.4.
BASE_MACHINE = MachineParams()


def machine_for(num_cpus: int, *, assoc: int = 1,
                bus_width_bytes: int | None = None) -> MachineParams:
    """The Base machine resized to exactly *num_cpus* processors.

    This is the single authority for turning a trace's or sweep's CPU
    count into a :class:`MachineParams` — the CLI's ``simulate`` and
    ``sweep`` and the conformance fuzzer all use it, so a 2-CPU trace simulates
    on a 2-CPU machine rather than the 4-CPU Base with phantom idle
    processors.  *assoc* applies the same set associativity to all
    three caches; *bus_width_bytes* widens (or narrows) the bus for
    larger machines.  ``machine_for(4)`` is ``BASE_MACHINE`` itself,
    preserving every existing simulation fingerprint.
    """
    validate_num_cpus(num_cpus)
    machine = BASE_MACHINE
    if assoc != 1:
        machine = dataclasses.replace(
            machine,
            l1i=dataclasses.replace(machine.l1i, assoc=assoc),
            l1d=dataclasses.replace(machine.l1d, assoc=assoc),
            l2=dataclasses.replace(machine.l2, assoc=assoc),
        )
    if (bus_width_bytes is not None
            and bus_width_bytes != machine.bus.width_bytes):
        if not is_power_of_two(bus_width_bytes):
            raise ConfigError(
                f"bus width {bus_width_bytes} not a power of two")
        machine = dataclasses.replace(
            machine,
            bus=dataclasses.replace(machine.bus,
                                    width_bytes=bus_width_bytes),
        )
    if num_cpus != machine.num_cpus:
        machine = dataclasses.replace(machine, num_cpus=num_cpus)
    return machine
