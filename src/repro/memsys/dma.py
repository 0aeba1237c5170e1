"""The Blk_Dma engine (section 4.2).

A smart controller on the L2 cache performs a block operation in a DMA-like
fashion: it holds the bus for the whole transfer, pipelining data from
source to destination memory at 8 bytes per 2 bus cycles after a 19-cycle
startup, while the originating processor stalls.  Caches are bypassed;
snooping keeps them coherent — caches holding destination lines are updated
in place (the update propagates to the L1), and a cache holding a source
line dirty supplies the data, slowing the transfer slightly.
"""

from __future__ import annotations

from repro.common.units import align_down, ceil_div
from repro.memsys.bus import BUS_DMA
from repro.memsys.hierarchy import CpuMemorySystem
from repro.trace.blockop import BlockOpDescriptor


class DmaResult:
    """Timing of one DMA block operation."""

    __slots__ = ("grant", "done", "occupancy", "snoop_penalty")

    def __init__(self, grant: int, done: int, occupancy: int,
                 snoop_penalty: int) -> None:
        self.grant = grant
        self.done = done
        self.occupancy = occupancy
        self.snoop_penalty = snoop_penalty


def run_dma(mem: CpuMemorySystem, desc: BlockOpDescriptor, t: int) -> DmaResult:
    """Perform block operation *desc* with the DMA engine at time *t*.

    Returns the :class:`DmaResult`; the originating processor must stall
    until ``done`` (the paper charges this stall to D Read Miss).
    """
    machine = mem.machine
    dma = machine.dma
    bus = mem.bus
    controller = mem.controller
    l2_line = machine.l2.line_bytes
    l1_line = machine.l1d.line_bytes

    beats = ceil_div(desc.size, dma.bytes_per_beat)
    occupancy = dma.startup_cycles + beats * (
        dma.bus_cycles_per_beat * bus.params.cpu_cycles_per_bus_cycle)

    # Snoop work: dirty source suppliers and destination updates slow the
    # pipelined transfer by a few cycles each.
    penalty = 0
    if desc.is_copy:
        first = align_down(desc.src, l2_line)
        for line in range(first, desc.src + desc.size, l2_line):
            if controller.dma_snoop_src(mem.cpu_id, line):
                penalty += bus.params.cpu_cycles_per_bus_cycle
    first = align_down(desc.dst, l2_line)
    for line in range(first, desc.dst + desc.size, l2_line):
        holders = controller.dma_update_dst(mem.cpu_id, line)
        penalty += 2 * holders

    occupancy += penalty
    grant = bus.acquire(t, occupancy, BUS_DMA)
    done = grant + occupancy

    result = DmaResult(grant, done, occupancy, penalty)
    if mem.probe is not None:
        mem.probe.dma(mem.cpu_id, desc, result)

    # The transferred data is not brought into the originating CPU's
    # caches; mark uncached lines so reuse analysis can see them.
    ranges = [desc.dst_range()]
    if desc.is_copy:
        ranges.append(desc.src_range())
    for rng in ranges:
        first = align_down(rng.start, l1_line)
        for line in range(first, rng.stop, l1_line):
            if not mem.l1d.present(line):
                mem.sink.bypass_mark(line)
    return result
