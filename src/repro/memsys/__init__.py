"""The simulated memory system: caches, bus, coherence, buffers, DMA."""

from repro.memsys.bus import Bus, BusOp
from repro.memsys.cache import Cache, CoherentCache
from repro.memsys.coherence import CoherenceController
from repro.memsys.dma import DmaResult, run_dma
from repro.memsys.hierarchy import AccessResult, CpuMemorySystem
from repro.memsys.prefetch import PendingFills, PrefetchLineBuffer
from repro.memsys.sink import MissTracker
from repro.memsys.states import LineState, is_owned
from repro.memsys.writebuffer import TimedWriteBuffer

__all__ = [
    "AccessResult",
    "Bus",
    "BusOp",
    "Cache",
    "CoherenceController",
    "CoherentCache",
    "CpuMemorySystem",
    "DmaResult",
    "LineState",
    "MissTracker",
    "PendingFills",
    "PrefetchLineBuffer",
    "TimedWriteBuffer",
    "is_owned",
    "run_dma",
]
