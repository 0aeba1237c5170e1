"""The core's two observation protocols: metrics sinks and probes.

The memory system reports the events the paper's miss taxonomy needs —
coherence invalidations, fills and displacements during block operations,
lines fetched in bypass mode — to a per-CPU sink.  :class:`MemorySink` is
the no-op base; :class:`repro.sim.metrics.MissTracker` implements the real
bookkeeping.  Keeping the protocol here lets :mod:`repro.memsys` stay
independent of the simulator layer.

:class:`Probe` is the one way anything else hooks into the core: the
conformance checker, the miss tracer and the timeline recorder subscribe
to its hooks through :meth:`~repro.sim.system.MultiprocessorSystem.attach`.
"""

from __future__ import annotations

from typing import NamedTuple


class MissFlags(NamedTuple):
    """Cause flags attached to one L1D read miss.

    ``coherence`` — the line had been invalidated by a remote write while
    resident.  ``displaced`` — the line had been evicted by a block-op
    fill (a *block displacement miss*).  ``bypassed`` — the line had been
    moved by a bypassing scheme without being cached (a *reuse* miss).
    """

    coherence: bool = False
    displaced: bool = False
    bypassed: bool = False


#: Flags value meaning "no special cause".
NO_FLAGS = MissFlags()


class MemorySink:
    """No-op sink; subclass and override what you need."""

    __slots__ = ()

    def coherence_invalidate(self, l1_line: int) -> None:
        """A remote write invalidated *l1_line* while it sat in this L1D."""

    def l1_fill(self, l1_line: int, evicted_line: int, during_blockop: bool) -> None:
        """*l1_line* was installed in the L1D, evicting *evicted_line* (-1
        when the set was empty).  ``during_blockop`` is True when the fill
        was triggered by a block-operation access, which makes the eviction
        a potential *block displacement miss* later (section 4.1.3)."""

    def bypass_mark(self, l1_line: int) -> None:
        """*l1_line* was moved by a bypassing scheme without being cached;
        a later demand miss on it is a *reuse* miss (section 4.1.3)."""

    def consume_miss_flags(self, l1_line: int) -> MissFlags:
        """Called by the hierarchy at the moment of an L1D read miss,
        *before* the refill clears the bookkeeping.  Returns (and clears)
        the cause flags for *l1_line*."""
        return NO_FLAGS


class Probe:
    """No-op observer of the core; subclass and override what you need.

    The conformance checker, the miss tracer and the timeline recorder
    are probes.  :meth:`MultiprocessorSystem.attach
    <repro.sim.system.MultiprocessorSystem.attach>` hands every component
    one ``probe`` reference — ``None`` when nothing is attached, so each
    hook site costs one ``is not None`` test — and the components call
    the hooks below at the moments they name.  Unlike :class:`MemorySink`,
    which feeds the always-on metrics, a probe only observes.

    Each processor access is reported once, with its final result: a
    bypassing access that falls back to the cached path is reported by
    the plain read or write hooks, not by the bypass hooks.
    """

    # -- per-CPU accesses (CpuMemorySystem); *res* is an AccessResult ---
    def read(self, cpu: int, addr: int, t: int, res) -> None:
        """A demand read issued at *t* completed."""

    def read_bypass(self, cpu: int, addr: int, t: int, res) -> None:
        """A block-op source read was served by the bypass machinery."""

    def write_begin(self, cpu: int, addr: int, t: int) -> None:
        """A data write is about to enter the write buffers."""

    def write_end(self, cpu: int, addr: int, t: int, done: int,
                  stall: int) -> None:
        """The write begun at *t* is buffered after *stall* cycles."""

    def write_bypass(self, cpu: int, addr: int, t: int, res) -> None:
        """A block-op destination write went to the store line register."""

    # -- processor ------------------------------------------------------
    def block_begin(self, cpu: int, t: int, desc) -> None:
        """Block operation *desc* starts."""

    def block_end(self, cpu: int, t: int) -> None:
        """The running block operation ended (for DMA: the engine's)."""

    def step(self, proc, start: int, pos: int, result) -> None:
        """The scheduler stepped *proc* from stream position *pos*."""

    # -- coherence controller and DMA engine -----------------------------
    def fill_from_memory(self, cpu: int, line: int) -> None:
        """Memory is about to supply *line* to *cpu*."""

    def fill_from_cache(self, cpu: int, line: int, holders) -> None:
        """*holders* are about to supply *line* for a read, before their
        state transition."""

    def fill_for_ownership(self, cpu: int, line: int, dirty) -> None:
        """A read-for-ownership is about to fetch *line* from the holder
        *dirty*, or from memory when it is ``None``."""

    def fill(self, cpu: int, line: int, t: int, ready: int,
             from_cache: bool, shared: bool) -> None:
        """A bus fill of *line* into *cpu*'s L2 completed at *ready*."""

    def supply(self, cpu: int, line: int, t: int, ready: int,
               from_cache: bool) -> None:
        """*line* was read over the bus without being cached."""

    def l2_install(self, cpu: int, line: int, evicted: int,
                   evicted_dirty: bool) -> None:
        """*line* entered *cpu*'s L2, evicting *evicted* (or -1)."""

    def upgrade(self, cpu: int, line: int, t: int, done: int) -> None:
        """An S->M upgrade invalidated the other copies of *line*."""

    def update(self, cpu: int, addr: int, t: int, done: int,
               holders) -> None:
        """An update write of *addr*'s word reached *holders*."""

    def adaptive_decision(self, cpu: int, addr: int, line: int,
                          decision) -> None:
        """The adaptive policy routed a bus write, before the route runs."""

    def invalidate(self, cpu: int, line: int, victims) -> None:
        """An operation by *cpu* invalidated the *victims*' copies."""

    def writeback(self, cpu: int, line: int) -> None:
        """*cpu* wrote its dirty copy of *line* back and kept it."""

    def line_to_memory(self, cpu: int, line: int, t: int, done: int,
                       kind) -> None:
        """*cpu* pushed a full line to memory without caching it."""

    def bypass_flush(self, cpu: int, line: int) -> None:
        """The bypass destination register flushed *line* to memory."""

    def dma(self, cpu: int, desc, result) -> None:
        """The DMA engine performed *desc*, after its snoops."""

    # -- bus and system -------------------------------------------------
    def bus_grant(self, kind, t: int, grant: int, duration: int) -> None:
        """A bus request made at *t* holds the bus from *grant*."""

    def finish(self) -> None:
        """The run completed and the metrics are final."""


class ProbeFanout(Probe):
    """Several probes behind one reference; hooks run in attach order."""

    def __init__(self, probes) -> None:
        self.probes = tuple(probes)


def _fan_out(name: str):
    def hook(self, *args) -> None:
        for probe in self.probes:
            getattr(probe, name)(*args)
    hook.__name__ = name
    return hook


for _name in [n for n in vars(Probe) if not n.startswith("_")]:
    setattr(ProbeFanout, _name, _fan_out(_name))
del _name
