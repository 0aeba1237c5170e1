"""The miss-lifecycle tracer.

A :class:`Tracer` is a :class:`~repro.memsys.sink.Probe`:
:func:`attach_tracer` subscribes it to a freshly built
:class:`~repro.sim.system.MultiprocessorSystem`, and the core calls its
hooks — per-CPU accesses, the controller's bus-level operations, bus
grants and block-op brackets — at the moments they name.  A system
without a tracer pays one ``probe is not None`` test per hook site.  An
attached probe changes no path the simulation takes, so the metrics
stay bit-identical (``tests/test_obs.py`` proves this for every
scheme).

Recorded lifecycle:

* **miss issue** — a demand read/bypass read that missed, with the
  paper's classification, the issuing pc/mode/dclass, and the stall;
* **write-buffer stall** — a write whose buffer insertion stalled;
* **bus grant** — every bus reservation, with wait and occupancy;
* **fill / supply** — L2 fills (shared or for-ownership) and no-fill
  bypass supplies, with the source (another cache or memory);
* **upgrade / Firefly update / invalidation / write-back** — the
  coherence verbs, on the lane of the CPU that caused them;
* **block-op phases** — begin/end brackets per operation;
* **DMA holds** — the engine's bus occupancy and snoop penalty.

Each processor access is reported once, with its final result.  The
event list is bounded by ``max_events`` (the profile accumulators are
not: a capped run still yields an exact miss profile).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional

from repro.common.types import MODE_BY_VALUE, Mode
from repro.memsys.bus import BUS_OP_NAMES
from repro.memsys.sink import Probe
from repro.obs.events import (CAT_BLOCKOP, CAT_BUS, CAT_COH, CAT_DMA,
                              CAT_MISS, LANE_BUS, PH_BEGIN, PH_COMPLETE,
                              PH_END, PH_INSTANT, TraceEvent, classify_miss)

#: Default cap on the recorded event list (~100 MB of JSON at the limit).
DEFAULT_MAX_EVENTS = 1_000_000


class Tracer(Probe):
    """Collects typed events and per-site miss statistics for one run."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        #: Events discarded after the cap was hit (timeline only; the
        #: profile counters below keep counting).
        self.dropped = 0
        #: High-water mark of event timestamps (approximate "now" for
        #: hooks that have no time argument, e.g. invalidations).
        self.clock = 0
        # Filled in by attach_tracer().
        self.num_cpus = 0
        self.processors: list = []
        self.l1_line_bytes = 16
        self.page_bytes = 4096
        self.symbols = None
        # ---- profile accumulators (exact even when events are capped) --
        self.read_misses = 0
        #: pc -> miss-kind -> count, over all read misses.
        self.site_kinds: Dict[int, Counter] = defaultdict(Counter)
        #: pc -> OS-mode read misses (the paper's Table 6 ranks by this).
        self.site_os: Counter = Counter()
        #: pc -> miss stall cycles.
        self.site_stall: Counter = Counter()
        #: L1-line address -> read misses.
        self.line_misses: Counter = Counter()
        #: page address -> read misses.
        self.page_misses: Counter = Counter()

    # ------------------------------------------------------------------
    # Core emit
    # ------------------------------------------------------------------
    def emit(self, name: str, cat: str, ph: str, ts: int, lane: int,
             dur: int = 0, args: Optional[Dict[str, object]] = None) -> None:
        end = ts + dur
        if end > self.clock:
            self.clock = end
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(name, cat, ph, ts, dur, lane,
                                      args if args is not None else {}))

    # ------------------------------------------------------------------
    # Per-CPU and processor hooks
    # ------------------------------------------------------------------
    def read(self, cpu: int, addr: int, t: int, res) -> None:
        if res.miss:
            self.miss(cpu, "read", addr, t, res)

    def read_bypass(self, cpu: int, addr: int, t: int, res) -> None:
        if res.miss:
            self.miss(cpu, "read-bypass", addr, t, res)

    def write_end(self, cpu: int, addr: int, t: int, done: int,
                  stall: int) -> None:
        if stall:
            self.write_stall(cpu, addr, t, stall)

    def write_bypass(self, cpu: int, addr: int, t: int, res) -> None:
        if res.stall:
            self.write_stall(cpu, addr, t, res.stall)

    def miss(self, cpu: int, op: str, addr: int, t: int, res) -> None:
        """A demand read (or bypass read) missed; *res* is its result."""
        proc = self.processors[cpu]
        pos = proc.pos - 1
        rec = proc.record(pos) if 0 <= pos < proc.num_records else None
        blockop = bool(rec.blockop) if rec is not None else False
        kind = classify_miss(blockop, res.flags)
        pc = rec.pc if rec is not None else 0
        mode = MODE_BY_VALUE[rec.mode] if rec is not None else Mode.OS
        stall = res.stall + res.pref_stall
        self.read_misses += 1
        self.site_kinds[pc][kind] += 1
        if mode == Mode.OS:
            self.site_os[pc] += 1
        self.site_stall[pc] += stall
        line = addr - addr % self.l1_line_bytes
        self.line_misses[line] += 1
        self.page_misses[addr - addr % self.page_bytes] += 1
        args = {"addr": addr, "pc": pc, "kind": kind, "mode": mode.name,
                "level": res.level, "stall": stall}
        if rec is not None:
            args["dclass"] = int(rec.dclass)
        self.emit(f"{op}.{kind}", CAT_MISS, PH_COMPLETE, t, cpu,
                  dur=max(0, res.done - t), args=args)

    def write_stall(self, cpu: int, addr: int, t: int, stall: int) -> None:
        """A write's buffer insertion stalled the processor."""
        self.emit("write.buffer-stall", CAT_MISS, PH_COMPLETE, t, cpu,
                  dur=stall, args={"addr": addr})

    def block_begin(self, cpu: int, t: int, desc) -> None:
        args = {}
        if desc is not None:
            args = {"op": desc.op_id,
                    "kind": "copy" if desc.is_copy else "zero",
                    "size": desc.size, "dst": desc.dst}
            if desc.is_copy:
                args["src"] = desc.src
        self.emit("blockop", CAT_BLOCKOP, PH_BEGIN, t, cpu, args=args)

    def block_end(self, cpu: int, t: int) -> None:
        self.emit("blockop", CAT_BLOCKOP, PH_END, t, cpu, args={})

    # ------------------------------------------------------------------
    # Bus and coherence hooks
    # ------------------------------------------------------------------
    def bus_grant(self, kind, t: int, grant: int, duration: int) -> None:
        self.emit(f"bus.{BUS_OP_NAMES[kind]}", CAT_BUS, PH_COMPLETE, grant,
                  LANE_BUS, dur=duration, args={"wait": grant - t})

    def fill(self, cpu: int, line: int, t: int, ready: int,
             from_cache: bool, shared: bool) -> None:
        name = "fill.shared" if shared else "fill.owned"
        self.emit(name, CAT_COH, PH_COMPLETE, t, cpu, dur=max(0, ready - t),
                  args={"line": line,
                        "source": "cache" if from_cache else "mem"})

    def supply(self, cpu: int, line: int, t: int, ready: int,
               from_cache: bool) -> None:
        self.emit("supply.nofill", CAT_COH, PH_COMPLETE, t, cpu,
                  dur=max(0, ready - t),
                  args={"line": line,
                        "source": "cache" if from_cache else "mem"})

    def upgrade(self, cpu: int, line: int, t: int, done: int) -> None:
        self.emit("upgrade", CAT_COH, PH_COMPLETE, t, cpu,
                  dur=max(0, done - t), args={"line": line})

    def update(self, cpu: int, addr: int, t: int, done: int,
               holders) -> None:
        self.emit("firefly.update", CAT_COH, PH_COMPLETE, t, cpu,
                  dur=max(0, done - t), args={"addr": addr,
                                              "holders": len(holders)})

    def invalidate(self, cpu: int, line: int, victims) -> None:
        # The hook carries no timestamp; the enclosing bus operation has
        # already advanced the tracer clock, which is the closest cycle
        # the hardware would broadcast the invalidation at.
        self.emit("invalidate", CAT_COH, PH_INSTANT, self.clock, cpu,
                  args={"line": line, "copies": len(victims)})

    def dma(self, cpu: int, desc, result) -> None:
        """The DMA engine performed *desc*; *result* is its DmaResult."""
        self.emit("dma", CAT_DMA, PH_COMPLETE, result.grant, LANE_BUS,
                  dur=result.occupancy,
                  args={"cpu": cpu, "op": desc.op_id,
                        "kind": "copy" if desc.is_copy else "zero",
                        "size": desc.size,
                        "snoop_penalty": result.snoop_penalty})


# ======================================================================
# Attachment
# ======================================================================
def attach_tracer(system, tracer: Optional[Tracer] = None,
                  max_events: int = DEFAULT_MAX_EVENTS) -> Tracer:
    """Subscribe a tracer to *system*; returns it.

    Must run before :meth:`~repro.sim.system.MultiprocessorSystem.run`.
    Composes with the conformance checker and the timeline recorder in
    either attachment order.
    """
    if tracer is None:
        tracer = Tracer(max_events=max_events)
    system.attach(tracer)
    machine = system.config.machine
    tracer.num_cpus = system.trace.num_cpus
    tracer.processors = system.processors
    tracer.l1_line_bytes = machine.l1d.line_bytes
    tracer.page_bytes = machine.page_bytes
    tracer.symbols = system.trace.symbols
    return tracer
