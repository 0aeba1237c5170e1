"""The miss-lifecycle tracer and its attachment machinery.

:func:`attach_tracer` arms a freshly built
:class:`~repro.sim.system.MultiprocessorSystem` with a :class:`Tracer`
using the same instance-level hook pattern as
:mod:`repro.check.invariants`: the per-CPU access methods, the
controller's bus-level operations, and the bus grant path are wrapped by
plain attribute assignment on the instances, so a system without a
tracer pays nothing — not even an attribute test on the processor's
inline L1-hit fast path.  Unlike the checker, the tracer needs **no**
fast-path forcing: the inline path only resolves *clean L1 hits*, which
are never misses, so every event the tracer records already travels
through a wrapped method and the metrics stay bit-identical by
construction (``tests/test_obs.py`` proves this for all 8 schemes).

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

The event list is bounded by ``max_events`` (the profile accumulators
are not: a capped run still yields an exact miss profile).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.common.types import MODE_BY_VALUE, Mode
from repro.memsys.bus import BusOp
from repro.obs.events import (CAT_BLOCKOP, CAT_BUS, CAT_COH, CAT_DMA,
                              CAT_MISS, LANE_BUS, PH_BEGIN, PH_COMPLETE,
                              PH_END, PH_INSTANT, TraceEvent, classify_miss)

#: Default cap on the recorded event list (~100 MB of JSON at the limit).
DEFAULT_MAX_EVENTS = 1_000_000


class Tracer:
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
    # Miss-level hooks (per-CPU wrappers)
    # ------------------------------------------------------------------
    def miss(self, cpu: int, proc, op: str, addr: int, t: int, res) -> None:
        """A demand read (or bypass read) missed; *res* is its result."""
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

    def blockop(self, cpu: int, ph: str, ts: int, desc) -> None:
        args = {}
        if ph == PH_BEGIN and desc is not None:
            args = {"op": desc.op_id,
                    "kind": "copy" if desc.is_copy else "zero",
                    "size": desc.size, "dst": desc.dst}
            if desc.is_copy:
                args["src"] = desc.src
        self.emit("blockop", CAT_BLOCKOP, ph, ts, cpu, args=args)

    # ------------------------------------------------------------------
    # Bus / coherence hooks (controller and bus wrappers)
    # ------------------------------------------------------------------
    def bus_grant(self, kind: str, t: int, grant: int, duration: int) -> None:
        self.emit(f"bus.{kind}", CAT_BUS, PH_COMPLETE, grant, LANE_BUS,
                  dur=duration, args={"wait": grant - t})

    def fill(self, cpu: int, line: int, t: int, ready: int, source: str,
             shared: bool) -> None:
        name = "fill.shared" if shared else "fill.owned"
        self.emit(name, CAT_COH, PH_COMPLETE, t, cpu, dur=max(0, ready - t),
                  args={"line": line, "source": source})

    def supply_nofill(self, cpu: int, line: int, t: int, ready: int,
                      source: str) -> None:
        self.emit("supply.nofill", CAT_COH, PH_COMPLETE, t, cpu,
                  dur=max(0, ready - t), args={"line": line,
                                               "source": source})

    def upgrade(self, cpu: int, line: int, t: int, done: int) -> None:
        self.emit("upgrade", CAT_COH, PH_COMPLETE, t, cpu,
                  dur=max(0, done - t), args={"line": line})

    def update(self, cpu: int, addr: int, t: int, done: int,
               holders: int) -> None:
        self.emit("firefly.update", CAT_COH, PH_COMPLETE, t, cpu,
                  dur=max(0, done - t), args={"addr": addr,
                                              "holders": holders})

    def invalidate(self, cpu: int, line: int, copies: int) -> None:
        # _invalidate_remotes carries no timestamp; the enclosing bus
        # operation has already advanced the tracer clock, which is the
        # closest cycle the hardware would broadcast the invalidation at.
        self.emit("invalidate", CAT_COH, PH_INSTANT, self.clock, cpu,
                  args={"line": line, "copies": copies})

    def writeback(self, cpu: int, line: int, t: int, done: int,
                  kind: str) -> None:
        self.emit("writeback", CAT_COH, PH_COMPLETE, t, cpu,
                  dur=max(0, done - t), args={"line": line, "kind": kind})

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
    """Arm *system* with a tracer; returns it.

    Must run before :meth:`~repro.sim.system.MultiprocessorSystem.run`.
    Composes with the conformance checker in either attachment order
    (each wrapper chains to whatever the method was before it).
    """
    if getattr(system, "tracer", None) is not None:
        raise SimulationError("system already has a tracer attached")
    if tracer is None:
        tracer = Tracer(max_events=max_events)
    machine = system.config.machine
    tracer.num_cpus = system.trace.num_cpus
    tracer.l1_line_bytes = machine.l1d.line_bytes
    tracer.page_bytes = machine.page_bytes
    tracer.symbols = system.trace.symbols
    system.tracer = tracer
    system.controller.tracer = tracer
    _wrap_bus(tracer, system.bus)
    _wrap_controller(tracer, system.controller)
    for proc, mem in zip(system.processors, system.memories):
        _wrap_cpu(tracer, mem, proc)
    return tracer


def _wrap_cpu(tracer: Tracer, mem, proc) -> None:
    """Wrap one CPU's miss-path methods on the *instance*."""
    cpu = mem.cpu_id
    orig_read = mem.read
    orig_read_bypass = mem.read_bypass
    orig_write = mem.write
    orig_write_bypass = mem.write_bypass
    orig_block_start = proc._do_block_start
    orig_block_end = proc._do_block_end

    def read(addr, t):
        res = orig_read(addr, t)
        if res.miss:
            tracer.miss(cpu, proc, "read", addr, t, res)
        return res

    def read_bypass(addr, t):
        res = orig_read_bypass(addr, t)
        if res.miss:
            tracer.miss(cpu, proc, "read-bypass", addr, t, res)
        return res

    def write(addr, t):
        done, stall = orig_write(addr, t)
        if stall:
            tracer.write_stall(cpu, addr, t, stall)
        return done, stall

    def write_bypass(addr, t):
        res = orig_write_bypass(addr, t)
        if res.stall:
            tracer.write_stall(cpu, addr, t, res.stall)
        return res

    def _do_block_start(rec, t):
        desc = proc.blockops.get(rec.blockop)
        tracer.blockop(cpu, PH_BEGIN, t, desc)
        out = orig_block_start(rec, t)
        if proc._blk_desc is None:
            # DMA scheme: the engine ran the whole operation (and swallowed
            # the word records, so _do_block_end never fires) — close here.
            tracer.blockop(cpu, PH_END, out, desc)
        return out

    def _do_block_end(rec, t):
        out = orig_block_end(rec, t)
        tracer.blockop(cpu, PH_END, out, None)
        return out

    mem.read = read
    mem.read_bypass = read_bypass
    mem.write = write
    mem.write_bypass = write_bypass
    proc._do_block_start = _do_block_start
    proc._do_block_end = _do_block_end


def _wrap_controller(tracer: Tracer, controller) -> None:
    """Wrap the controller's bus-level verbs on the instance."""
    orig_fetch_shared = controller.fetch_shared
    orig_fetch_owned = controller.fetch_owned
    orig_upgrade = controller.upgrade
    orig_update = controller.broadcast_update
    orig_adaptive_update = controller.adaptive_update
    orig_nofill = controller.read_nofill
    orig_wline = controller.write_line_to_memory
    orig_inval = controller._invalidate_remotes

    def fetch_shared(cpu, addr, t, kind=BusOp.READ_MEM):
        line = controller._l2_line(addr)
        cached = bool(controller._holders(line, cpu))
        ready = orig_fetch_shared(cpu, addr, t, kind)
        tracer.fill(cpu, line, t, ready, "cache" if cached else "mem",
                    shared=True)
        return ready

    # A bus write takes the update route (Firefly page set or adaptive
    # policy) exactly when it sends an update; that route's fill and
    # update are recorded by the wrapped fetch_shared and update verbs,
    # so fetch_owned/upgrade record only the invalidation route.
    def fetch_owned(cpu, addr, t):
        line = controller._l2_line(addr)
        dirty = controller._dirty_holder(line, cpu)
        sent = controller.updates_sent
        ready = orig_fetch_owned(cpu, addr, t)
        if controller.updates_sent == sent:
            tracer.fill(cpu, line, t, ready,
                        "cache" if dirty is not None else "mem",
                        shared=False)
        return ready

    def upgrade(cpu, addr, t):
        sent = controller.updates_sent
        done = orig_upgrade(cpu, addr, t)
        if controller.updates_sent == sent:
            tracer.upgrade(cpu, controller._l2_line(addr), t, done)
        return done

    def broadcast_update(cpu, addr, t):
        line = controller._l2_line(addr)
        holders = len(controller._holders(line, cpu))
        done = orig_update(cpu, addr, t)
        tracer.update(cpu, addr, t, done, holders)
        return done

    def adaptive_update(cpu, addr, t, decision):
        done = orig_adaptive_update(cpu, addr, t, decision)
        if decision.to_invalidate:
            tracer.invalidate(cpu, controller._l2_line(addr),
                              len(decision.to_invalidate))
        tracer.update(cpu, addr, t, done, len(decision.to_update))
        return done

    def read_nofill(cpu, addr, t, kind=BusOp.READ_MEM):
        line = controller._l2_line(addr)
        cached = controller._dirty_holder(line, cpu) is not None
        ready = orig_nofill(cpu, addr, t, kind)
        tracer.supply_nofill(cpu, line, t, ready,
                             "cache" if cached else "mem")
        return ready

    def write_line_to_memory(cpu, line_addr, t, kind=BusOp.WRITEBACK,
                             invalidate_remotes=True):
        done = orig_wline(cpu, line_addr, t, kind,
                          invalidate_remotes=invalidate_remotes)
        tracer.writeback(cpu, controller._l2_line(line_addr), t, done,
                         kind.value)
        return done

    def _invalidate_remotes(cpu, line):
        count = orig_inval(cpu, line)
        if count:
            tracer.invalidate(cpu, line, count)
        return count

    controller.fetch_shared = fetch_shared
    controller.fetch_owned = fetch_owned
    controller.upgrade = upgrade
    controller.broadcast_update = broadcast_update
    controller.adaptive_update = adaptive_update
    controller.read_nofill = read_nofill
    controller.write_line_to_memory = write_line_to_memory
    controller._invalidate_remotes = _invalidate_remotes


def _wrap_bus(tracer: Tracer, bus) -> None:
    orig_acquire = bus.acquire

    def acquire(t, duration, kind, record_txn=True):
        grant = orig_acquire(t, duration, kind, record_txn)
        tracer.bus_grant(kind.value, t, grant, duration)
        return grant

    bus.acquire = acquire
