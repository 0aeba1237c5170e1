"""Measurement layer: time decomposition and the paper's miss taxonomy.

Two classes cooperate:

* :class:`MissTracker` (one per CPU) implements the memory-system sink
  protocol.  It remembers which L1D lines were invalidated by remote
  writes, displaced by block-operation fills, or moved uncached by a
  bypassing scheme, so each later miss can be labelled *coherence*,
  *block displacement* or *reuse* exactly as sections 3-4 define them.

* :class:`SystemMetrics` aggregates everything the tables and figures
  report: execution-time components per mode (Exec / I Miss / D Read Miss /
  D Write / Pref / sync), read and miss counts per mode, the OS miss
  breakdown of Table 2, the coherence-source breakdown of Table 5, the
  per-basic-block miss counts that drive the hot-spot selection of
  section 6, and the block-operation instrumentation of Table 3 and
  Figure 1.

The per-mode quantities (``time``, ``reads``, ``writes``,
``read_misses``) are lists indexed by the mode's int value, which the
simulator bumps with the raw value from a trace column; :class:`Mode`
is an ``IntEnum``, so ``m.reads[Mode.OS]`` reads them too.  Mode names
are attached only by :meth:`SystemMetrics.snapshot`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set

from repro.common.types import DCLASS_BY_VALUE, DataClass, MissKind, Mode
from repro.memsys.hierarchy import AccessResult
from repro.memsys.sink import MemorySink, MissFlags, NO_FLAGS
from repro.trace.blockop import BlockOpDescriptor

# Enum members bound once: a class-attribute load off an enum is slow.
_OS = Mode.OS
_BLOCK_OP = MissKind.BLOCK_OP
_COHERENCE = MissKind.COHERENCE
_OTHER = MissKind.OTHER

#: ``snapshot()`` key of each mode, by value: ``str(Mode.OS)`` is
#: ``"Mode.OS"`` before Python 3.11 and ``"1"`` after, so it is never
#: spelled out.
_MODE_KEYS = [str(m) for m in Mode]


class TimeBreakdown:
    """Cycle components of execution time, as in Figure 3."""

    __slots__ = ("exec_cycles", "imiss", "dread", "dwrite", "pref", "sync")

    def __init__(self) -> None:
        self.exec_cycles = 0
        self.imiss = 0
        self.dread = 0
        self.dwrite = 0
        self.pref = 0
        #: Lock-spin and barrier-wait cycles (shown inside Exec by the
        #: paper; kept separate here and merged at reporting time).
        self.sync = 0

    @property
    def total(self) -> int:
        return (self.exec_cycles + self.imiss + self.dread + self.dwrite
                + self.pref + self.sync)

    def add(self, exec_cycles: int = 0, imiss: int = 0, dread: int = 0,
            dwrite: int = 0, pref: int = 0, sync: int = 0) -> None:
        self.exec_cycles += exec_cycles
        self.imiss += imiss
        self.dread += dread
        self.dwrite += dwrite
        self.pref += pref
        self.sync += sync

    def merged(self, other: "TimeBreakdown") -> "TimeBreakdown":
        out = TimeBreakdown()
        for field in self.__slots__:
            setattr(out, field, getattr(self, field) + getattr(other, field))
        return out

    def as_dict(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self.__slots__}


class MissTracker(MemorySink):
    """Per-CPU cause bookkeeping for the miss taxonomy."""

    __slots__ = ("coh_pending", "displaced", "bypassed", "in_blockop")

    def __init__(self) -> None:
        #: L1D lines invalidated by remote writes while resident.
        self.coh_pending: Set[int] = set()
        #: L1D lines evicted by a block-operation fill.
        self.displaced: Set[int] = set()
        #: Lines moved uncached by a bypassing scheme.
        self.bypassed: Set[int] = set()
        #: Mirrors the processor's "inside a block operation" state.
        self.in_blockop = False

    def coherence_invalidate(self, l1_line: int) -> None:
        self.coh_pending.add(l1_line)
        self.displaced.discard(l1_line)

    def l1_fill(self, l1_line: int, evicted_line: int,
                during_blockop: bool) -> None:
        self.coh_pending.discard(l1_line)
        self.displaced.discard(l1_line)
        self.bypassed.discard(l1_line)
        if during_blockop and evicted_line != -1:
            self.displaced.add(evicted_line)

    def bypass_mark(self, l1_line: int) -> None:
        self.bypassed.add(l1_line)

    def consume_miss_flags(self, l1_line: int) -> MissFlags:
        coherence = l1_line in self.coh_pending
        displaced = l1_line in self.displaced
        bypassed = l1_line in self.bypassed
        if not (coherence or displaced or bypassed):
            return NO_FLAGS
        if coherence:
            self.coh_pending.discard(l1_line)
        if displaced:
            self.displaced.discard(l1_line)
        if bypassed:
            self.bypassed.discard(l1_line)
        return MissFlags(coherence, displaced, bypassed)


class BlockOpStats:
    """Aggregate block-operation instrumentation (Table 3, Table 4)."""

    __slots__ = ("ops", "copies", "src_lines", "src_lines_cached",
                 "dst_lines", "dst_owned", "dst_shared", "size_page",
                 "size_1k_to_page", "size_lt_1k", "bytes_moved")

    def __init__(self) -> None:
        self.ops = 0
        self.copies = 0
        self.src_lines = 0
        self.src_lines_cached = 0
        self.dst_lines = 0
        self.dst_owned = 0
        self.dst_shared = 0
        self.size_page = 0
        self.size_1k_to_page = 0
        self.size_lt_1k = 0
        self.bytes_moved = 0

    def record(self, desc: BlockOpDescriptor, page_bytes: int,
               src_cached: int, src_total: int, dst_owned: int,
               dst_shared: int, dst_total: int) -> None:
        self.ops += 1
        if desc.is_copy:
            self.copies += 1
        self.src_lines += src_total
        self.src_lines_cached += src_cached
        self.dst_lines += dst_total
        self.dst_owned += dst_owned
        self.dst_shared += dst_shared
        self.bytes_moved += desc.size
        if desc.size >= page_bytes:
            self.size_page += 1
        elif desc.size >= 1024:
            self.size_1k_to_page += 1
        else:
            self.size_lt_1k += 1

    def pct_src_cached(self) -> float:
        return 100.0 * self.src_lines_cached / self.src_lines if self.src_lines else 0.0

    def pct_dst_owned(self) -> float:
        return 100.0 * self.dst_owned / self.dst_lines if self.dst_lines else 0.0

    def pct_dst_shared(self) -> float:
        return 100.0 * self.dst_shared / self.dst_lines if self.dst_lines else 0.0

    def size_distribution(self) -> Dict[str, float]:
        """Percent of operations per size class, as in Table 3 rows 4-6."""
        if not self.ops:
            return {"page": 0.0, "1k_to_page": 0.0, "lt_1k": 0.0}
        return {
            "page": 100.0 * self.size_page / self.ops,
            "1k_to_page": 100.0 * self.size_1k_to_page / self.ops,
            "lt_1k": 100.0 * self.size_lt_1k / self.ops,
        }


class SystemMetrics:
    """All measurements from one simulation run."""

    __slots__ = ("num_cpus", "page_bytes", "trackers", "time", "reads",
                 "writes", "read_misses", "os_miss_kind", "os_coh_dclass",
                 "os_miss_pc", "os_miss_dclass", "os_coh_addr",
                 "displacement_inside", "displacement_outside",
                 "reuse_inside", "reuse_outside", "blk_read_stall",
                 "blk_write_stall", "blk_displ_stall", "blk_instr_exec",
                 "blockops", "dma_ops", "dma_stall", "prefetches_issued",
                 "hotspot_pcs", "os_hotspot_misses", "bus_busy_cycles",
                 "bus_wait_cycles", "bus_traffic", "bus_transactions",
                 "updates_sent", "invalidations_sent", "cache_to_cache",
                 "writebacks", "lock_acquisitions", "lock_contended",
                 "barrier_episodes", "cpu_end_times", "makespan")

    def __init__(self, num_cpus: int, page_bytes: int = 4096) -> None:
        self.num_cpus = num_cpus
        self.page_bytes = page_bytes
        self.trackers: List[MissTracker] = [MissTracker() for _ in range(num_cpus)]
        #: Time components, reference and miss counts, indexed by mode.
        self.time: List[TimeBreakdown] = [TimeBreakdown() for _ in Mode]
        self.reads: List[int] = [0] * len(Mode)
        self.writes: List[int] = [0] * len(Mode)
        self.read_misses: List[int] = [0] * len(Mode)
        self.os_miss_kind: Counter = Counter()   # MissKind -> count (OS reads)
        self.os_coh_dclass: Counter = Counter()  # DataClass -> count
        self.os_miss_pc: Counter = Counter()     # basic block -> OS miss count
        self.os_miss_dclass: Counter = Counter()  # DataClass -> OS miss count
        self.os_coh_addr: Counter = Counter()    # line addr -> coherence misses
        # Displacement / reuse accounting (all modes; section 4.1.3).
        self.displacement_inside = 0
        self.displacement_outside = 0
        self.reuse_inside = 0
        self.reuse_outside = 0
        # Block-operation overheads (Figure 1) and characteristics (Table 3).
        self.blk_read_stall = 0
        self.blk_write_stall = 0
        self.blk_displ_stall = 0
        self.blk_instr_exec = 0
        self.blockops = BlockOpStats()
        self.dma_ops = 0
        self.dma_stall = 0
        self.prefetches_issued = 0
        #: OS read misses whose basic block is in the hot-spot set (set by
        #: the runner when hot-spot prefetching is enabled).
        self.hotspot_pcs: Set[int] = set()
        self.os_hotspot_misses = 0
        # Bus / coherence statistics, captured at the end of the run
        # (sections 5.2 and 6 argue from traffic comparisons).
        self.bus_busy_cycles = 0
        self.bus_wait_cycles = 0
        self.bus_traffic: Dict[str, int] = {}
        self.bus_transactions: Dict[str, int] = {}
        self.updates_sent = 0
        self.invalidations_sent = 0
        self.cache_to_cache = 0
        self.writebacks = 0
        self.lock_acquisitions = 0
        self.lock_contended = 0
        self.barrier_episodes = 0
        # Finalization.
        self.cpu_end_times: List[int] = [0] * num_cpus
        self.makespan = 0

    # ------------------------------------------------------------------
    # Recording (called by the processor)
    # ------------------------------------------------------------------
    def record_read(self, mode: int, addr: int, pc: int, dclass: int,
                    blockop: int, res: AccessResult,
                    in_blockop: bool) -> None:
        """Count one processor read of *addr* in *mode* from basic block
        *pc*, and classify it when *res* is a miss.  *dclass* is read
        only for a miss, so a caller may pass anything for a hit."""
        self.reads[mode] += 1
        if blockop:
            self.blk_read_stall += res.stall + res.pref_stall
        if not res.miss:
            return
        self.read_misses[mode] += 1
        flags = res.flags
        if flags.displaced:
            if in_blockop:
                self.displacement_inside += 1
            else:
                self.displacement_outside += 1
            self.blk_displ_stall += res.stall
        if flags.bypassed:
            if in_blockop:
                self.reuse_inside += 1
            else:
                self.reuse_outside += 1
        if mode != _OS:
            return
        if blockop:
            kind = _BLOCK_OP
        elif flags.coherence:
            kind = _COHERENCE
        else:
            kind = _OTHER
        self.os_miss_kind[kind] += 1
        member = DCLASS_BY_VALUE[dclass]
        if kind is _COHERENCE:
            self.os_coh_dclass[member] += 1
            self.os_coh_addr[addr - addr % 16] += 1
        self.os_miss_pc[pc] += 1
        self.os_miss_dclass[member] += 1
        if pc in self.hotspot_pcs:
            self.os_hotspot_misses += 1

    def record_write(self, mode: int, blockop: int, stall: int) -> None:
        """Count one processor write in *mode* that waited *stall* cycles."""
        self.writes[mode] += 1
        if blockop:
            self.blk_write_stall += stall

    def record_block_exec(self, cycles: int) -> None:
        """Instruction-execution cycles spent inside block operations."""
        self.blk_instr_exec += cycles

    def record_block_start(self, cpu: int, desc: BlockOpDescriptor,
                           src_cached: int, src_total: int, dst_owned: int,
                           dst_shared: int, dst_total: int) -> None:
        self.blockops.record(desc, self.page_bytes, src_cached, src_total,
                             dst_owned, dst_shared, dst_total)

    def record_dma(self, stall: int) -> None:
        self.dma_ops += 1
        self.dma_stall += stall

    def record_prefetch_issued(self) -> None:
        self.prefetches_issued += 1

    def finalize(self, end_times: List[int]) -> None:
        self.cpu_end_times = list(end_times)
        self.makespan = max(end_times) if end_times else 0

    def capture_system_stats(self, bus, controller, locks, barriers) -> None:
        """Copy bus/coherence/synchronization statistics from the system."""
        self.bus_busy_cycles = bus.busy_cycles
        self.bus_wait_cycles = bus.wait_cycles
        self.bus_traffic = bus.traffic_summary()
        self.bus_transactions = bus.transaction_summary()
        self.updates_sent = controller.updates_sent
        self.invalidations_sent = controller.invalidations_sent
        self.cache_to_cache = controller.cache_to_cache
        self.writebacks = controller.writebacks
        self.lock_acquisitions = locks.acquisitions
        self.lock_contended = locks.contended_acquisitions
        self.barrier_episodes = barriers.episodes_completed

    def update_traffic_cycles(self) -> int:
        """Bus cycles spent on Firefly update transactions."""
        return self.bus_traffic.get("update", 0)

    def bus_utilization(self) -> float:
        """Bus busy cycles over the run's makespan."""
        if not self.makespan:
            return 0.0
        return min(1.0, self.bus_busy_cycles / self.makespan)

    # ------------------------------------------------------------------
    # Derived quantities (used by the table/figure builders)
    # ------------------------------------------------------------------
    @property
    def total_cpu_cycles(self) -> int:
        """Sum of attributed cycles over all CPUs and modes."""
        return sum(tb.total for tb in self.time)

    def mode_fraction(self, mode: Mode) -> float:
        """Fraction of machine time spent in *mode* (Table 1 rows 1-3)."""
        total = self.total_cpu_cycles
        return self.time[mode].total / total if total else 0.0

    def os_data_stall_fraction(self) -> float:
        """OS data-stall share of total time (Table 1 row 4)."""
        os = self.time[Mode.OS]
        total = self.total_cpu_cycles
        return (os.dread + os.dwrite + os.pref) / total if total else 0.0

    def data_miss_rate(self) -> float:
        """Read miss rate of the primary data caches (Table 1 row 5)."""
        reads = self.reads[Mode.USER] + self.reads[Mode.OS]
        misses = self.read_misses[Mode.USER] + self.read_misses[Mode.OS]
        return misses / reads if reads else 0.0

    def os_read_share(self) -> float:
        """OS share of data reads (Table 1 row 6)."""
        reads = self.reads[Mode.USER] + self.reads[Mode.OS]
        return self.reads[Mode.OS] / reads if reads else 0.0

    def os_miss_share(self) -> float:
        """OS share of data misses (Table 1 row 7)."""
        misses = self.read_misses[Mode.USER] + self.read_misses[Mode.OS]
        return self.read_misses[Mode.OS] / misses if misses else 0.0

    def os_read_misses(self) -> int:
        """OS read misses in the primary caches (Figures 2, 4, 5)."""
        return self.read_misses[Mode.OS]

    def total_data_misses(self) -> int:
        """OS + user read misses (denominator of Table 3 rows 7-10)."""
        return self.read_misses[Mode.USER] + self.read_misses[Mode.OS]

    def os_time(self) -> TimeBreakdown:
        """The OS execution-time breakdown (Figure 3 bars)."""
        return self.time[Mode.OS]

    def miss_kind_fractions(self) -> Dict[MissKind, float]:
        """Table 2: OS miss breakdown by source."""
        total = sum(self.os_miss_kind.values())
        if not total:
            return {k: 0.0 for k in MissKind}
        return {k: self.os_miss_kind.get(k, 0) / total for k in MissKind}

    def coherence_breakdown(self) -> Dict[str, float]:
        """Table 5: coherence-miss breakdown by variable group."""
        total = sum(self.os_coh_dclass.values())
        groups = {
            "Barriers": (DataClass.BARRIER_VAR,),
            "Infreq. Com.": (DataClass.INFREQ_COMM,),
            "Freq. Shared": (DataClass.FREQ_SHARED,),
            "Locks": (DataClass.LOCK_VAR,),
        }
        out: Dict[str, float] = {}
        covered = 0
        for label, classes in groups.items():
            count = sum(self.os_coh_dclass.get(c, 0) for c in classes)
            covered += count
            out[label] = count / total if total else 0.0
        out["Other"] = (total - covered) / total if total else 0.0
        return out

    def hottest_pcs(self, count: int) -> List[int]:
        """The *count* basic blocks with the most OS misses (section 6)."""
        return [pc for pc, _n in self.os_miss_pc.most_common(count)]

    @classmethod
    def from_snapshot(cls, snap: Dict[str, object]) -> "SystemMetrics":
        """Rebuild a metrics object from a :meth:`snapshot` dump.

        Exact inverse: ``SystemMetrics.from_snapshot(m.snapshot())``
        snapshots back to the same dictionary, bit for bit.  The
        artifact cache persists simulation results as snapshots
        (:meth:`repro.experiments.artifacts.ArtifactCache.store_metrics`),
        so a warm sweep can serve a cell without re-simulating and still
        satisfy the engine's bit-identical-results contract.  Raises
        ``KeyError``/``TypeError``/``ValueError`` on malformed input —
        the cache layer quarantines the entry on any of those.
        """
        metrics = cls(int(snap["num_cpus"]), int(snap["page_bytes"]))
        # snapshot() renders enum keys through str(); invert that per
        # enum (robust to the IntEnum __str__ change in Python 3.11).
        by_str = {enum_cls: {str(member): member for member in enum_cls}
                  for enum_cls in (Mode, MissKind, DataClass)}

        def counter(name: str, key_of) -> Counter:
            out: Counter = Counter()
            for key, value in snap[name].items():  # type: ignore[union-attr]
                out[key_of(key)] = int(value)
            return out

        for mode in Mode:
            breakdown = metrics.time[mode]
            for field in TimeBreakdown.__slots__:
                setattr(breakdown, field, int(snap["time"][mode.name][field]))
        for name in ("reads", "writes", "read_misses"):
            by_mode = counter(name, by_str[Mode].__getitem__)
            setattr(metrics, name, [by_mode[mode] for mode in Mode])
        metrics.os_miss_kind = counter("os_miss_kind",
                                       by_str[MissKind].__getitem__)
        metrics.os_coh_dclass = counter("os_coh_dclass",
                                        by_str[DataClass].__getitem__)
        metrics.os_miss_pc = counter("os_miss_pc", int)
        metrics.os_miss_dclass = counter("os_miss_dclass",
                                         by_str[DataClass].__getitem__)
        metrics.os_coh_addr = counter("os_coh_addr", int)
        for field in ("displacement_inside", "displacement_outside",
                      "reuse_inside", "reuse_outside", "blk_read_stall",
                      "blk_write_stall", "blk_displ_stall", "blk_instr_exec",
                      "dma_ops", "dma_stall", "prefetches_issued",
                      "os_hotspot_misses", "bus_busy_cycles",
                      "bus_wait_cycles", "updates_sent",
                      "invalidations_sent", "cache_to_cache", "writebacks",
                      "lock_acquisitions", "lock_contended",
                      "barrier_episodes", "makespan"):
            setattr(metrics, field, int(snap[field]))
        for field in BlockOpStats.__slots__:
            setattr(metrics.blockops, field, int(snap["blockops"][field]))
        metrics.hotspot_pcs = {int(pc) for pc in snap["hotspot_pcs"]}
        metrics.bus_traffic = {str(k): int(v)
                               for k, v in snap["bus_traffic"].items()}
        metrics.bus_transactions = {
            str(k): int(v) for k, v in snap["bus_transactions"].items()}
        metrics.cpu_end_times = [int(t) for t in snap["cpu_end_times"]]
        return metrics

    def snapshot(self) -> Dict[str, object]:
        """Canonical, order-independent dump of every measured quantity.

        Counters and sets are rendered as sorted structures so two
        :class:`SystemMetrics` are equal *iff* their snapshots are — the
        determinism tests use this to assert that serial and parallel
        sweeps (and cold- vs warm-cache runs) produce bit-identical
        results, independent of process boundaries and pickling.
        """
        def counter(c: Counter) -> Dict[str, int]:
            return {str(k): int(v) for k, v in sorted(
                c.items(), key=lambda item: str(item[0]))}

        def per_mode(counts: List[int]) -> Dict[str, int]:
            # Zero slots are left out, as an unbumped Counter key was.
            return {key: n for key, n in sorted(zip(_MODE_KEYS, counts))
                    if n}

        return {
            "num_cpus": self.num_cpus,
            "page_bytes": self.page_bytes,
            "time": {m.name: self.time[m].as_dict() for m in Mode},
            "reads": per_mode(self.reads),
            "writes": per_mode(self.writes),
            "read_misses": per_mode(self.read_misses),
            "os_miss_kind": counter(self.os_miss_kind),
            "os_coh_dclass": counter(self.os_coh_dclass),
            "os_miss_pc": counter(self.os_miss_pc),
            "os_miss_dclass": counter(self.os_miss_dclass),
            "os_coh_addr": counter(self.os_coh_addr),
            "displacement_inside": self.displacement_inside,
            "displacement_outside": self.displacement_outside,
            "reuse_inside": self.reuse_inside,
            "reuse_outside": self.reuse_outside,
            "blk_read_stall": self.blk_read_stall,
            "blk_write_stall": self.blk_write_stall,
            "blk_displ_stall": self.blk_displ_stall,
            "blk_instr_exec": self.blk_instr_exec,
            "blockops": {f: getattr(self.blockops, f)
                         for f in BlockOpStats.__slots__},
            "dma_ops": self.dma_ops,
            "dma_stall": self.dma_stall,
            "prefetches_issued": self.prefetches_issued,
            "hotspot_pcs": sorted(self.hotspot_pcs),
            "os_hotspot_misses": self.os_hotspot_misses,
            "bus_busy_cycles": self.bus_busy_cycles,
            "bus_wait_cycles": self.bus_wait_cycles,
            "bus_traffic": {k: self.bus_traffic[k]
                            for k in sorted(self.bus_traffic)},
            "bus_transactions": {k: self.bus_transactions[k]
                                 for k in sorted(self.bus_transactions)},
            "updates_sent": self.updates_sent,
            "invalidations_sent": self.invalidations_sent,
            "cache_to_cache": self.cache_to_cache,
            "writebacks": self.writebacks,
            "lock_acquisitions": self.lock_acquisitions,
            "lock_contended": self.lock_contended,
            "barrier_episodes": self.barrier_episodes,
            "cpu_end_times": list(self.cpu_end_times),
            "makespan": self.makespan,
        }
