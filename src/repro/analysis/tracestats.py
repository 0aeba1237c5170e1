"""Trace-level statistics: the measurements of sections 2-3 that come
straight from the reference stream, before any simulation.

:class:`TraceStats` computes, in one pass over a trace:

* reference counts by mode, operation and data-structure class;
* the block-operation profile (count, bytes, size histogram, copy/zero);
* synchronization activity (lock acquires per lock, barrier episodes);
* per-line *sharing* analysis: how many distinct CPUs touch each cache
  line, split read-only vs read-write — the footprint behind the
  coherence behaviour of Table 5;
* the basic-block profile used to sanity-check hot-spot attribution.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.common.types import DataClass, Mode, Op
from repro.trace.stream import Trace


class SharingProfile:
    """Per-line sharing summary of one trace."""

    __slots__ = ("lines_total", "lines_shared", "lines_write_shared",
                 "max_sharers")

    def __init__(self, lines_total: int, lines_shared: int,
                 lines_write_shared: int, max_sharers: int) -> None:
        #: Distinct cache lines referenced.
        self.lines_total = lines_total
        #: Lines touched by more than one CPU.
        self.lines_shared = lines_shared
        #: Lines written by one CPU and touched by another (true or false
        #: sharing — the coherence-miss candidates).
        self.lines_write_shared = lines_write_shared
        self.max_sharers = max_sharers

    @property
    def shared_fraction(self) -> float:
        return self.lines_shared / self.lines_total if self.lines_total else 0.0


class TraceStats:
    """One-pass statistics over a :class:`~repro.trace.stream.Trace`."""

    def __init__(self, trace: Trace, line_bytes: int = 16) -> None:
        self.trace = trace
        self.line_bytes = line_bytes
        self.refs_by_mode: Counter = Counter()
        self.refs_by_op: Counter = Counter()
        self.refs_by_class: Counter = Counter()
        self.refs_by_pc: Counter = Counter()
        self.lock_acquires: Counter = Counter()
        self.barrier_arrivals: Counter = Counter()
        self.instructions = 0
        self._readers: Dict[int, int] = {}
        self._writers: Dict[int, int] = {}
        self._collect()

    def _collect(self) -> None:
        line_mask = ~(self.line_bytes - 1)
        for cpu in range(self.trace.num_cpus):
            cpu_bit = 1 << cpu
            for r in self.trace.records(cpu):
                op = r.op
                self.instructions += r.icount
                if op in (Op.READ, Op.WRITE):
                    self.refs_by_mode[Mode(r.mode)] += 1
                    self.refs_by_op[op] += 1
                    self.refs_by_class[DataClass(r.dclass)] += 1
                    self.refs_by_pc[r.pc] += 1
                    line = r.addr & line_mask
                    if op == Op.READ:
                        self._readers[line] = self._readers.get(line, 0) | cpu_bit
                    else:
                        self._writers[line] = self._writers.get(line, 0) | cpu_bit
                elif op == Op.LOCK_ACQ:
                    self.lock_acquires[r.addr] += 1
                elif op == Op.BARRIER:
                    self.barrier_arrivals[r.addr] += 1

    # ------------------------------------------------------------------
    def data_references(self) -> int:
        return sum(self.refs_by_op.values())

    def os_reference_fraction(self) -> float:
        total = self.data_references()
        return self.refs_by_mode[Mode.OS] / total if total else 0.0

    def write_fraction(self) -> float:
        total = self.data_references()
        return self.refs_by_op[Op.WRITE] / total if total else 0.0

    def sharing_profile(self) -> SharingProfile:
        """Per-line sharing analysis across CPUs."""
        lines = set(self._readers) | set(self._writers)
        shared = 0
        write_shared = 0
        max_sharers = 0
        for line in lines:
            touch = (self._readers.get(line, 0) | self._writers.get(line, 0))
            sharers = bin(touch).count("1")
            max_sharers = max(max_sharers, sharers)
            if sharers > 1:
                shared += 1
                writers = self._writers.get(line, 0)
                if writers and (touch & ~writers or bin(writers).count("1") > 1):
                    write_shared += 1
        return SharingProfile(len(lines), shared, write_shared, max_sharers)

    def block_op_profile(self) -> Dict[str, float]:
        """Count/byte/size summary of the trace's block operations."""
        ops = list(self.trace.blockops)
        if not ops:
            return {"count": 0, "copies": 0, "bytes": 0,
                    "page_fraction": 0.0, "small_fraction": 0.0}
        pages = sum(1 for op in ops if op.size >= 4096)
        small = sum(1 for op in ops if op.size < 1024)
        return {
            "count": len(ops),
            "copies": sum(1 for op in ops if op.is_copy),
            "bytes": sum(op.size for op in ops),
            "page_fraction": pages / len(ops),
            "small_fraction": small / len(ops),
        }

    def hottest_blocks(self, count: int = 10):
        """Most-referenced basic blocks (pc, references)."""
        return self.refs_by_pc.most_common(count)

    def summary(self) -> str:
        """Human-readable one-page summary."""
        sharing = self.sharing_profile()
        blocks = self.block_op_profile()
        mode = {m.name: n for m, n in self.refs_by_mode.items()}
        lines = [
            f"records:            {len(self.trace):,}",
            f"data references:    {self.data_references():,} "
            f"(writes {self.write_fraction():.0%})",
            f"instructions:       {self.instructions:,}",
            f"refs by mode:       {mode}",
            f"OS reference share: {self.os_reference_fraction():.1%}",
            f"block operations:   {blocks['count']} "
            f"({blocks['copies']} copies, {blocks['bytes']:,} bytes moved)",
            f"lock acquires:      {sum(self.lock_acquires.values())} "
            f"over {len(self.lock_acquires)} locks",
            f"barrier arrivals:   {sum(self.barrier_arrivals.values())}",
            f"lines touched:      {sharing.lines_total:,} "
            f"({sharing.shared_fraction:.1%} shared, "
            f"{sharing.lines_write_shared:,} write-shared)",
        ]
        return "\n".join(lines)
