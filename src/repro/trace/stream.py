"""Trace container, builder, and validation.

A :class:`Trace` bundles per-CPU column streams with the block-operation
registry and symbol map the streams refer to.  :class:`TraceBuilder` is the
write-side API used by the synthetic workload generator: it appends records
per CPU and knows how to emit the word-level load/store expansion of a block
operation exactly the way kernel ``bcopy``/``bzero`` loops touch memory.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.common.errors import TraceError
from repro.common.types import (DataClass, MODE_BY_VALUE, Mode, OP_BY_VALUE,
                                Op)
from repro.trace.annotations import SymbolMap
from repro.trace.blockop import BlockOpDescriptor, BlockOpRegistry
from repro.trace.columns import FIELDS, NUM_COLUMNS, StreamColumns
from repro.trace import record as rec
from repro.trace.record import TraceRecord

#: Stride of the word loop inside a block operation (one 32-bit word).
BLOCK_WORD_BYTES = 4


class Trace:
    """A complete multiprocessor trace.

    Each CPU's stream is stored column-wise, as one
    :class:`~repro.trace.columns.StreamColumns` per CPU in
    :attr:`columns`: the form the npz format holds, the optimization
    passes rewrite and the simulator reads.  Traces come from
    :class:`TraceBuilder`, :func:`repro.trace.npzio.load` and the passes;
    :meth:`records` builds row objects on demand for code that wants them.
    """

    def __init__(self, columns: Sequence[StreamColumns],
                 blockops: Optional[BlockOpRegistry] = None,
                 symbols: Optional[SymbolMap] = None,
                 metadata: Optional[Dict[str, object]] = None) -> None:
        if not columns:
            raise TraceError("trace needs at least one CPU stream")
        #: One :class:`StreamColumns` per CPU.  Readers see in-place
        #: edits of a column; the passes return fresh arrays instead.
        self.columns: List[StreamColumns] = list(columns)
        self.num_cpus = len(self.columns)
        self.blockops = blockops if blockops is not None else BlockOpRegistry()
        self.symbols = symbols if symbols is not None else SymbolMap()
        self.metadata: Dict[str, object] = dict(metadata or {})

    def __len__(self) -> int:
        """Total record count across all CPUs."""
        return sum(len(cols) for cols in self.columns)

    def records(self, cpu: Optional[int] = None) -> List[TraceRecord]:
        """Row objects of *cpu*'s stream, or of every stream CPU by CPU.

        Built afresh on each call: editing them leaves the trace as it is.
        """
        if cpu is not None:
            return self.columns[cpu].to_records()
        return [r for cols in self.columns for r in cols.to_records()]

    def _op_mode_histogram(self) -> Counter:
        """Counter of ``(Op, Mode)`` pairs over all records."""
        keyed = np.zeros(len(OP_BY_VALUE) * 4, dtype=np.int64)
        for cols in self.columns:
            keyed += np.bincount(cols.ops * 4 + cols.modes,
                                 minlength=len(keyed))
        return Counter({(OP_BY_VALUE[key >> 2], MODE_BY_VALUE[key & 3]): n
                        for key, n in enumerate(keyed.tolist()) if n})

    def count_ops(self) -> Counter:
        """Histogram of record types across all CPUs."""
        counts: Counter = Counter()
        for (op, _mode), n in self._op_mode_histogram().items():
            counts[op] += n
        return counts

    def data_reference_count(self, mode: Optional[Mode] = None) -> int:
        """Number of READ/WRITE records, optionally restricted to *mode*."""
        return sum(n for (op, m), n in self._op_mode_histogram().items()
                   if op in (Op.READ, Op.WRITE) and (mode is None or m == mode))

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TraceError`.

        * every record's mode is a :class:`Mode` value (the simulator
          indexes its per-mode lists with it unchecked);
        * every LOCK_ACQ is followed (on the same CPU) by a LOCK_REL of the
          same lock before the next acquire of that lock there;
        * barrier arrivals are balanced: each barrier episode sees exactly
          ``participants`` arrivals across all CPUs;
        * BLOCK_START/BLOCK_END markers nest properly per CPU and refer to
          registered descriptors;
        * block-op word records lie inside their descriptor's ranges.

        Only the lock, barrier and marker rows are visited one by one;
        the block-op word rows are checked in whole-column steps.  When a
        stream breaks several of the other rules, the error reported is the
        one a record-by-record walk would meet first.
        """
        self._validate_modes()
        self._validate_locks()
        self._validate_barriers()
        self._validate_blockops()

    def _validate_modes(self) -> None:
        for cpu, cols in enumerate(self.columns):
            bad = np.flatnonzero((cols.modes < 0) | (cols.modes >= len(Mode)))
            if bad.size:
                row = int(bad[0])
                raise TraceError(f"cpu {cpu}: record {row}: bad mode "
                                 f"{int(cols.modes[row])}")

    def _validate_locks(self) -> None:
        for cpu, cols in enumerate(self.columns):
            rows = np.flatnonzero((cols.ops == Op.LOCK_ACQ)
                                  | (cols.ops == Op.LOCK_REL))
            held: set = set()
            for op, addr in zip(cols.ops[rows].tolist(),
                                cols.addrs[rows].tolist()):
                if op == Op.LOCK_ACQ:
                    if addr in held:
                        raise TraceError(
                            f"cpu {cpu}: lock {addr:#x} acquired twice")
                    held.add(addr)
                else:
                    if addr not in held:
                        raise TraceError(
                            f"cpu {cpu}: lock {addr:#x} released but not held")
                    held.discard(addr)
            if held:
                raise TraceError(
                    f"cpu {cpu}: locks never released: "
                    f"{sorted(hex(a) for a in held)}")

    def _validate_barriers(self) -> None:
        arrivals: Counter = Counter()
        expected: Dict[int, int] = {}
        for cols in self.columns:
            rows = np.flatnonzero(cols.ops == Op.BARRIER)
            for addr, arg in zip(cols.addrs[rows].tolist(),
                                 cols.args[rows].tolist()):
                arrivals[addr] += 1
                if arg < 1 or arg > self.num_cpus:
                    raise TraceError(
                        f"barrier {addr:#x}: bad participant count {arg}")
                prev = expected.setdefault(addr, arg)
                if prev != arg:
                    raise TraceError(
                        f"barrier {addr:#x}: inconsistent participant counts")
        for addr, count in arrivals.items():
            if count % expected[addr]:
                raise TraceError(
                    f"barrier {addr:#x}: {count} arrivals is not a multiple "
                    f"of {expected[addr]} participants")

    def _validate_blockops(self) -> None:
        # Per-id descriptor ranges; a ZERO op's empty source range is
        # (0, 0), and ids outside the registry map to row 0 (unknown).
        top = max((d.op_id for d in self.blockops), default=0)
        known = np.zeros(top + 1, dtype=bool)
        ranges = np.zeros((4, top + 1), dtype=np.int64)
        for d in self.blockops:
            known[d.op_id] = True
            if d.is_copy:
                ranges[0:2, d.op_id] = d.src, d.src + d.size
            ranges[2:4, d.op_id] = d.dst, d.dst + d.size
        for cpu, cols in enumerate(self.columns):
            ops, ids = cols.ops, cols.blockops
            # Walk the markers, noting the first broken one and the id
            # that is open after each.
            marks = np.flatnonzero((ops == Op.BLOCK_START)
                                   | (ops == Op.BLOCK_END))
            after = []
            fault = None
            active = 0
            for row, op, op_id in zip(marks.tolist(), ops[marks].tolist(),
                                      ids[marks].tolist()):
                if op == Op.BLOCK_START:
                    if active:
                        fault = (row, f"cpu {cpu}: nested block operation")
                        break
                    if op_id not in self.blockops:
                        fault = (row, f"unknown block op id {op_id}")
                        break
                    active = op_id
                else:
                    if not active or op_id != active:
                        fault = (row, f"cpu {cpu}: BLOCK_END {op_id} "
                                 f"without start")
                        break
                    active = 0
                after.append(active)
            # The first block-op word row that breaks a rule.
            words = np.flatnonzero((ids != 0) & ((ops == Op.READ)
                                                 | (ops == Op.WRITE)))
            if fault is not None:
                words = words[words < fault[0]]
            word_ids = ids[words]
            # The id open at each word row: the one after the last
            # marker before it (none before it: 0).
            open_id = np.array([0] + after, dtype=np.int64)[
                np.searchsorted(marks[:len(after)], words)]
            lookup = np.where((word_ids > 0) & (word_ids <= top), word_ids, 0)
            addrs = cols.addrs[words]
            inside = (((ranges[0, lookup] <= addrs)
                       & (addrs < ranges[1, lookup]))
                      | ((ranges[2, lookup] <= addrs)
                         & (addrs < ranges[3, lookup])))
            bad = ~known[lookup] | (word_ids != open_id) | ~inside
            if bad.any():
                i = int(np.argmax(bad))
                op_id, addr = int(word_ids[i]), int(addrs[i])
                if not known[lookup[i]]:
                    raise TraceError(f"unknown block op id {op_id}")
                if op_id != open_id[i]:
                    raise TraceError(
                        f"cpu {cpu}: block-op record outside markers")
                raise TraceError(
                    f"cpu {cpu}: block-op access {addr:#x} outside "
                    f"op {op_id} ranges")
            if fault is not None:
                raise TraceError(fault[1])
            if active:
                raise TraceError(f"cpu {cpu}: unterminated block operation")


class TraceBuilder:
    """Write-side API for constructing a :class:`Trace` one CPU at a time.

    Records are collected per CPU as they are emitted and packed into
    columns once, by :meth:`build`.
    """

    def __init__(self, num_cpus: int, symbols: Optional[SymbolMap] = None,
                 metadata: Optional[Dict[str, object]] = None) -> None:
        if num_cpus < 1:
            raise TraceError("trace needs at least one CPU stream")
        self.num_cpus = num_cpus
        self.blockops = BlockOpRegistry()
        self.symbols = symbols if symbols is not None else SymbolMap()
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._pending: List[List[TraceRecord]] = [
            [] for _ in range(num_cpus)]

    def emit(self, cpu: int, record_: TraceRecord) -> None:
        """Append one record to *cpu*'s stream."""
        self._pending[cpu].append(record_)

    def emit_many(self, cpu: int, records: Iterable[TraceRecord]) -> None:
        """Append several records to *cpu*'s stream."""
        self._pending[cpu].extend(records)

    def emit_block_copy(self, cpu: int, src: int, dst: int, size: int, *,
                        mode: Mode = Mode.OS, pc: int = 0,
                        src_dclass: DataClass = DataClass.BUFFER,
                        dst_dclass: DataClass = DataClass.PAGE_FRAME,
                        ) -> BlockOpDescriptor:
        """Emit the full word loop of a ``bcopy(src, dst, size)``.

        The loop reads one source word then writes one destination word,
        with two non-memory instructions of loop overhead per word, which
        is how the Concentrix copy loop behaves on the traced machine.
        """
        desc = self.blockops.new_copy(src, dst, size, pc)
        stream = self._pending[cpu]
        stream.append(rec.block_start(desc.op_id, mode=mode, pc=pc))
        for off in range(0, size, BLOCK_WORD_BYTES):
            nbytes = min(BLOCK_WORD_BYTES, size - off)
            stream.append(TraceRecord(Op.READ, src + off, mode, src_dclass,
                                      pc, 2, desc.op_id, nbytes))
            stream.append(TraceRecord(Op.WRITE, dst + off, mode, dst_dclass,
                                      pc, 1, desc.op_id, nbytes))
        stream.append(rec.block_end(desc.op_id, mode=mode, pc=pc))
        return desc

    def emit_block_zero(self, cpu: int, dst: int, size: int, *,
                        mode: Mode = Mode.OS, pc: int = 0,
                        dst_dclass: DataClass = DataClass.PAGE_FRAME,
                        ) -> BlockOpDescriptor:
        """Emit the word loop of a ``bzero(dst, size)`` (writes only)."""
        desc = self.blockops.new_zero(dst, size, pc)
        stream = self._pending[cpu]
        stream.append(rec.block_start(desc.op_id, mode=mode, pc=pc))
        for off in range(0, size, BLOCK_WORD_BYTES):
            nbytes = min(BLOCK_WORD_BYTES, size - off)
            stream.append(TraceRecord(Op.WRITE, dst + off, mode, dst_dclass,
                                      pc, 2, desc.op_id, nbytes))
        stream.append(rec.block_end(desc.op_id, mode=mode, pc=pc))
        return desc

    def build(self, validate: bool = True) -> Trace:
        """Pack the emitted records into a trace and (optionally)
        validate it."""
        trace = Trace([_pack(records) for records in self._pending],
                      blockops=self.blockops, symbols=self.symbols,
                      metadata=self.metadata)
        if validate:
            trace.validate()
        return trace


#: The fields of a record, in column order.
_ROW = operator.attrgetter(*FIELDS)


def _pack(records: List[TraceRecord]) -> StreamColumns:
    """One stream's records as fresh columns."""
    flat = np.fromiter(chain.from_iterable(map(_ROW, records)),
                       dtype=np.int64, count=len(records) * NUM_COLUMNS)
    return StreamColumns.from_matrix(flat.reshape(-1, NUM_COLUMNS))
