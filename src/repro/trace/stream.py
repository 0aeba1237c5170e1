"""Trace container, builder, and validation.

A :class:`Trace` bundles one per-CPU record stream with the block-operation
registry and symbol map the streams refer to.  :class:`TraceBuilder` is the
write-side API used by the synthetic workload generator: it appends records
per CPU and knows how to emit the word-level load/store expansion of a block
operation exactly the way kernel ``bcopy``/``bzero`` loops touch memory.
"""

from __future__ import annotations

from collections import Counter
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple,
                    Union)

from repro.common.errors import TraceError
from repro.common.types import (BlockOpKind, DataClass, MODE_BY_VALUE, Mode,
                                OP_BY_VALUE, Op)
from repro.trace.annotations import SymbolMap
from repro.trace.blockop import BlockOpDescriptor, BlockOpRegistry
from repro.trace import record as rec
from repro.trace.record import TraceRecord

if TYPE_CHECKING:
    from repro.trace.columns import StreamColumns

#: Stride of the word loop inside a block operation (one 32-bit word).
BLOCK_WORD_BYTES = 4


class Trace:
    """A complete multiprocessor trace.

    Records live in one of two storage forms:

    * **row-wise** — ``streams`` is a list of per-CPU
      :class:`TraceRecord` lists (the builder's write-side form);
    * **columnar** — per-CPU :class:`~repro.trace.columns.StreamColumns`
      arrays installed by :meth:`from_columns` (the form
      :mod:`repro.trace.npzio` loads); record objects are materialized
      lazily, the first time somebody touches :attr:`streams`.

    Column views of either form are available through
    :meth:`column_streams`; the npz and text writers consume those
    instead of record objects.  The simulator reads neither form
    directly: :meth:`sim_stream` hands each processor plain-int lists of
    the fields its per-record loop needs, so a columnar trace is
    simulated without ever building its record objects.
    """

    def __init__(self, num_cpus: int, blockops: Optional[BlockOpRegistry] = None,
                 symbols: Optional[SymbolMap] = None,
                 metadata: Optional[Dict[str, object]] = None) -> None:
        if num_cpus < 1:
            raise TraceError("trace needs at least one CPU stream")
        self.num_cpus = num_cpus
        self._streams: Optional[List[List[TraceRecord]]] = [
            [] for _ in range(num_cpus)]
        #: Columnar storage (npz load path); exclusive with a populated
        #: ``_streams`` until materialization.
        self._columns: Optional[list] = None
        self.blockops = blockops if blockops is not None else BlockOpRegistry()
        self.symbols = symbols if symbols is not None else SymbolMap()
        self.metadata: Dict[str, object] = dict(metadata or {})
        # Lazy cache, validated against the per-stream lengths at the time
        # it was built (streams are append-only through the builder, but
        # nothing stops a caller from extending them later).
        self._histogram: Optional[Counter] = None
        self._histogram_shape: Optional[Tuple[int, ...]] = None

    @classmethod
    def from_columns(cls, num_cpus: int, columns,
                     blockops: Optional[BlockOpRegistry] = None,
                     symbols: Optional[SymbolMap] = None,
                     metadata: Optional[Dict[str, object]] = None) -> "Trace":
        """Build a trace directly from per-CPU :class:`StreamColumns`.

        No :class:`TraceRecord` objects are constructed; they appear only
        if a consumer touches :attr:`streams` (or a method that needs
        them, like :meth:`validate`).  Columnar consumers — the npz
        and text writers, the histogram — never do.
        """
        columns = list(columns)
        if len(columns) != num_cpus:
            raise TraceError(
                f"expected {num_cpus} column streams, got {len(columns)}")
        trace = cls(num_cpus, blockops=blockops, symbols=symbols,
                    metadata=metadata)
        trace._streams = None
        trace._columns = columns
        return trace

    @property
    def streams(self) -> List[List[TraceRecord]]:
        """Per-CPU record lists, materializing columnar storage on demand."""
        if self._streams is None:
            assert self._columns is not None
            self._streams = [cols.to_records() for cols in self._columns]
        return self._streams

    def is_materialized(self) -> bool:
        """True when per-record objects exist (False for lazy npz loads)."""
        return self._streams is not None

    def __len__(self) -> int:
        """Total record count across all CPUs."""
        return sum(self._shape())

    def _shape(self) -> Tuple[int, ...]:
        if self._streams is None:
            assert self._columns is not None
            return tuple(len(c) for c in self._columns)
        return tuple(len(s) for s in self._streams)

    def column_streams(self) -> list:
        """Per-CPU :class:`StreamColumns` for the one-shot writers.

        For a columnar (npz-loaded) trace these are the loaded arrays,
        zero-copy.  For a built trace they are packed fresh from the
        record lists on every call.
        """
        if self._streams is None:
            return self._columns
        from repro.trace.columns import StreamColumns
        return [StreamColumns.from_records(s) for s in self._streams]

    def records(self) -> Iterable[TraceRecord]:
        """Iterate over all records, CPU by CPU."""
        for stream in self.streams:
            yield from stream

    def sim_stream(self, cpu: int) -> Tuple[
            Tuple[list, ...], Union[List[TraceRecord], StreamColumns]]:
        """The simulator's view of *cpu*'s stream.

        Returns the fields :meth:`Processor.step
        <repro.sim.processor.Processor.step>` reads — op, addr, mode, pc,
        icount and blockop, in that order — as six parallel lists, and
        the stream's own storage, from which :meth:`Processor.record
        <repro.sim.processor.Processor.record>` takes a whole record for
        the slow paths: the record list of a built trace, the
        :class:`~repro.trace.columns.StreamColumns` of a columnar one
        (whose lists are one ``tolist()`` per column, so no record
        object is built for them).

        Nothing is cached: a built trace's records may be edited in place
        between runs (the optimization passes and the tests do), and
        every call must see the edits.
        """
        if self._streams is None:
            cols = self._columns[cpu]
            return cols.sim_lists(), cols
        records = self._streams[cpu]
        # Six comprehensions beat one appending loop here, and the fields
        # go in as stored: an IntEnum op/mode compares and hashes as its
        # int, so no int() call per field.
        lists = ([r.op for r in records], [r.addr for r in records],
                 [r.mode for r in records], [r.pc for r in records],
                 [r.icount for r in records], [r.blockop for r in records])
        return lists, records

    def _op_mode_histogram(self) -> Counter:
        """Counter of ``(Op, Mode)`` pairs over all records, cached.

        One pass serves both :meth:`count_ops` and
        :meth:`data_reference_count`, which previously each re-walked the
        whole trace (and the former paid an enum constructor per record).
        """
        shape = self._shape()
        if self._histogram is None or self._histogram_shape != shape:
            if self._streams is None:
                # Columnar storage: one bincount per CPU, no record objects.
                import numpy as np
                keyed = np.zeros(len(OP_BY_VALUE) * 4, dtype=np.int64)
                for cols in self._columns:
                    if len(cols):
                        keyed += np.bincount(cols.ops * 4 + cols.modes,
                                             minlength=len(keyed))
                self._histogram = Counter({
                    (OP_BY_VALUE[key >> 2], MODE_BY_VALUE[key & 3]): int(n)
                    for key, n in enumerate(keyed.tolist()) if n})
            else:
                counts: Counter = Counter()
                for stream in self._streams:
                    counts.update((r.op, r.mode) for r in stream)
                # Normalize the int keys to enum members once, at the end.
                self._histogram = Counter({
                    (OP_BY_VALUE[op], MODE_BY_VALUE[mode]): n
                    for (op, mode), n in counts.items()})
            self._histogram_shape = shape
        return self._histogram

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

        * every LOCK_ACQ is followed (on the same CPU) by a LOCK_REL of the
          same lock before the next acquire of that lock there;
        * barrier arrivals are balanced: each barrier episode sees exactly
          ``participants`` arrivals across all CPUs;
        * BLOCK_START/BLOCK_END markers nest properly per CPU and refer to
          registered descriptors;
        * block-op word records lie inside their descriptor's ranges.
        """
        self._validate_locks()
        self._validate_barriers()
        self._validate_blockops()

    def _validate_locks(self) -> None:
        for cpu, stream in enumerate(self.streams):
            held: set = set()
            for r in stream:
                if r.op == Op.LOCK_ACQ:
                    if r.addr in held:
                        raise TraceError(
                            f"cpu {cpu}: lock {r.addr:#x} acquired twice")
                    held.add(r.addr)
                elif r.op == Op.LOCK_REL:
                    if r.addr not in held:
                        raise TraceError(
                            f"cpu {cpu}: lock {r.addr:#x} released but not held")
                    held.discard(r.addr)
            if held:
                raise TraceError(
                    f"cpu {cpu}: locks never released: "
                    f"{sorted(hex(a) for a in held)}")

    def _validate_barriers(self) -> None:
        arrivals: Counter = Counter()
        expected: Dict[int, int] = {}
        for stream in self.streams:
            for r in stream:
                if r.op != Op.BARRIER:
                    continue
                arrivals[r.addr] += 1
                if r.arg < 1 or r.arg > self.num_cpus:
                    raise TraceError(
                        f"barrier {r.addr:#x}: bad participant count {r.arg}")
                prev = expected.setdefault(r.addr, r.arg)
                if prev != r.arg:
                    raise TraceError(
                        f"barrier {r.addr:#x}: inconsistent participant counts")
        for addr, count in arrivals.items():
            if count % expected[addr]:
                raise TraceError(
                    f"barrier {addr:#x}: {count} arrivals is not a multiple "
                    f"of {expected[addr]} participants")

    def _validate_blockops(self) -> None:
        for cpu, stream in enumerate(self.streams):
            active = 0
            for r in stream:
                if r.op == Op.BLOCK_START:
                    if active:
                        raise TraceError(f"cpu {cpu}: nested block operation")
                    self.blockops.get(r.blockop)
                    active = r.blockop
                elif r.op == Op.BLOCK_END:
                    if r.blockop != active:
                        raise TraceError(
                            f"cpu {cpu}: BLOCK_END {r.blockop} without start")
                    active = 0
                elif r.blockop and r.op in (Op.READ, Op.WRITE):
                    desc = self.blockops.get(r.blockop)
                    if r.blockop != active:
                        raise TraceError(
                            f"cpu {cpu}: block-op record outside markers")
                    inside = (desc.contains_src(r.addr)
                              or desc.contains_dst(r.addr))
                    if not inside:
                        raise TraceError(
                            f"cpu {cpu}: block-op access {r.addr:#x} outside "
                            f"op {r.blockop} ranges")
            if active:
                raise TraceError(f"cpu {cpu}: unterminated block operation")


class TraceBuilder:
    """Write-side API for constructing a :class:`Trace` one CPU at a time."""

    def __init__(self, num_cpus: int, symbols: Optional[SymbolMap] = None,
                 metadata: Optional[Dict[str, object]] = None) -> None:
        self.trace = Trace(num_cpus, symbols=symbols, metadata=metadata)

    @property
    def blockops(self) -> BlockOpRegistry:
        return self.trace.blockops

    @property
    def symbols(self) -> SymbolMap:
        return self.trace.symbols

    def emit(self, cpu: int, record_: TraceRecord) -> None:
        """Append one record to *cpu*'s stream."""
        self.trace.streams[cpu].append(record_)

    def emit_many(self, cpu: int, records: Iterable[TraceRecord]) -> None:
        """Append several records to *cpu*'s stream."""
        self.trace.streams[cpu].extend(records)

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
        stream = self.trace.streams[cpu]
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
        stream = self.trace.streams[cpu]
        stream.append(rec.block_start(desc.op_id, mode=mode, pc=pc))
        for off in range(0, size, BLOCK_WORD_BYTES):
            nbytes = min(BLOCK_WORD_BYTES, size - off)
            stream.append(TraceRecord(Op.WRITE, dst + off, mode, dst_dclass,
                                      pc, 2, desc.op_id, nbytes))
        stream.append(rec.block_end(desc.op_id, mode=mode, pc=pc))
        return desc

    def build(self, validate: bool = True) -> Trace:
        """Finish and (optionally) validate the trace."""
        if validate:
            self.trace.validate()
        return self.trace
