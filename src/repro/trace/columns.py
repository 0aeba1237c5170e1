"""Columnar (structure-of-arrays) storage of one CPU's trace stream.

:mod:`repro.trace.npzio` stores each stream as one ``(N, 9)`` int64
matrix; :class:`StreamColumns` is the same layout in memory and the only
storage a :class:`~repro.trace.stream.Trace` has, so the writers, the
validator, the optimization passes and the simulator all work on whole
columns instead of one :class:`~repro.trace.record.TraceRecord` object
per reference.

The column order is the serialization order of the npz format and the
``__slots__`` order of :class:`TraceRecord`::

    op, addr, mode, dclass, pc, icount, blockop, size, arg

A :class:`StreamColumns` built by :meth:`StreamColumns.from_matrix` is a
set of zero-copy views into the matrix; record objects exist only when
somebody asks for them (:meth:`StreamColumns.to_records`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.common.types import DCLASS_BY_VALUE, MODE_BY_VALUE, OP_BY_VALUE
from repro.trace.record import TraceRecord

#: Field names, in serialization order (matches ``TraceRecord.__slots__``).
FIELDS = ("op", "addr", "mode", "dclass", "pc", "icount", "blockop",
          "size", "arg")

#: Columns per record in the matrix form (also ``npzio._COLUMNS``).
NUM_COLUMNS = len(FIELDS)


class StreamColumns:
    """Parallel int64 arrays holding one CPU's records column-wise."""

    __slots__ = ("ops", "addrs", "modes", "dclasses", "pcs", "icounts",
                 "blockops", "sizes", "args", "n", "_lists")

    def __init__(self, ops: np.ndarray, addrs: np.ndarray, modes: np.ndarray,
                 dclasses: np.ndarray, pcs: np.ndarray, icounts: np.ndarray,
                 blockops: np.ndarray, sizes: np.ndarray,
                 args: np.ndarray) -> None:
        self.ops = ops
        self.addrs = addrs
        self.modes = modes
        self.dclasses = dclasses
        self.pcs = pcs
        self.icounts = icounts
        self.blockops = blockops
        self.sizes = sizes
        self.args = args
        self.n = len(ops)
        #: :meth:`sim_lists` of a read-only stream, once taken.
        self._lists: Optional[Tuple[list, ...]] = None

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamColumns):
            return NotImplemented
        return all(np.array_equal(a, b)
                   for a, b in zip(self.arrays(), other.arrays()))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "StreamColumns":
        """Zero-copy column views of an ``(N, 9)`` int64 matrix."""
        if matrix.ndim != 2 or matrix.shape[1] != NUM_COLUMNS:
            raise ValueError(
                f"stream matrix must be (N, {NUM_COLUMNS}), "
                f"got {matrix.shape}")
        return cls(*(matrix[:, i] for i in range(NUM_COLUMNS)))

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The nine column arrays, in field order."""
        return (self.ops, self.addrs, self.modes, self.dclasses, self.pcs,
                self.icounts, self.blockops, self.sizes, self.args)

    def to_matrix(self) -> np.ndarray:
        """A fresh ``(N, 9)`` int64 matrix of this stream."""
        return np.column_stack(self.arrays()).astype(np.int64, copy=False)

    def to_records(self) -> List[TraceRecord]:
        """Fresh record objects (enum-typed fields), one per row."""
        op_of = OP_BY_VALUE
        mode_of = MODE_BY_VALUE
        dclass_of = DCLASS_BY_VALUE
        return [
            TraceRecord(op_of[op], addr, mode_of[mode], dclass_of[dclass],
                        pc, icount, blockop, size, arg)
            for op, addr, mode, dclass, pc, icount, blockop, size, arg
            in self.iter_rows()
        ]

    def _sim_arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.ops, self.addrs, self.modes, self.pcs, self.icounts,
                self.blockops)

    def _convert(self) -> Tuple[list, ...]:
        """The :meth:`sim_lists` columns, converted now."""
        return tuple(col.tolist() for col in self._sim_arrays())

    def sim_lists(self) -> Tuple[list, ...]:
        """The op, addr, mode, pc, icount and blockop columns as plain-int
        lists, in that order: the fields the record loop
        (:meth:`Processor.steps <repro.sim.processor.Processor.steps>`)
        reads for every record.

        A read-only stream (:meth:`freeze`) is converted once and every
        later call returns the same lists, which callers must not edit;
        :meth:`drop_sim_lists` frees them.  A writable stream is
        converted afresh on each call, so a column edited between two
        runs is seen by the second."""
        if any(col.flags.writeable for col in self._sim_arrays()):
            self._lists = None
            return self._convert()
        if self._lists is None:
            self._lists = self._convert()
        return self._lists

    def drop_sim_lists(self) -> None:
        """Free the lists a read-only stream's :meth:`sim_lists` kept."""
        self._lists = None

    def freeze(self) -> None:
        """Make every column read-only, so :meth:`sim_lists` may convert
        the stream once for all the simulations that read it."""
        for col in self.arrays():
            col.flags.writeable = False

    def iter_rows(self) -> Iterable[tuple]:
        """Iterate plain-int rows in field order (no record objects)."""
        return zip(*(col.tolist() for col in self.arrays()))
