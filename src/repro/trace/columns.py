"""Columnar (structure-of-arrays) view of one CPU's trace stream.

:mod:`repro.trace.npzio` already stores each stream as one ``(N, 9)``
int64 matrix; this module gives that layout a first-class in-memory type,
:class:`StreamColumns`, so the trace writers, the histogram pass and the
simulator can work on whole streams instead of touching one
:class:`~repro.trace.record.TraceRecord` object per reference.

The column order is the serialization order of the npz format and the
``__slots__`` order of :class:`TraceRecord`::

    op, addr, mode, dclass, pc, icount, blockop, size, arg

A :class:`StreamColumns` built by :meth:`StreamColumns.from_matrix` is a
set of zero-copy views into the loaded matrix; nothing is duplicated and
no record objects exist until somebody asks for them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

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
                 "blockops", "sizes", "args", "n")

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

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "StreamColumns":
        """Zero-copy column views of an ``(N, 9)`` int64 matrix."""
        if matrix.ndim != 2 or matrix.shape[1] != NUM_COLUMNS:
            raise ValueError(
                f"stream matrix must be (N, {NUM_COLUMNS}), "
                f"got {matrix.shape}")
        return cls(*(matrix[:, i] for i in range(NUM_COLUMNS)))

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "StreamColumns":
        """Pack a record sequence into fresh column arrays."""
        return cls.from_matrix(to_matrix(records))

    # ------------------------------------------------------------------
    # Conversion back to the row-wise world
    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """A fresh ``(N, 9)`` int64 matrix of this stream."""
        out = np.empty((self.n, NUM_COLUMNS), dtype=np.int64)
        for i, field in enumerate(FIELDS):
            out[:, i] = getattr(self, _ATTR_OF_FIELD[field])
        return out

    def to_records(self) -> List[TraceRecord]:
        """Materialize the per-record objects (enum-typed fields)."""
        op_of = OP_BY_VALUE
        mode_of = MODE_BY_VALUE
        dclass_of = DCLASS_BY_VALUE
        return [
            TraceRecord(op_of[op], addr, mode_of[mode], dclass_of[dclass],
                        pc, icount, blockop, size, arg)
            for op, addr, mode, dclass, pc, icount, blockop, size, arg
            in zip(self.ops.tolist(), self.addrs.tolist(),
                   self.modes.tolist(), self.dclasses.tolist(),
                   self.pcs.tolist(), self.icounts.tolist(),
                   self.blockops.tolist(), self.sizes.tolist(),
                   self.args.tolist())
        ]

    def sim_lists(self) -> Tuple[list, ...]:
        """The op, addr, mode, pc, icount and blockop columns as plain-int
        lists (:meth:`Trace.sim_stream
        <repro.trace.stream.Trace.sim_stream>` gives the contract)."""
        return (self.ops.tolist(), self.addrs.tolist(), self.modes.tolist(),
                self.pcs.tolist(), self.icounts.tolist(),
                self.blockops.tolist())

    def iter_rows(self) -> Iterable[tuple]:
        """Iterate plain-int rows in field order (no record objects)."""
        return zip(self.ops.tolist(), self.addrs.tolist(),
                   self.modes.tolist(), self.dclasses.tolist(),
                   self.pcs.tolist(), self.icounts.tolist(),
                   self.blockops.tolist(), self.sizes.tolist(),
                   self.args.tolist())


#: StreamColumns attribute holding each serialized field.
_ATTR_OF_FIELD = {
    "op": "ops", "addr": "addrs", "mode": "modes", "dclass": "dclasses",
    "pc": "pcs", "icount": "icounts", "blockop": "blockops", "size": "sizes",
    "arg": "args",
}


def to_matrix(records: Sequence[TraceRecord]) -> np.ndarray:
    """Pack record objects into an ``(N, 9)`` int64 matrix."""
    out = np.empty((len(records), NUM_COLUMNS), dtype=np.int64)
    for i, r in enumerate(records):
        out[i] = (int(r.op), r.addr, int(r.mode), int(r.dclass), r.pc,
                  r.icount, r.blockop, r.size, r.arg)
    return out
