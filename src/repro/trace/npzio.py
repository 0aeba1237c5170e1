"""Compact binary trace serialization (NumPy ``.npz``).

The text format (:mod:`repro.trace.textio`) is diffable but large and
slow; for parameter sweeps that reuse traces across processes, this
module stores each CPU's stream as one integer matrix in a compressed
``.npz`` archive — typically ~20x smaller and an order of magnitude
faster to load.

Layout of the archive:

* ``meta`` — JSON-encoded trace metadata plus the format version;
* ``cpu<i>`` — ``(N_i, 9)`` int64 matrix, one row per record with columns
  ``op, addr, mode, dclass, pc, icount, blockop, size, arg``;
* ``blockops`` — ``(M, 6)`` int64 matrix of
  ``op_id, kind, src, dst, size, pc``;
* ``sym_names`` — array of symbol names; ``sym_table`` — ``(S, 3)``
  int64 matrix of ``base, size, dclass``.
"""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from repro.common.errors import TraceError
from repro.common.types import BlockOpKind, DataClass, Mode, Op
from repro.trace.columns import FIELDS, StreamColumns
from repro.trace.stream import Trace

_VERSION = 1
_COLUMNS = 9

#: Matrix column -> valid codes, for the enum-typed record fields.
_CODES = {FIELDS.index(name): np.array([int(v) for v in enum_type])
          for name, enum_type in (("op", Op), ("mode", Mode),
                                  ("dclass", DataClass))}


def save(trace: Trace, path: str) -> None:
    """Write *trace* to a compressed ``.npz`` archive at *path*.

    Streams are serialized from the trace's column views, so a trace that
    was itself loaded columnar (:func:`load`) round-trips without ever
    materializing record objects.
    """
    arrays = {
        "meta": np.array(json.dumps({
            "version": _VERSION,
            "num_cpus": trace.num_cpus,
            "metadata": trace.metadata,
        })),
        "blockops": np.array(
            [(op.op_id, int(op.kind), op.src, op.dst, op.size, op.pc)
             for op in trace.blockops], dtype=np.int64).reshape(-1, 6),
        "sym_names": np.array(trace.symbols.names()),
        "sym_table": np.array(
            [(s.base, s.size, int(s.dclass)) for s in trace.symbols],
            dtype=np.int64).reshape(-1, 3),
    }
    for cpu, cols in enumerate(trace.column_streams()):
        arrays[f"cpu{cpu}"] = cols.to_matrix()
    np.savez_compressed(path, **arrays)


def load(path: str) -> Trace:
    """Read a trace previously written by :func:`save`.

    The streams are loaded columnar: each ``cpu<i>`` matrix becomes a
    zero-copy :class:`~repro.trace.columns.StreamColumns` view and the
    trace is assembled through :meth:`Trace.from_columns`.  Per-record
    ``TraceRecord`` objects are only built if a consumer later touches
    ``trace.streams`` — the histogram pass and a save round-trip never do.

    Every stream's op, mode and data-class codes are checked here, so a
    corrupt archive fails at load time with a :class:`TraceError` rather
    than later, wherever its records are first decoded.
    """
    with np.load(path, allow_pickle=False) as archive:
        try:
            meta = json.loads(str(archive["meta"]))
        except KeyError:
            raise TraceError(f"{path}: not a repro npz trace") from None
        if meta.get("version") != _VERSION:
            raise TraceError(f"{path}: unsupported version "
                             f"{meta.get('version')!r}")
        num_cpus = int(meta["num_cpus"])
        columns = []
        for cpu in range(num_cpus):
            if f"cpu{cpu}" not in archive.files:
                raise TraceError(f"{path}: cpu{cpu} stream missing")
            matrix = archive[f"cpu{cpu}"]
            if matrix.ndim != 2 or matrix.shape[1] != _COLUMNS:
                raise TraceError(
                    f"{path}: cpu{cpu} stream has shape {matrix.shape}")
            for col, codes in _CODES.items():
                bad = np.flatnonzero(~np.isin(matrix[:, col], codes))
                if bad.size:
                    row = int(bad[0])
                    raise TraceError(
                        f"{path}: cpu{cpu} record {row} has bad "
                        f"{FIELDS[col]} code {int(matrix[row, col])}")
            columns.append(StreamColumns.from_matrix(matrix))
        trace = Trace.from_columns(num_cpus, columns,
                                   metadata=meta["metadata"])
        names = archive["sym_names"]
        table = archive["sym_table"]
        for name, (base, size, dclass) in zip(names, table):
            trace.symbols.add(str(name), int(base), int(size),
                              DataClass(int(dclass)))
        for op_id, kind, src, dst, size, pc in archive["blockops"]:
            if BlockOpKind(int(kind)) == BlockOpKind.COPY:
                desc = trace.blockops.new_copy(int(src), int(dst), int(size),
                                               int(pc))
            else:
                desc = trace.blockops.new_zero(int(dst), int(size), int(pc))
            if desc.op_id != int(op_id):
                raise TraceError(f"{path}: block op ids out of order")
    return trace
