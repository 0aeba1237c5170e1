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

import io
import json
import os
import zipfile
import zlib
from typing import Optional

import numpy as np

from repro.common.errors import TraceError
from repro.common.types import (BlockOpKind, DataClass, DCLASS_BY_VALUE,
                                Mode, Op)
from repro.trace.columns import FIELDS, StreamColumns
from repro.trace.stream import Trace

_VERSION = 1
_COLUMNS = 9

#: Code -> member, for the ``blockops`` kinds.
_KIND_OF = {int(k): k for k in BlockOpKind}

#: Matrix column -> valid codes, for the enum-typed record fields.
_CODES = {FIELDS.index(name): np.array([int(v) for v in enum_type])
          for name, enum_type in (("op", Op), ("mode", Mode),
                                  ("dclass", DataClass))}


def save(trace: Trace, path: str) -> bytes:
    """Write *trace* to a compressed ``.npz`` archive at *path* (with
    ``.npz`` appended when *path* lacks it, as :func:`numpy.savez` does);
    returns the bytes written."""
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
    for cpu, cols in enumerate(trace.columns):
        arrays[f"cpu{cpu}"] = cols.to_matrix()
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    data = buffer.getvalue()
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with open(path, "wb") as fp:
        fp.write(data)
    return data


def load(path: str, data: Optional[bytes] = None) -> Trace:
    """Read a trace previously written by :func:`save`.

    *data*, when given, is the archive's bytes, already read from
    *path*; *path* then only names the file in errors.

    Each ``cpu<i>`` matrix becomes a zero-copy
    :class:`~repro.trace.columns.StreamColumns` view.

    Every member is checked here — each stream's op, mode and data-class
    codes, the shape of every table, the block-op kinds and symbol data
    classes, the ``meta`` JSON — so a corrupt archive fails at load time
    with a :class:`TraceError` naming the file and the member, rather
    than later, wherever its contents are first decoded.
    """
    try:
        archive = np.load(path if data is None else io.BytesIO(data),
                          allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        # numpy reports non-zip bytes as refused pickle data.
        raise TraceError(f"{path}: not an npz archive") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise TraceError(f"{path}: not an npz archive")
    with archive:
        if "meta" not in archive.files:
            raise TraceError(f"{path}: not a repro npz trace")
        meta = _meta(path, _member(archive, path, "meta"))
        num_cpus = meta["num_cpus"]
        columns = []
        for cpu in range(num_cpus):
            if f"cpu{cpu}" not in archive.files:
                raise TraceError(f"{path}: cpu{cpu} stream missing")
            matrix = _table(archive, path, f"cpu{cpu}", _COLUMNS)
            for col, codes in _CODES.items():
                bad = np.flatnonzero(~np.isin(matrix[:, col], codes))
                if bad.size:
                    row = int(bad[0])
                    raise TraceError(
                        f"{path}: cpu{cpu} record {row} has bad "
                        f"{FIELDS[col]} code {int(matrix[row, col])}")
            columns.append(StreamColumns.from_matrix(matrix))
        trace = Trace(columns, metadata=meta["metadata"])
        names = _member(archive, path, "sym_names")
        table = _table(archive, path, "sym_table", 3)
        if names.shape != (len(table),):
            raise TraceError(f"{path}: sym_names has shape {names.shape}, "
                             f"sym_table has {len(table)} rows")
        for row, (name, (base, size, code)) in enumerate(
                zip(names, table.tolist())):
            if code not in DCLASS_BY_VALUE:
                raise TraceError(f"{path}: sym_table row {row} has bad "
                                 f"dclass code {code}")
            try:
                trace.symbols.add(str(name), base, size,
                                  DCLASS_BY_VALUE[code])
            except TraceError as err:
                raise TraceError(f"{path}: sym_table row {row}: {err}") \
                    from None
        for row, (op_id, code, src, dst, size, pc) in enumerate(
                _table(archive, path, "blockops", 6).tolist()):
            if code not in _KIND_OF:
                raise TraceError(f"{path}: blockops row {row} has bad "
                                 f"kind code {code}")
            try:
                if _KIND_OF[code] == BlockOpKind.COPY:
                    desc = trace.blockops.new_copy(src, dst, size, pc)
                else:
                    desc = trace.blockops.new_zero(dst, size, pc)
            except TraceError as err:
                raise TraceError(f"{path}: blockops row {row}: {err}") \
                    from None
            if desc.op_id != op_id:
                raise TraceError(f"{path}: blockops row {row} has id "
                                 f"{op_id}, expected {desc.op_id}")
    return trace


def _member(archive, path: str, name: str) -> np.ndarray:
    """Array *name* of *archive*; a missing or unreadable member raises
    :class:`TraceError`."""
    try:
        return archive[name]
    except KeyError:
        raise TraceError(f"{path}: {name} missing") from None
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as err:
        raise TraceError(f"{path}: {name} unreadable ({err})") from None


def _table(archive, path: str, name: str, columns: int) -> np.ndarray:
    """Integer matrix *name* of *archive*, checked to have *columns*."""
    matrix = _member(archive, path, name)
    if (matrix.ndim != 2 or matrix.shape[1] != columns
            or matrix.dtype.kind not in "iu"):
        raise TraceError(f"{path}: {name} has shape {matrix.shape} "
                         f"and dtype {matrix.dtype}; expected (N, {columns}) "
                         f"integers")
    return matrix


def _meta(path: str, raw: np.ndarray) -> dict:
    """The decoded ``meta`` member, with its required keys checked."""
    try:
        meta = json.loads(str(raw))
    except ValueError as err:
        raise TraceError(f"{path}: meta is not JSON ({err})") from None
    if not isinstance(meta, dict):
        raise TraceError(f"{path}: meta is not a JSON object")
    if meta.get("version") != _VERSION:
        raise TraceError(f"{path}: unsupported version "
                         f"{meta.get('version')!r}")
    num_cpus = meta.get("num_cpus")
    if type(num_cpus) is not int or num_cpus < 1:
        raise TraceError(f"{path}: meta has bad num_cpus {num_cpus!r}")
    if not isinstance(meta.get("metadata"), dict):
        raise TraceError(f"{path}: meta has no metadata object")
    return meta
