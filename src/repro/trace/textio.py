"""Portable text serialization of traces.

The on-disk format is line-oriented so traces can be inspected, diffed and
version-controlled.  It is intentionally simple: a header, one line per
block-op descriptor and per symbol, then one line per record prefixed by the
CPU id.  Field order matches :class:`repro.trace.record.TraceRecord`.

Metadata values are JSON-encoded on the ``meta`` lines, so string values
that merely *look* numeric (``"007"``, ``"1e3"``) and values containing
spaces round-trip exactly; files written before the JSON encoding (bare
values) still load via a best-effort int/float/str fallback.

Malformed input never leaks a bare :class:`ValueError`: every parse
failure is reported as a :class:`~repro.common.errors.TraceError`
carrying the 1-based line number and line kind.
"""

from __future__ import annotations

import io
import json
from typing import TextIO

from repro.common.errors import TraceError
from repro.common.params import MAX_CPUS
from repro.common.types import BlockOpKind, DataClass, Mode, Op
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace, TraceBuilder

_MAGIC = "reprotrace v1"


def dump(trace: Trace, fp: TextIO) -> None:
    """Serialize *trace* to the text stream *fp*."""
    fp.write(f"{_MAGIC}\n")
    fp.write(f"cpus {trace.num_cpus}\n")
    for key in sorted(trace.metadata):
        fp.write(f"meta {key} {json.dumps(trace.metadata[key])}\n")
    for sym in trace.symbols:
        fp.write(f"sym {sym.name} {sym.base} {sym.size} {int(sym.dclass)}\n")
    for op in trace.blockops:
        fp.write(f"blockop {op.op_id} {int(op.kind)} {op.src} {op.dst} "
                 f"{op.size} {op.pc}\n")
    for cpu, cols in enumerate(trace.columns):
        for op, addr, mode, dclass, pc, icount, blockop, size, arg \
                in cols.iter_rows():
            fp.write(f"r {cpu} {op} {addr} {mode} "
                     f"{dclass} {pc} {icount} {blockop} "
                     f"{size} {arg}\n")


def load(fp: TextIO) -> Trace:
    """Parse a trace previously written by :func:`dump`.

    Raises :class:`TraceError` — never a bare :class:`ValueError` — on
    malformed input, citing the 1-based line number and line kind.
    """
    header = fp.readline().rstrip("\n")
    if header != _MAGIC:
        raise TraceError(f"line 1: bad trace header {header!r}")
    cpus_raw = fp.readline()
    cpus_line = cpus_raw.split()
    if len(cpus_line) != 2 or cpus_line[0] != "cpus":
        raise TraceError(f"line 2: missing cpu count "
                         f"(got {cpus_raw.rstrip()!r})")
    try:
        cpus = int(cpus_line[1])
    except ValueError as err:
        raise TraceError(f"line 2: bad cpu count: {err}") from err
    # Bound the count before the builder allocates one stream per CPU.
    if not 1 <= cpus <= MAX_CPUS:
        raise TraceError(f"line 2: cpu count {cpus} outside [1, {MAX_CPUS}]")
    builder = TraceBuilder(cpus)
    for lineno, line in enumerate(fp, start=3):
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        try:
            if kind == "meta":
                _load_meta(builder, line)
            elif kind == "sym":
                builder.symbols.add(fields[1], int(fields[2]),
                                    int(fields[3]), DataClass(int(fields[4])))
            elif kind == "blockop":
                _load_blockop(builder, fields)
            elif kind == "r":
                _load_record(builder, fields)
            else:
                raise TraceError(f"unknown line kind {kind!r}")
        except TraceError as err:
            raise TraceError(f"line {lineno}: {err}") from None
        except (ValueError, IndexError) as err:
            # "not enough values to unpack", "invalid literal for
            # int()", out-of-range enum values, ...
            raise TraceError(
                f"line {lineno}: malformed {kind!r} line: {err}") from err
    try:
        return builder.build(validate=False)
    except OverflowError:
        raise TraceError("a record field does not fit in 64 bits") from None


def loads(text: str) -> Trace:
    """Parse a trace from a string."""
    return load(io.StringIO(text))


def _load_meta(builder: TraceBuilder, line: str) -> None:
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) != 3:
        raise TraceError("meta line needs a key and a value")
    _, key, value = parts
    builder.metadata[key] = _parse_meta(value)


def _parse_meta(value: str) -> object:
    try:
        return json.loads(value)
    except ValueError:
        pass
    # Legacy files (pre-JSON encoding) wrote bare values; best effort.
    for converter in (int, float):
        try:
            return converter(value)
        except ValueError:
            continue
    return value


def _load_blockop(builder: TraceBuilder, fields: list) -> None:
    op_id, kind, src, dst, size, pc = (int(f) for f in fields[1:7])
    if BlockOpKind(kind) == BlockOpKind.COPY:
        desc = builder.blockops.new_copy(src, dst, size, pc)
    else:
        desc = builder.blockops.new_zero(dst, size, pc)
    if desc.op_id != op_id:
        raise TraceError(
            f"block op ids must be serialized in order ({op_id} != {desc.op_id})")


def _load_record(builder: TraceBuilder, fields: list) -> None:
    values = [int(f) for f in fields[1:11]]
    if len(values) != 10:
        raise TraceError(
            f"record needs 10 fields, got {len(values)}")
    (cpu, op, addr, mode, dclass, pc, icount, blockop, size, arg) = values
    if not 0 <= cpu < builder.num_cpus:
        raise TraceError(f"record for unknown cpu {cpu}")
    builder.emit(cpu, TraceRecord(Op(op), addr, Mode(mode), DataClass(dclass),
                                  pc, icount, blockop, size, arg))
