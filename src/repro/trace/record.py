"""Trace records.

A trace is, per CPU, an ordered list of :class:`TraceRecord`.  Each record
describes one data reference or one event marker (lock, barrier, block-op
boundary, prefetch).  Mirroring the paper's instrumentation (section 2.2),
every record also carries the address of the basic block that issued it
(``pc``) and the number of instructions the basic block executed before the
reference (``icount``); the simulator uses those to model instruction
fetches and execution time, and the hot-spot analysis of section 6 uses
``pc`` to attribute misses to code.
"""

from __future__ import annotations

from repro.common.types import DataClass, Mode, Op

#: Default size, in bytes, of a plain data reference (one 32-bit word).
DEFAULT_ACCESS_BYTES = 4


class TraceRecord:
    """One trace entry.

    Attributes:
        op: The record type (:class:`repro.common.types.Op`).
        addr: Byte address referenced (or lock/barrier address).
        mode: USER or OS execution mode.
        dclass: Data-structure class of ``addr``.
        pc: Address of the issuing basic block (instruction address).
        icount: Instructions executed in the issuing basic block before
            this reference; the simulator charges them as Exec time and
            fetches them through the instruction cache.
        blockop: Id of the enclosing block operation, or 0.
        size: Bytes accessed (4 for word references).
        arg: Operation-specific argument — barrier participant count for
            BARRIER records, prefetch lead distance hint for PREFETCH.
    """

    __slots__ = ("op", "addr", "mode", "dclass", "pc", "icount", "blockop",
                 "size", "arg")

    def __init__(self, op: Op, addr: int, mode: Mode = Mode.OS,
                 dclass: DataClass = DataClass.NONE, pc: int = 0,
                 icount: int = 1, blockop: int = 0,
                 size: int = DEFAULT_ACCESS_BYTES, arg: int = 0) -> None:
        self.op = op
        self.addr = addr
        self.mode = mode
        self.dclass = dclass
        self.pc = pc
        self.icount = icount
        self.blockop = blockop
        self.size = size
        self.arg = arg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceRecord({Op(self.op).name}, addr={self.addr:#x}, "
                f"mode={Mode(self.mode).name}, dclass={DataClass(self.dclass).name}, "
                f"pc={self.pc:#x}, icount={self.icount}, blockop={self.blockop}, "
                f"size={self.size}, arg={self.arg})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        # Tuple comparison, built on demand: records are mutated after
        # construction (the privatization pass rewrites addr/dclass on
        # copies), so a precomputed key would go stale.
        return ((self.op, self.addr, self.mode, self.dclass, self.pc,
                 self.icount, self.blockop, self.size, self.arg)
                == (other.op, other.addr, other.mode, other.dclass, other.pc,
                    other.icount, other.blockop, other.size, other.arg))


def read(addr: int, *, mode: Mode = Mode.OS,
         dclass: DataClass = DataClass.NONE, pc: int = 0, icount: int = 1,
         blockop: int = 0, size: int = DEFAULT_ACCESS_BYTES) -> TraceRecord:
    """Build a data-read record."""
    return TraceRecord(Op.READ, addr, mode, dclass, pc, icount, blockop, size)


def write(addr: int, *, mode: Mode = Mode.OS,
          dclass: DataClass = DataClass.NONE, pc: int = 0, icount: int = 1,
          blockop: int = 0, size: int = DEFAULT_ACCESS_BYTES) -> TraceRecord:
    """Build a data-write record."""
    return TraceRecord(Op.WRITE, addr, mode, dclass, pc, icount, blockop, size)


def prefetch(addr: int, *, mode: Mode = Mode.OS,
             dclass: DataClass = DataClass.NONE, pc: int = 0,
             lead: int = 0) -> TraceRecord:
    """Build a software-prefetch record.

    ``lead`` is the number of trace records between the prefetch and the
    demand access it covers; the simulator uses it only for statistics.
    """
    return TraceRecord(Op.PREFETCH, addr, mode, dclass, pc, icount=1, arg=lead)


def lock_acquire(addr: int, *, mode: Mode = Mode.OS, pc: int = 0,
                 icount: int = 4) -> TraceRecord:
    """Build a lock-acquire record (spin read-modify-write)."""
    return TraceRecord(Op.LOCK_ACQ, addr, mode, DataClass.LOCK_VAR, pc, icount)


def lock_release(addr: int, *, mode: Mode = Mode.OS, pc: int = 0,
                 icount: int = 2) -> TraceRecord:
    """Build a lock-release record (write to the lock word)."""
    return TraceRecord(Op.LOCK_REL, addr, mode, DataClass.LOCK_VAR, pc, icount)


def barrier(addr: int, participants: int, *, mode: Mode = Mode.OS,
            pc: int = 0, icount: int = 6) -> TraceRecord:
    """Build a barrier-arrival record for an episode of *participants* CPUs."""
    return TraceRecord(Op.BARRIER, addr, mode, DataClass.BARRIER_VAR, pc,
                       icount, arg=participants)


def block_start(blockop_id: int, *, mode: Mode = Mode.OS,
                pc: int = 0) -> TraceRecord:
    """Build a block-operation start marker."""
    return TraceRecord(Op.BLOCK_START, 0, mode, DataClass.NONE, pc, icount=2,
                       blockop=blockop_id)


def block_end(blockop_id: int, *, mode: Mode = Mode.OS,
              pc: int = 0) -> TraceRecord:
    """Build a block-operation end marker."""
    return TraceRecord(Op.BLOCK_END, 0, mode, DataClass.NONE, pc, icount=2,
                       blockop=blockop_id)
