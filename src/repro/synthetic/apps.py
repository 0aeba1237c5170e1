"""User-level application models.

Each function emits one *chunk* of user-mode computation for a process —
a scheduling quantum's worth of references with the app's characteristic
locality.  User code has much better cache behaviour than the kernel
(Table 1: user data miss rates are low), so every model works a small hot
set intensively while streaming through new data slowly:

* **TRFD** — blocked dense matrix arithmetic: an inner vector is reused
  continuously while the outer operand streams.
* **ARC2D** — sparse 2-D fluid dynamics: stencil sweeps with good reuse
  plus occasional indexed gathers.
* **cc1** — the C compiler's second phase: a hot working set of symbol
  tables and the current AST region, with cold pointer chases.
* **Fsck** — sequential bitmap scans (high spatial locality).
* **Shell utilities** — tiny hot loops between system calls.
"""

from __future__ import annotations

from repro.common.types import DataClass, Mode, Op
from repro.synthetic.kernel import Kernel, Process
from repro.synthetic.layout import user_pc
from repro.trace.record import DEFAULT_ACCESS_BYTES

_USER = int(Mode.USER)
_USER_DATA = int(DataClass.USER_DATA)


def _emit_user(k: Kernel, cpu: int, op: Op, addr: int, pc: int,
               icount: int) -> None:
    k.builder.emit_row(cpu, (op, addr, _USER, _USER_DATA, pc, icount, 0,
                             DEFAULT_ACCESS_BYTES, 0))


def trfd_chunk(k: Kernel, cpu: int, proc: Process, refs: int) -> None:
    """Blocked matrix multiply: a 2-KB inner vector is reused every pass
    while one operand row streams through memory."""
    base = k.layout.user_segment(proc.pid)
    vector, stream, result = base, base + 0x41200, base + 0x82400
    pos = proc.user_pos
    pc = user_pc(proc.pid, 0)
    for i in range(refs):
        _emit_user(k, cpu, Op.READ, vector + ((pos + i) * 4) % 2048, pc, 5)
        if i % 32 == 0:
            # Streaming operand: one new element per unrolled iteration.
            _emit_user(k, cpu, Op.READ, stream + ((pos + i) * 4) % 0x40000,
                       pc, 2)
        if i % 16 == 15:
            _emit_user(k, cpu, Op.WRITE, result + ((pos + i) // 16 * 4) % 4096,
                       pc, 2)
    proc.user_pos += refs


def arc2d_chunk(k: Kernel, cpu: int, proc: Process, refs: int) -> None:
    """Stencil sweep over a hot grid tile with occasional sparse gathers."""
    base = k.layout.user_segment(proc.pid)
    tile, coeff = base, base + 0x101800
    pos = proc.user_pos
    pc = user_pc(proc.pid, 1)
    for i in range(refs):
        # Five-point stencil around a slowly advancing centre: heavy reuse.
        centre = ((pos + i) // 4 * 4) % 6144
        _emit_user(k, cpu, Op.READ, tile + centre, pc, 5)
        if i % 4 == 1:
            _emit_user(k, cpu, Op.READ, tile + (centre + 128) % 6144, pc, 1)
        if i % 4 == 3:
            _emit_user(k, cpu, Op.WRITE, tile + centre, pc, 1)
        if i % 32 == 9:
            # Sparse coefficient gather: poor locality, rare.
            off = ((pos + i) * 2654435761) % 0x40000 & ~3
            _emit_user(k, cpu, Op.READ, coeff + off, pc, 3)
    proc.user_pos += refs


def cc1_chunk(k: Kernel, cpu: int, proc: Process, refs: int) -> None:
    """Compiler: hot symbol-table region plus cold AST pointer chases."""
    base = k.layout.user_segment(proc.pid) + 0x200000
    symtab, heap = base, base + 0x11600
    pos = proc.user_pos
    pc = user_pc(proc.pid, 2)
    heap_size = min(0x10000, 0x4000 + pos * 8)
    for i in range(refs):
        if i % 12 < 11:
            # Symbol-table lookups in a 4-KB hot region.
            off = ((pos + i) * 28) % 4096 & ~3
            _emit_user(k, cpu, Op.READ, symtab + off, pc, 5)
        else:
            off = ((pos + i) * 40503) % heap_size & ~3
            _emit_user(k, cpu, Op.READ, heap + off, pc, 3)
        if i % 12 == 11:
            frontier = ((pos + i) * 24) % heap_size & ~3
            _emit_user(k, cpu, Op.WRITE, heap + frontier, pc, 2)
    proc.user_pos += refs


def fsck_chunk(k: Kernel, cpu: int, proc: Process, refs: int) -> None:
    """Fsck: sequential scan of block/inode bitmaps (word stride)."""
    base = k.layout.user_segment(proc.pid) + 0x300000
    pos = proc.user_pos
    pc = user_pc(proc.pid, 3)
    for i in range(refs):
        _emit_user(k, cpu, Op.READ, base + ((pos + i) * 4) % 0x2000, pc, 5)
        if i % 16 == 15:
            _emit_user(k, cpu, Op.WRITE,
                       base + 0x20000 + ((pos + i) // 4) % 4096 & ~3, pc, 1)
    proc.user_pos += refs


def shell_chunk(k: Kernel, cpu: int, proc: Process, refs: int) -> None:
    """A shell utility's burst of user work between system calls."""
    base = k.layout.user_segment(proc.pid) + 0x10000
    pos = proc.user_pos
    pc = user_pc(proc.pid, 4)
    for i in range(refs):
        _emit_user(k, cpu, Op.READ, base + ((pos + i) * 8) % 2048, pc, 5)
        if i % 10 == 9:
            _emit_user(k, cpu, Op.WRITE, base + 2048 + ((pos + i) * 4) % 1024,
                       pc, 1)
    proc.user_pos += refs
