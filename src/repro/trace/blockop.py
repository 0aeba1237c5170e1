"""Block-operation descriptors.

A block operation (section 4) is a kernel copy or zero of a contiguous byte
range: page zeroing on first touch, fork-time page copies, buffer-cache
copies for read/write system calls, and network packet moves.  The trace
carries the word-level loads and stores of each operation (so the Base
machine simulates them exactly), bracketed by BLOCK_START/BLOCK_END markers
whose id points into a :class:`BlockOpRegistry` of descriptors.
"""

from __future__ import annotations

from typing import Dict, Iterator

from repro.common.errors import TraceError
from repro.common.types import BlockOpKind


class BlockOpDescriptor:
    """Static description of one block operation."""

    __slots__ = ("op_id", "kind", "src", "dst", "size", "pc")

    def __init__(self, op_id: int, kind: BlockOpKind, src: int, dst: int,
                 size: int, pc: int = 0) -> None:
        if size <= 0:
            raise TraceError(f"block op {op_id}: non-positive size {size}")
        if kind == BlockOpKind.COPY and src == dst:
            raise TraceError(f"block op {op_id}: copy onto itself")
        self.op_id = op_id
        self.kind = kind
        #: Source base address (0 for ZERO operations).
        self.src = src
        self.dst = dst
        self.size = size
        self.pc = pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BlockOpDescriptor(id={self.op_id}, "
                f"kind={BlockOpKind(self.kind).name}, src={self.src:#x}, "
                f"dst={self.dst:#x}, size={self.size})")

    @property
    def is_copy(self) -> bool:
        return self.kind == BlockOpKind.COPY

    def src_range(self) -> range:
        """Byte range of the source block (empty for ZERO)."""
        if not self.is_copy:
            return range(0)
        return range(self.src, self.src + self.size)

    def dst_range(self) -> range:
        """Byte range of the destination block."""
        return range(self.dst, self.dst + self.size)

    def contains_src(self, addr: int) -> bool:
        """True when *addr* lies in the source block."""
        return self.is_copy and self.src <= addr < self.src + self.size

    def contains_dst(self, addr: int) -> bool:
        """True when *addr* lies in the destination block."""
        return self.dst <= addr < self.dst + self.size


class BlockOpRegistry:
    """Allocates ids and stores descriptors for one trace."""

    def __init__(self) -> None:
        self._ops: Dict[int, BlockOpDescriptor] = {}
        self._next_id = 1

    def new_copy(self, src: int, dst: int, size: int, pc: int = 0) -> BlockOpDescriptor:
        """Register a copy of *size* bytes from *src* to *dst*."""
        return self._register(BlockOpKind.COPY, src, dst, size, pc)

    def new_zero(self, dst: int, size: int, pc: int = 0) -> BlockOpDescriptor:
        """Register a zero-fill of *size* bytes at *dst*."""
        return self._register(BlockOpKind.ZERO, 0, dst, size, pc)

    def _register(self, kind: BlockOpKind, src: int, dst: int, size: int,
                  pc: int) -> BlockOpDescriptor:
        desc = BlockOpDescriptor(self._next_id, kind, src, dst, size, pc)
        self._ops[desc.op_id] = desc
        self._next_id += 1
        return desc

    def get(self, op_id: int) -> BlockOpDescriptor:
        """Look a descriptor up; raises :class:`TraceError` if unknown."""
        try:
            return self._ops[op_id]
        except KeyError:
            raise TraceError(f"unknown block op id {op_id}") from None

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[BlockOpDescriptor]:
        return iter(self._ops.values())

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._ops
