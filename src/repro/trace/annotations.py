"""Symbol map: names and data classes for address ranges.

The paper's methodology maps every data access back to "the data structure
that was being accessed" (section 2.2).  The synthetic kernel registers all
of its statically laid-out structures here; the analysis and optimization
layers (coherence-miss breakdown, privatization, update-core selection)
query the map by address.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Set

from repro.common.errors import TraceError
from repro.common.types import DataClass


class Symbol:
    """A named, classed address range ``[base, base + size)``."""

    __slots__ = ("name", "base", "size", "dclass")

    def __init__(self, name: str, base: int, size: int, dclass: DataClass) -> None:
        if size <= 0:
            raise TraceError(f"symbol {name!r}: non-positive size")
        self.name = name
        self.base = base
        self.size = size
        self.dclass = dclass

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Symbol({self.name!r}, base={self.base:#x}, size={self.size}, "
                f"dclass={DataClass(self.dclass).name})")


class SymbolMap:
    """Sorted, non-overlapping collection of :class:`Symbol` ranges."""

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._symbols: List[Symbol] = []
        self._names: Set[str] = set()

    def add(self, name: str, base: int, size: int, dclass: DataClass) -> Symbol:
        """Register a symbol; overlapping ranges are rejected."""
        sym = Symbol(name, base, size, dclass)
        idx = bisect.bisect_left(self._bases, base)
        if idx < len(self._symbols) and self._symbols[idx].base < sym.end:
            raise TraceError(f"symbol {name!r} overlaps {self._symbols[idx].name!r}")
        if idx > 0 and self._symbols[idx - 1].end > base:
            raise TraceError(f"symbol {name!r} overlaps {self._symbols[idx - 1].name!r}")
        if name in self._names:
            raise TraceError(f"duplicate symbol name {name!r}")
        self._bases.insert(idx, base)
        self._symbols.insert(idx, sym)
        self._names.add(name)
        return sym

    def lookup(self, addr: int) -> Optional[Symbol]:
        """Return the symbol containing *addr*, or None."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0 and self._symbols[idx].contains(addr):
            return self._symbols[idx]
        return None

    def names(self) -> List[str]:
        """All symbol names, in address order."""
        return [s.name for s in self._symbols]

    def __len__(self) -> int:
        return len(self._symbols)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)
