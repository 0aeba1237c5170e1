"""Unit tests for the symbol map (repro.trace.annotations)."""

import pytest

from repro.common.errors import TraceError
from repro.common.types import DataClass
from repro.trace.annotations import SymbolMap


@pytest.fixture
def symbols() -> SymbolMap:
    m = SymbolMap()
    m.add("vmmeter", 0x1000, 64, DataClass.INFREQ_COMM)
    m.add("freelist", 0x2000, 128, DataClass.FREELIST)
    m.add("proc_table", 0x3000, 4096, DataClass.PROC_TABLE)
    return m


def test_lookup_inside(symbols):
    assert symbols.lookup(0x1000).name == "vmmeter"
    assert symbols.lookup(0x103F).name == "vmmeter"


def test_lookup_outside(symbols):
    assert symbols.lookup(0x1040) is None
    assert symbols.lookup(0x0FFF) is None


def test_classify(symbols):
    assert symbols.lookup(0x2010).dclass == DataClass.FREELIST
    assert symbols.lookup(0x9999) is None


def test_names_in_address_order(symbols):
    assert symbols.names() == ["vmmeter", "freelist", "proc_table"]


def test_overlap_rejected(symbols):
    with pytest.raises(TraceError):
        symbols.add("bad", 0x1020, 64, DataClass.OTHER_KERNEL)
    with pytest.raises(TraceError):
        symbols.add("bad2", 0x0FF0, 32, DataClass.OTHER_KERNEL)


def test_duplicate_name_rejected(symbols):
    with pytest.raises(TraceError):
        symbols.add("vmmeter", 0x9000, 8, DataClass.OTHER_KERNEL)


def test_zero_size_rejected(symbols):
    with pytest.raises(TraceError):
        symbols.add("empty", 0x8000, 0, DataClass.OTHER_KERNEL)


def test_ranges_and_len(symbols):
    assert len(symbols) == 3
    assert [(s.base, s.end) for s in symbols][0] == (0x1000, 0x1040)


def test_adjacent_ranges_allowed():
    m = SymbolMap()
    m.add("a", 0x100, 16, DataClass.OTHER_KERNEL)
    m.add("b", 0x110, 16, DataClass.OTHER_KERNEL)
    assert m.lookup(0x10F).name == "a"
    assert m.lookup(0x110).name == "b"
