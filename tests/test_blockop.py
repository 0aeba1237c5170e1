"""Unit tests for block-operation descriptors (repro.trace.blockop)."""

import pytest

from repro.common.errors import TraceError
from repro.common.types import BlockOpKind
from repro.trace.blockop import BlockOpDescriptor, BlockOpRegistry


class TestDescriptor:
    def test_copy_ranges(self):
        d = BlockOpDescriptor(1, BlockOpKind.COPY, 0x1000, 0x2000, 64)
        assert d.is_copy
        assert list(d.src_range()) == list(range(0x1000, 0x1040))
        assert list(d.dst_range()) == list(range(0x2000, 0x2040))

    def test_zero_has_empty_src_range(self):
        d = BlockOpDescriptor(1, BlockOpKind.ZERO, 0, 0x2000, 64)
        assert not d.is_copy
        assert len(d.src_range()) == 0
        assert len(d.dst_range()) == 64

    def test_contains(self):
        d = BlockOpDescriptor(1, BlockOpKind.COPY, 0x1000, 0x2000, 64)
        assert d.contains_src(0x1000)
        assert d.contains_src(0x103F)
        assert not d.contains_src(0x1040)
        assert d.contains_dst(0x2020)
        assert not d.contains_dst(0x1FFF)

    def test_zero_never_contains_src(self):
        d = BlockOpDescriptor(1, BlockOpKind.ZERO, 0, 0x2000, 64)
        assert not d.contains_src(0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(TraceError):
            BlockOpDescriptor(1, BlockOpKind.COPY, 0x0, 0x100, 0)

    def test_rejects_self_copy(self):
        with pytest.raises(TraceError):
            BlockOpDescriptor(1, BlockOpKind.COPY, 0x100, 0x100, 64)


class TestRegistry:
    def test_ids_are_sequential_from_one(self):
        reg = BlockOpRegistry()
        a = reg.new_copy(0x0, 0x100, 32)
        b = reg.new_zero(0x200, 32)
        assert (a.op_id, b.op_id) == (1, 2)

    def test_get_and_find(self):
        reg = BlockOpRegistry()
        d = reg.new_copy(0x0, 0x100, 32)
        assert reg.get(d.op_id) is d
        assert d.op_id in reg
        assert 99 not in reg

    def test_get_unknown_raises(self):
        with pytest.raises(TraceError):
            BlockOpRegistry().get(1)

    def test_len_iter_contains(self):
        reg = BlockOpRegistry()
        reg.new_copy(0x0, 0x100, 32)
        reg.new_zero(0x200, 16)
        assert len(reg) == 2
        assert {d.op_id for d in reg} == {1, 2}
        assert 1 in reg and 3 not in reg
