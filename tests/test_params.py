"""Unit tests for machine parameters (repro.common.params)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.params import (
    BASE_MACHINE,
    BusParams,
    CacheParams,
    MachineParams,
)
from repro.common.units import KB
from repro.memsys.cache import Cache


class TestCacheParams:
    def test_base_l1d_geometry(self):
        l1d = BASE_MACHINE.l1d
        assert l1d.size_bytes == 32 * KB
        assert l1d.line_bytes == 16
        assert l1d.num_lines == 2048

    def test_set_index_wraps(self):
        c = Cache(CacheParams(1024, 16))
        assert c.set_index(0) == 0
        assert c.set_index(16) == 1
        assert c.set_index(1024) == 0
        assert c.set_index(1024 + 48) == 3

    def test_line_addr(self):
        c = Cache(CacheParams(1024, 16))
        assert c.line_addr(0x123) == 0x120

    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ConfigError):
            CacheParams(1000, 16)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheParams(1024, 12)

    def test_rejects_cache_smaller_than_line(self):
        with pytest.raises(ConfigError):
            CacheParams(16, 32)


class TestBusParams:
    def test_line_transfer_matches_paper(self):
        # "Each secondary cache line transfer uses the bus for 20
        # processor cycles" — 32 bytes over an 8-byte bus at 1:5.
        assert BusParams().line_transfer_cycles(32) == 20

    def test_line_transfer_16_bytes(self):
        assert BusParams().line_transfer_cycles(16) == 10

    def test_line_transfer_rounds_up(self):
        assert BusParams().line_transfer_cycles(20) == 15


class TestMachineParams:
    def test_memory_read_latency_is_51(self):
        # 1, 12 and 51 cycles for L1/L2/memory (paper section 2.4).
        assert BASE_MACHINE.l1_hit_cycles == 1
        assert BASE_MACHINE.l2_hit_cycles == 12
        assert BASE_MACHINE.memory_read_cycles == 51

    def test_l1_hit_cycles_other_than_one_rejected(self):
        # A hit is charged one exec cycle; a longer hit would advance the
        # clocks by cycles that no time component accounts for.
        for cycles in (0, 2):
            with pytest.raises(ConfigError, match="l1_hit_cycles"):
                MachineParams(l1_hit_cycles=cycles)

    def test_base_has_four_cpus(self):
        assert BASE_MACHINE.num_cpus == 4

    def test_write_buffer_depths(self):
        assert BASE_MACHINE.write_buffers.l1_depth == 4
        assert BASE_MACHINE.write_buffers.l2_depth == 8

    def test_with_l1d_size_sweep(self):
        for size in (16 * KB, 32 * KB, 64 * KB):
            m = BASE_MACHINE.with_l1d(size_bytes=size)
            assert m.l1d.size_bytes == size
            assert m.l1d.line_bytes == 16
            assert m.l2.size_bytes == BASE_MACHINE.l2.size_bytes

    def test_with_l1d_line_sweep_keeps_inclusion(self):
        # Figure 7: L1D lines of 16..64 B with 64-B L2 lines.
        for line in (16, 32, 64):
            m = BASE_MACHINE.with_l1d(line_bytes=line, l2_line_bytes=64)
            assert m.l1d.line_bytes == line
            assert m.l2.line_bytes == 64

    def test_with_l1d_line_grows_l2_line_if_needed(self):
        m = BASE_MACHINE.with_l1d(line_bytes=64)
        assert m.l2.line_bytes >= 64

    def test_rejects_l2_smaller_than_l1(self):
        with pytest.raises(ConfigError):
            MachineParams(l1d=CacheParams(512 * KB, 16))

    def test_rejects_l2_line_smaller_than_l1_line(self):
        with pytest.raises(ConfigError):
            MachineParams(l1d=CacheParams(32 * KB, 64))

    def test_rejects_zero_cpus(self):
        with pytest.raises(ConfigError):
            MachineParams(num_cpus=0)
