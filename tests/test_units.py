"""Unit tests for repro.common.units."""

import pytest

from repro.common import units
from repro.common.params import BusParams


def test_kb():
    assert units.KB == 1024


def test_cpu_cycles_per_bus_cycle_is_five():
    # 200 MHz CPU over a 40 MHz bus (paper section 2.4).
    assert units.CPU_CYCLES_PER_BUS_CYCLE == 5


def test_bus_cycles_conversion():
    # A 32-byte line is 4 bus cycles on the 8-byte bus: 20 CPU cycles.
    assert BusParams().line_transfer_cycles(32) == 20


def test_cycles_to_seconds():
    assert units.cycles_to_seconds(units.CPU_HZ) == pytest.approx(1.0)


@pytest.mark.parametrize("n,expect", [
    (1, True), (2, True), (1024, True),
    (0, False), (-4, False), (3, False), (12, False),
])
def test_is_power_of_two(n, expect):
    assert units.is_power_of_two(n) is expect


def test_align_down():
    assert units.align_down(0x1234, 16) == 0x1230
    assert units.align_down(0x1230, 16) == 0x1230


def test_align_up():
    assert units.align_up(0x1234, 16) == 0x1240
    assert units.align_up(0x1240, 16) == 0x1240


@pytest.mark.parametrize("a,b,expect", [(7, 2, 4), (8, 2, 4), (1, 8, 1), (0, 8, 0)])
def test_ceil_div(a, b, expect):
    assert units.ceil_div(a, b) == expect
