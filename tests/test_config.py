"""Tests for system configurations (repro.sim.config)."""

import dataclasses

import pytest

from repro.common.params import BASE_MACHINE
from repro.common.types import Scheme
from repro.common.units import KB
from repro.sim.config import SystemConfig, resolve_config, standard_configs


def test_default_config_is_base():
    config = SystemConfig("x")
    assert config.scheme == Scheme.BASE
    assert not config.privatize
    assert not config.selective_update
    assert not config.pure_update
    assert not config.hotspot_prefetch


def test_configs_are_frozen():
    config = SystemConfig("x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.scheme = Scheme.DMA


def test_standard_configs_schemes():
    configs = standard_configs()
    assert configs["Base"].scheme == Scheme.BASE
    assert configs["Blk_Pref"].scheme == Scheme.PREF
    assert configs["Blk_Bypass"].scheme == Scheme.BYPASS
    assert configs["Blk_ByPref"].scheme == Scheme.BYPREF
    for name in ("Blk_Dma", "BCoh_Reloc", "BCoh_RelUp", "BCPref"):
        assert configs[name].scheme == Scheme.DMA


def test_standard_configs_optimization_stack():
    configs = standard_configs()
    assert not configs["Blk_Dma"].privatize
    assert configs["BCoh_Reloc"].privatize
    assert not configs["BCoh_Reloc"].selective_update
    assert configs["BCoh_RelUp"].privatize
    assert configs["BCoh_RelUp"].selective_update
    assert configs["BCPref"].hotspot_prefetch
    assert configs["BCPref"].selective_update


def test_with_machine():
    machine = BASE_MACHINE.with_l1d(size_bytes=16 * KB)
    config = resolve_config("Blk_Dma", machine)
    assert config.machine.l1d.size_bytes == 16 * KB
    assert config.scheme == Scheme.DMA
    assert config.name == "Blk_Dma"


def test_renamed():
    # A knob form is its family's config under its own name; the
    # default knob keeps the family name.
    config = resolve_config("Hyb_UpdN@N8")
    assert config.name == "Hyb_UpdN@N8"
    assert config.scheme == resolve_config("Hyb_UpdN").scheme
    assert resolve_config("Hyb_UpdN@N4").name == "Hyb_UpdN"


def test_standard_configs_take_machine():
    machine = BASE_MACHINE.with_l1d(line_bytes=32)
    configs = standard_configs(machine)
    assert all(c.machine.l1d.line_bytes == 32 for c in configs.values())


def test_bypref_lead_below_buffer_capacity():
    # The lookahead must stay below the 8-line prefetch buffer or it
    # evicts the line about to be read (regression guard).
    config = SystemConfig("x")
    assert config.bypref_lead_lines < 8
