"""End-to-end tests for the machine axis: CPU counts beyond the paper's
four, set-associative machine points, and the trace/machine-shape
bugfixes (narrow traces must get machines their own size, not the 4-CPU
Base with phantom idle processors).
"""

import pytest

from repro.analysis.tables import (MACHINE_COMPARE_SCHEMES, MACHINE_POINTS,
                                   machine_point, machine_workload)
from repro.common.params import BASE_MACHINE, machine_for
from repro.experiments.all import artifact_cells
from repro.sim.config import all_configs, resolve_config
from repro.sim.system import MultiprocessorSystem, simulate
from repro.synthetic.profiles import generate

SCALE = 0.1
SEED = 1996


def _trace(num_cpus, scale=SCALE):
    return generate(f"gen:server:c{num_cpus}:i060:steady:0:0",
                    seed=SEED, scale=scale)


class TestNarrowTraceMachineSizing:
    """Regression: ``repro simulate`` used to hand every trace the
    4-CPU BASE_MACHINE, so a 2-CPU workload simulated against a machine
    with two phantom idle CPUs and any 8-CPU workload crashed."""

    def test_machine_matches_trace_width(self, capsys):
        import argparse

        from repro.cli import _machine_from_args, main
        args = argparse.Namespace(assoc=1, bus_width=None)
        assert _machine_from_args(2, args).num_cpus == 2
        assert _machine_from_args(4, args) is BASE_MACHINE
        # And the command itself runs the narrow workload cleanly.
        assert main(["simulate", "gen:server:c2:i060:steady:0:0",
                     "--scale", "0.05"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_wide_trace_no_longer_crashes(self):
        trace = _trace(8, scale=0.02)
        config = resolve_config("Base", machine_for(8))
        metrics = simulate(trace, config)
        assert metrics.makespan > 0

    def test_system_rejects_trace_wider_than_machine(self):
        from repro.common.errors import SimulationError
        trace = _trace(8, scale=0.02)
        with pytest.raises(SimulationError, match="8 CPUs"):
            MultiprocessorSystem(trace, resolve_config("Base"))


class TestResolveConfig:
    def test_registry_names_pass_through(self):
        for name in all_configs():
            assert resolve_config(name).name == name

    def test_parameterized_hybrids(self):
        assert resolve_config("Hyb_UpdN@N2").name == "Hyb_UpdN@N2"
        assert resolve_config("Hyb_Deg@T4").name == "Hyb_Deg@T4"

    def test_default_knob_is_canonical(self):
        # Hyb_UpdN's default budget is N=4: the explicit spelling must
        # resolve to the registry entry so cached cells are shared.
        assert resolve_config("Hyb_UpdN@N4").name == "Hyb_UpdN"
        assert resolve_config("Hyb_Deg@T2").name == "Hyb_Deg"

    def test_bad_names_raise(self):
        with pytest.raises(KeyError):
            resolve_config("Hyb_UpdN@X3")
        with pytest.raises(KeyError):
            resolve_config("Hyb_Deg@T0")
        with pytest.raises(KeyError):
            resolve_config("NoSuchScheme")

    def test_registry_unchanged(self):
        # The parameterized forms must not leak into the registry.
        assert not any("@" in name for name in all_configs())


class TestSetAssociativeEndToEnd:
    """An 8-CPU 2-way machine must run every scheme cleanly with the
    conformance checker armed, and checked == unchecked."""

    @pytest.mark.parametrize("scheme", ["Base", "Blk_Dma", "Hyb_UpdN@N2"])
    def test_checked_equals_unchecked(self, scheme):
        trace = _trace(8, scale=0.02)
        machine = machine_for(8, assoc=2, bus_width_bytes=16)
        config = resolve_config(scheme, machine)
        unchecked = simulate(trace, config, check=False)
        checked = simulate(trace, config, check=True)
        assert checked.makespan == unchecked.makespan
        assert checked.os_time().total == unchecked.os_time().total
        assert checked.os_read_misses() == unchecked.os_read_misses()

    def test_assoc_machine_differs_from_direct_mapped(self):
        # Same geometry, different organization: conflict misses should
        # drop, so the runs must not be accidentally identical.
        trace = _trace(8, scale=0.02)
        direct = simulate(trace, resolve_config("Base", machine_for(8)))
        assoc = simulate(trace,
                         resolve_config("Base", machine_for(8, assoc=4)))
        assert assoc.makespan != direct.makespan


class TestPaperPointUnchanged:
    def test_base_machine_is_direct_mapped(self):
        assert (BASE_MACHINE.l1i.assoc, BASE_MACHINE.l1d.assoc,
                BASE_MACHINE.l2.assoc) == (1, 1, 1)

    def test_machine_for_4_is_base(self):
        assert machine_for(4) is BASE_MACHINE


class TestMachinesArtifact:
    def test_machines_artifact_has_parallel_cells(self):
        # Same contract as the hybrid table: the parallel engine
        # pre-computes artifact_cells(name), so the declared grid must
        # cover every (workload, scheme, machine) the builder asks for.
        cells = artifact_cells("machines")
        expected_pairs = {
            (machine_workload(cpus), s)
            for (_label, cpus, _assoc, _bw) in MACHINE_POINTS
            for s in ["Base"] + MACHINE_COMPARE_SCHEMES}
        assert {(w, s) for (w, s, _) in cells} == expected_pairs
        for (_label, cpus, assoc, bw) in MACHINE_POINTS:
            machine = machine_point(cpus, assoc, bw)
            assert machine.num_cpus == cpus
            assert machine.l1d.assoc == assoc

    def test_paper_point_is_first_and_exact(self):
        label, cpus, assoc, bw = MACHINE_POINTS[0]
        assert (cpus, assoc, bw) == (4, 1, None)
        assert machine_point(cpus, assoc, bw) is BASE_MACHINE

    def test_all_schemes_resolve(self):
        for scheme in MACHINE_COMPARE_SCHEMES:
            assert resolve_config(scheme, machine_for(8, assoc=2))
