"""End-to-end integration: the paper's claims on one consistent pipeline.

These run the real experiment pipeline (generation, profiling, derived
optimizations, the eight systems) at a reduced but non-trivial scale and
check the claims the reproduction stands on.  They are the slowest tests
in the suite (~0.5-1 min total).
"""

import pytest

from repro.common.types import MissKind, Mode
from repro.experiments.runner import ExperimentRunner
from repro.synthetic.workloads import WORKLOAD_ORDER


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=0.15, seed=1996)


@pytest.fixture(scope="module")
def shell_systems(runner):
    return {name: runner.run("Shell", name)
            for name in ("Base", "Blk_Dma", "BCoh_RelUp", "BCPref")}


def test_full_stack_eliminates_most_misses(runner):
    """Headline: BCPref removes the bulk of OS data misses."""
    ratios = []
    for workload in ("TRFD_4", "Shell"):
        base = runner.run(workload, "Base").os_read_misses()
        full = runner.run(workload, "BCPref").os_read_misses()
        ratios.append(full / max(1, base))
    assert all(r < 0.5 for r in ratios)


def test_full_stack_speeds_up_the_os(runner):
    for workload in ("TRFD_4", "Shell"):
        base = runner.run(workload, "Base").os_time().total
        full = runner.run(workload, "BCPref").os_time().total
        assert full < 0.92 * base


def test_dma_removes_exactly_the_block_misses(shell_systems):
    base = shell_systems["Base"]
    dma = shell_systems["Blk_Dma"]
    assert dma.os_miss_kind.get(MissKind.BLOCK_OP, 0) == 0
    assert base.os_miss_kind.get(MissKind.BLOCK_OP, 0) > 0
    assert dma.dma_ops == base.blockops.ops


def test_update_protocol_removes_coherence_misses(shell_systems):
    base_coh = shell_systems["Base"].os_miss_kind.get(MissKind.COHERENCE, 0)
    relup_coh = shell_systems["BCoh_RelUp"].os_miss_kind.get(
        MissKind.COHERENCE, 0)
    assert relup_coh < 0.6 * max(1, base_coh)


def test_user_work_unaffected_by_os_optimizations(runner):
    """Paper: 'the user execution time is practically unaffected'.

    The OS optimizations never change what user code does: its reads,
    misses and executed instructions are identical.  (User *stall* time
    does move in our simulator — the DMA engine holds the bus, so user
    misses on other CPUs queue longer; deviation D7 in EXPERIMENTS.md.)
    """
    base = runner.run("TRFD_4", "Base")
    full = runner.run("TRFD_4", "BCPref")
    assert base.reads[Mode.USER] == full.reads[Mode.USER]
    assert base.time[Mode.USER].exec_cycles == full.time[Mode.USER].exec_cycles
    base_misses = base.read_misses[Mode.USER]
    full_misses = full.read_misses[Mode.USER]
    # User misses move a little — in Base, OS block operations displace
    # user lines from the shared caches; Blk_Dma stops that, so the
    # optimized system can only *help* user misses.
    assert full_misses <= base_misses * 1.05
    assert abs(full_misses - base_misses) / max(1, base_misses) < 0.25


def test_miss_taxonomy_consistent_across_systems(runner):
    for name in ("Base", "Blk_Dma", "BCPref"):
        m = runner.run("Shell", name)
        assert sum(m.os_miss_kind.values()) == m.os_read_misses()


def test_bus_traffic_of_prefetching_is_modest(runner):
    """Paper (section 6): BCPref's traffic is within ~1 % of BCoh_RelUp's.

    At reduced scale we allow a wider band but the prefetches must not
    blow the traffic up.
    """
    relup = runner.run("Shell", "BCoh_RelUp").bus_busy_cycles
    bcpref = runner.run("Shell", "BCPref").bus_busy_cycles
    assert bcpref < 1.15 * relup


def test_all_workloads_profile_under_base(runner):
    for workload in WORKLOAD_ORDER:
        m = runner.run(workload, "Base")
        assert m.os_read_misses() > 0
        assert m.makespan > 0
        assert m.blockops.ops > 0


def test_update_selection_is_stable_across_runs(runner):
    a = runner.update_selection("TRFD_4")
    fresh = ExperimentRunner(scale=0.15, seed=1996)
    b = fresh.update_selection("TRFD_4")
    assert a.pages == b.pages
    assert a.variables == b.variables
