"""Mutant-killing tests: every deliberate protocol bug must be caught.

Each test builds the *smallest directed trace* that exposes one mutant
from :mod:`repro.check.mutants`, asserts the conformance checker raises
with the expected kind, and asserts the same trace passes clean without
the mutant (so the catch is the mutant's fault, not a checker artifact).
A final test drives the full loop the CI job runs: fuzz until caught,
shrink, save, replay.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import fuzz
from repro.check.mutants import MUTANTS, _processor_global, mutant
from repro.common.errors import ConformanceError
from repro.common.params import machine_for
from repro.memsys.states import LineState
from repro.sim.config import all_configs, resolve_config
from repro.sim.system import simulate
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder

CONFIGS = all_configs()
W = 0x40000          # a shared word
BAR = 0x610000
#: Instruction address for every directed record.  The default pc=0 maps
#: to the same direct-mapped L2 set as W, so each record's ifetch would
#: evict the very data line under test; 0x1300 maps elsewhere.
PC = 0x1300


def run_checked(trace, config_name="Base"):
    return simulate(trace, CONFIGS[config_name], check=True)


def expect_catch(trace, kinds, config_name="Base"):
    with pytest.raises(ConformanceError) as excinfo:
        run_checked(trace, config_name)
    assert excinfo.value.kind in kinds, excinfo.value


def test_skip_invalidation_caught():
    # cpu0 and cpu1 both cache W (SHARED), then cpu0 upgrades: without
    # the invalidation, an owned line coexists with cpu1's copy.
    b = TraceBuilder(2)
    b.emit(0, rec.read(W, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    b.emit(0, rec.barrier(BAR, 2, pc=PC))
    b.emit(1, rec.barrier(BAR, 2, pc=PC))
    b.emit(0, rec.write(W, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    trace = b.build()
    run_checked(trace)  # sane without the mutant
    with mutant("skip_invalidation"):
        expect_catch(trace, ("owned-and-shared", "stale-read"))


def test_stale_cache_supply_caught():
    # cpu0 dirties W; cpu1's miss is served from memory instead of the
    # dirty cache, so cpu1 reads the pre-write contents.
    b = TraceBuilder(2)
    b.emit(0, rec.write(W, pc=PC))
    b.emit(0, rec.barrier(BAR, 2, pc=PC))
    b.emit(1, rec.barrier(BAR, 2, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    trace = b.build()
    run_checked(trace)
    with mutant("stale_cache_supply"):
        expect_catch(trace, ("stale-read",))


def test_lost_dirty_bit_caught():
    # A write hitting an EXCLUSIVE line never becomes MODIFIED, so the
    # value exists nowhere durable once the run ends.  The word sits
    # outside set 0, where a set-associative L2's frame differs from the
    # direct-mapped slot, on every associativity of the machine axis.
    # The write is an L1D hit on an owned line with WB1 room, which the
    # record loop resolves inline, checker or not: the bug in the loop
    # alone is caught too.
    b = TraceBuilder(1)
    b.emit(0, rec.read(W + 0x20, pc=PC))   # fill EXCLUSIVE
    b.emit(0, rec.write(W + 0x20, pc=PC))  # inline clean write, E->M lost
    trace = b.build()
    bugs = (lambda: mutant("lost_dirty_bit"),
            lambda: _processor_global("MODIFIED", LineState.EXCLUSIVE))
    for assoc in (1, 2, 4):
        config = resolve_config("Base", machine_for(1, assoc=assoc))
        simulate(trace, config, check=True)
        for bug in bugs:
            with bug():
                with pytest.raises(ConformanceError) as excinfo:
                    simulate(trace, config, check=True)
            assert excinfo.value.kind in ("clean-copy-diverged",
                                          "lost-write"), (assoc,
                                                          excinfo.value)


def test_clean_write_on_shared_caught():
    # cpu0 and cpu1 both cache W (SHARED); cpu0 reads it back into its
    # L1D (the barrier word shares W's L1D set), and its write then hits
    # the L1D with WB1 room.  The mutant record loop takes it as a clean
    # write: cpu0's line turns MODIFIED in place, no upgrade reaches the
    # bus, and cpu1 keeps its copy.
    b = TraceBuilder(2)
    b.emit(0, rec.read(W, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    b.emit(0, rec.barrier(BAR, 2, pc=PC))
    b.emit(1, rec.barrier(BAR, 2, pc=PC))
    b.emit(0, rec.read(W, pc=PC))
    b.emit(0, rec.write(W, pc=PC))
    trace = b.build()
    for config_name in MUTANTS["clean_write_on_shared"][1]:
        run_checked(trace, config_name)
        with mutant("clean_write_on_shared"):
            expect_catch(trace, ("owned-and-shared",), config_name)


def test_l2_miss_served_as_hit_caught():
    # cpu1 dirties W; cpu0's read misses in its L1D and its L2, and the
    # mutant read routine serves it as an L2 hit without fetching, so
    # cpu0 sees no copy of the latest value.  The record loop calls the
    # routine directly, as it does without a probe: the checker runs the
    # production miss path.
    b = TraceBuilder(2)
    b.emit(1, rec.write(W, pc=PC))
    b.emit(1, rec.barrier(BAR, 2, pc=PC))
    b.emit(0, rec.barrier(BAR, 2, pc=PC))
    b.emit(0, rec.read(W + 4, pc=PC))
    trace = b.build()
    for config_name in MUTANTS["l2_miss_served_as_hit"][1]:
        run_checked(trace, config_name)
        with mutant("l2_miss_served_as_hit"):
            expect_catch(trace, ("stale-read", "inclusion"), config_name)


def test_dma_stale_source_caught():
    # A REMOTE cache dirties the copy source (the issuing CPU's own dirty
    # lines are flushed before the transfer, so only a remote holder
    # exposes the snoop); the mutant engine skips the source snoop and
    # pipelines stale memory to the destination.
    src, dst = 0x200000, 0x300000
    b = TraceBuilder(2)
    b.emit(1, rec.write(src + 8, pc=PC))
    b.emit(1, rec.barrier(BAR, 2, pc=PC))
    b.emit(0, rec.barrier(BAR, 2, pc=PC))
    b.emit_block_copy(0, src, dst, 64, pc=PC + 0x40)
    trace = b.build()
    run_checked(trace, "Blk_Dma")
    with mutant("dma_stale_source"):
        expect_catch(trace, ("dma-stale-source",), "Blk_Dma")


def test_adaptive_counter_stuck_caught():
    # cpu1 holds a copy of W while cpu0 writes it N+1 times with no
    # bus-visible re-reference by cpu1: the clean policy drops cpu1 at
    # write N+1, the stuck-counter mutant keeps broadcasting to it.
    n = CONFIGS["Hyb_UpdN"].adaptive_n
    b = TraceBuilder(2)
    b.emit(0, rec.read(W, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    b.emit(0, rec.barrier(BAR, 2, pc=PC))
    b.emit(1, rec.barrier(BAR, 2, pc=PC))
    for _ in range(n + 1):
        b.emit(0, rec.write(W, pc=PC))
    trace = b.build()
    run_checked(trace, "Hyb_UpdN")  # sane without the mutant
    with mutant("adaptive_counter_stuck"):
        expect_catch(trace, ("update-past-budget",), "Hyb_UpdN")


def test_adaptive_threshold_off_by_one_caught():
    # A write seeing exactly threshold + 1 remote sharers must switch to
    # invalidation; the off-by-one mutant still broadcasts an update.
    threshold = CONFIGS["Hyb_Deg"].degree_threshold
    sharers = threshold + 1
    b = TraceBuilder(sharers + 1)
    for cpu in range(sharers + 1):
        b.emit(cpu, rec.read(W, pc=PC))
    for cpu in range(sharers + 1):
        b.emit(cpu, rec.barrier(BAR, sharers + 1, pc=PC))
    b.emit(0, rec.write(W, pc=PC))
    trace = b.build()
    run_checked(trace, "Hyb_Deg")
    with mutant("adaptive_threshold_off_by_one"):
        expect_catch(trace, ("adaptive-decision-mismatch",), "Hyb_Deg")


def test_stale_update_after_switch_caught():
    # With N=1, cpu1's budget is spent by the first update while cpu2
    # (filled later) still has budget, so the second write must update
    # cpu2 and drop cpu1 in the same transaction.  The mutant loses the
    # drop: cpu1 keeps a pre-write copy and reads it.
    config = dataclasses.replace(CONFIGS["Hyb_UpdN"], adaptive_n=1)
    b = TraceBuilder(3)
    b.emit(0, rec.read(W, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    for cpu in range(3):
        b.emit(cpu, rec.barrier(BAR, 3, pc=PC))
    b.emit(0, rec.write(W, pc=PC))       # updates cpu1, budget 1 -> 0
    for cpu in range(3):
        b.emit(cpu, rec.barrier(BAR + 0x40, 3, pc=PC))
    b.emit(2, rec.read(W, pc=PC))        # cpu2 fills, fresh budget
    for cpu in range(3):
        b.emit(cpu, rec.barrier(BAR + 0x80, 3, pc=PC))
    b.emit(0, rec.write(W, pc=PC))       # updates cpu2, must drop cpu1
    for cpu in range(3):
        b.emit(cpu, rec.barrier(BAR + 0xc0, 3, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    trace = b.build()
    simulate(trace, config, check=True)  # sane without the mutant
    with mutant("stale_update_after_switch"):
        with pytest.raises(ConformanceError) as excinfo:
            simulate(trace, config, check=True)
        assert excinfo.value.kind in ("stale-read", "clean-copy-diverged",
                                      "owned-and-shared"), excinfo.value


def test_static_update_skips_holder_caught():
    # W sits on an update page that cpu0 and cpu1 both cache: cpu0's
    # write must update cpu1's copy, and the mutant leaves it out.
    config = CONFIGS["BCoh_RelUp"]
    page = W - W % config.machine.page_bytes
    b = TraceBuilder(2)
    b.emit(0, rec.read(W, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    b.emit(0, rec.barrier(BAR, 2, pc=PC))
    b.emit(1, rec.barrier(BAR, 2, pc=PC))
    b.emit(0, rec.write(W, pc=PC))
    b.emit(0, rec.barrier(BAR + 0x40, 2, pc=PC))
    b.emit(1, rec.barrier(BAR + 0x40, 2, pc=PC))
    b.emit(1, rec.read(W, pc=PC))
    trace = b.build()
    simulate(trace, config, update_pages=[page], check=True)
    with mutant("static_update_skips_holder"):
        with pytest.raises(ConformanceError) as excinfo:
            simulate(trace, config, update_pages=[page], check=True)
    assert excinfo.value.kind == "adaptive-decision-mismatch", excinfo.value


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_restores_original(name):
    """Leaving the context restores the pristine protocol methods."""
    from repro.memsys.adaptive import (DegreePolicy, StaticHybridPolicy,
                                       UpdateNPolicy)
    from repro.memsys.coherence import CoherenceController
    from repro.memsys.hierarchy import CpuMemorySystem
    from repro.sim import processor

    def methods():
        return (processor.MODIFIED, processor.EXCLUSIVE,
                CoherenceController.upgrade,
                CoherenceController.fetch_shared,
                CoherenceController.dma_snoop_src,
                CoherenceController.adaptive_update,
                CpuMemorySystem._drain_word,
                CpuMemorySystem.write,
                UpdateNPolicy.decide, DegreePolicy.decide,
                StaticHybridPolicy.decide)
    before = methods()
    with mutant(name):
        pass
    assert methods() == before


@pytest.mark.slow
@pytest.mark.fuzz
@pytest.mark.parametrize("name", list(MUTANTS))
def test_fuzzer_catches_every_mutant(name, tmp_path):
    """Fuzz -> catch -> shrink -> save -> replay, per mutant."""
    _, config_names = MUTANTS[name]
    caught = None
    for i in range(20):
        case = fuzz.generate_case(i, race_free=i % 2 == 0)
        for config_name in config_names:
            result = fuzz.run_case(case, config_name, mutant_name=name)
            if result.error is not None:
                caught = fuzz.FuzzFailure(case, config_name, name,
                                          result.error)
                break
        if caught:
            break
    assert caught is not None, f"{name} not caught in 20 rounds"
    shrunk = fuzz.shrink_failure(caught)
    assert len(shrunk) <= len(caught.case)
    path = tmp_path / f"{name}.txt"
    fuzz.save_failure(caught, shrunk, str(path))
    replayed = fuzz.replay(str(path))
    assert replayed.error is not None
    assert replayed.error.kind == caught.error.kind
