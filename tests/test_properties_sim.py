"""Property-based tests on simulator-level invariants.

These complement tests/test_properties.py: rather than exercising the
memory system directly, they run whole random (valid) traces through the
configured systems and check the paper-level invariants that every
configuration must preserve.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import MissKind, Mode, Op
from repro.sim.config import SystemConfig, standard_configs
from repro.sim.system import MultiprocessorSystem, simulate
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder


@st.composite
def block_heavy_traces(draw):
    """Valid 2-CPU traces biased toward block operations and sharing."""
    b = TraceBuilder(2)
    shared = draw(st.integers(0, 7)) * 64 + 0x9000
    for cpu in range(2):
        n = draw(st.integers(2, 16))
        for _ in range(n):
            kind = draw(st.sampled_from(["r", "w", "s", "copy", "zero"]))
            if kind == "r":
                b.emit(cpu, rec.read(draw(st.integers(0, 1 << 18)) * 4,
                                     icount=draw(st.integers(1, 6))))
            elif kind == "w":
                b.emit(cpu, rec.write(draw(st.integers(0, 1 << 18)) * 4,
                                      icount=draw(st.integers(1, 6))))
            elif kind == "s":
                b.emit(cpu, rec.read(shared, icount=2))
                b.emit(cpu, rec.write(shared, icount=1))
            elif kind == "copy":
                src = 0x100000 + draw(st.integers(0, 30)) * 0x1000
                dst = 0x200000 + draw(st.integers(0, 30)) * 0x1000
                if src != dst:
                    b.emit_block_copy(
                        cpu, src=src, dst=dst,
                        size=draw(st.sampled_from([64, 256, 4096])))
            else:
                b.emit_block_zero(
                    cpu, dst=0x300000 + draw(st.integers(0, 30)) * 0x1000,
                    size=draw(st.sampled_from([128, 1024, 4096])))
    return b.build()


@given(block_heavy_traces())
@settings(max_examples=20, deadline=None)
def test_simulation_is_deterministic(trace):
    """The same trace and config always produce identical metrics."""
    config = standard_configs()["Base"]
    a = simulate(trace, config)
    b = simulate(trace, config)
    assert a.makespan == b.makespan
    assert a.os_read_misses() == b.os_read_misses()
    assert dict(a.os_miss_kind) == dict(b.os_miss_kind)
    assert a.time[Mode.OS].as_dict() == b.time[Mode.OS].as_dict()


@given(block_heavy_traces())
@settings(max_examples=20, deadline=None)
def test_dma_always_removes_all_block_misses(trace):
    metrics = simulate(trace, standard_configs()["Blk_Dma"])
    assert metrics.os_miss_kind.get(MissKind.BLOCK_OP, 0) == 0
    assert metrics.dma_ops == len(trace.blockops)


@given(block_heavy_traces())
@settings(max_examples=15, deadline=None)
def test_pure_update_never_increases_coherence_misses(trace):
    invalidate = simulate(trace, SystemConfig("inv"))
    update = simulate(trace, SystemConfig("upd", pure_update=True))
    assert (update.os_miss_kind.get(MissKind.COHERENCE, 0)
            <= invalidate.os_miss_kind.get(MissKind.COHERENCE, 0))


@given(block_heavy_traces())
@settings(max_examples=15, deadline=None)
def test_reads_and_writes_preserved_across_schemes(trace):
    """Every non-DMA scheme executes exactly the trace's references."""
    expected_reads = sum(1 for r in trace.records() if r.op == Op.READ)
    expected_writes = sum(1 for r in trace.records() if r.op == Op.WRITE)
    for name in ("Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref"):
        m = simulate(trace, standard_configs()[name])
        assert sum(m.reads) == expected_reads, name
        assert sum(m.writes) == expected_writes, name


@given(block_heavy_traces())
@settings(max_examples=15, deadline=None)
def test_time_components_nonnegative_and_bounded(trace):
    for name in ("Base", "Blk_Dma"):
        m = simulate(trace, standard_configs()[name])
        for mode in Mode:
            tb = m.time[mode]
            assert min(tb.as_dict().values()) >= 0
        # Total attributed CPU time cannot exceed CPUs x makespan.
        assert m.total_cpu_cycles <= trace.num_cpus * m.makespan + 1


@given(block_heavy_traces())
@settings(max_examples=10, deadline=None)
def test_invariants_after_every_scheme(trace):
    for name, config in standard_configs().items():
        system = MultiprocessorSystem(trace, config)
        system.run()
        system.check_invariants()
