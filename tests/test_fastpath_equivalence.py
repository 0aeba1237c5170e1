"""Equivalence tests for the simulator-core fast paths.

The optimized scheduler (:meth:`MultiprocessorSystem.run`, min-heap) and
the inlined L1-hit short circuits in :meth:`Processor.step` must be pure
speedups: on any trace, the metrics snapshot has to be *bit-identical* to
the reference scan scheduler (:meth:`run_scan`) and to the full
:class:`CpuMemorySystem` call chain.  These tests throw randomized traces
— locks, barriers, block copies/zeros, both modes, all five pure schemes —
at both implementations and compare the complete snapshots.

The batched scheduler (``batch=True``, the default) gets the same
treatment at a larger blast radius: every scheme of
:func:`standard_configs` crossed with the four paper workloads and three
generated profile families, a hypothesis property over the batch chunk
size, and regression tests pinning the auto-disable contract (checker,
tracer, instance-patched hooks, and ``REPRO_NO_BATCH`` must force the
scalar loop and change nothing).
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import BASE_MACHINE, machine_for
from repro.common.types import DataClass, Mode
from repro.memsys.bus import Bus
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.sim.config import all_configs, resolve_config, standard_configs
from repro.sim.metrics import MissTracker
from repro.sim.system import REPRO_NO_BATCH_ENV, MultiprocessorSystem
from repro.synthetic.profiles import generate as generate_profile
from repro.trace import record
from repro.trace.stream import TraceBuilder

PURE_SCHEMES = ["Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma"]

#: Every registered scheme — the paper's eight plus the three
#: adaptive hybrids, whose policies are consulted only on the
#: controller's bus-level write paths (which the batched tier
#: never enters), so batched == scalar must hold for them too.
ALL_SCHEMES = list(all_configs())

PAPER_WORKLOADS = ["TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"]
GENERATED_PROFILES = ["server", "bursty_mp", "gang_diurnal"]

#: Workload scale for the full scheme x workload matrix (~20-35k records
#: per trace: big enough for real run-length structure, small enough for
#: the suite).
MATRIX_SCALE = 0.08

#: The paper point plus two set-associative machine-axis points: the
#: inline hit paths and the fused write drain run on all of them.
MACHINES = [BASE_MACHINE, machine_for(8, assoc=2), machine_for(16, assoc=4)]


def machine_id(machine):
    return f"{machine.num_cpus}cpu-{machine.l1d.assoc}way"


SHARED_BASE = 0x50000
LOCK_ADDRS = (0x9000, 0x9040)
BARRIER_ADDR = 0xA000


def random_trace(seed: int, num_cpus: int):
    """A small adversarial trace: mixed references, sync, and block ops."""
    rng = random.Random(seed)
    builder = TraceBuilder(num_cpus)
    blk_area = 0x200000
    for cpu in range(num_cpus):
        private = 0x100000 + cpu * 0x10000
        for _ in range(rng.randint(40, 80)):
            roll = rng.random()
            pool = SHARED_BASE if rng.random() < 0.4 else private
            addr = pool + 4 * rng.randrange(64)
            mode = Mode.OS if rng.random() < 0.5 else Mode.USER
            pc = 0x1000 + 16 * rng.randrange(8)
            icount = rng.randint(1, 6)
            if roll < 0.45:
                builder.emit(cpu, record.read(addr, mode=mode, pc=pc,
                                              icount=icount,
                                              dclass=DataClass.BUFFER))
            elif roll < 0.75:
                builder.emit(cpu, record.write(addr, mode=mode, pc=pc,
                                               icount=icount,
                                               dclass=DataClass.BUFFER))
            elif roll < 0.88:
                lock = rng.choice(LOCK_ADDRS)
                builder.emit(cpu, record.lock_acquire(lock, mode=mode))
                builder.emit(cpu, record.read(SHARED_BASE + 4 * rng.randrange(16),
                                              mode=mode, pc=pc))
                builder.emit(cpu, record.lock_release(lock, mode=mode))
            elif roll < 0.95:
                src = blk_area
                dst = blk_area + 0x8000 + cpu * 0x2000
                builder.emit_block_copy(cpu, src, dst,
                                        size=64 * rng.randint(1, 3),
                                        mode=mode, pc=pc)
            else:
                builder.emit_block_zero(cpu, blk_area + 0x10000 + cpu * 0x2000,
                                        size=64 * rng.randint(1, 3),
                                        mode=mode, pc=pc)
        builder.emit(cpu, record.barrier(BARRIER_ADDR, num_cpus))
    return builder.build()


def contended_trace(num_cpus: int):
    """Every CPU hammers one lock back-to-back: exercises the spin path."""
    builder = TraceBuilder(num_cpus)
    lock = LOCK_ADDRS[0]
    for cpu in range(num_cpus):
        for i in range(20):
            builder.emit(cpu, record.lock_acquire(lock))
            builder.emit(cpu, record.write(SHARED_BASE + 4 * (i % 8),
                                           dclass=DataClass.BUFFER))
            builder.emit(cpu, record.lock_release(lock))
        builder.emit(cpu, record.barrier(BARRIER_ADDR, num_cpus))
    return builder.build()


def snapshots(trace, config):
    """Run heap and scan schedulers on fresh identical systems."""
    heap = MultiprocessorSystem(trace, config).run().snapshot()
    scan = MultiprocessorSystem(trace, config).run_scan().snapshot()
    return heap, scan


class TestHeapSchedulerEquivalence:
    @pytest.mark.parametrize("scheme", PURE_SCHEMES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_traces_bit_identical(self, seed, scheme):
        config = standard_configs()[scheme]
        trace = random_trace(seed, num_cpus=2 + seed % 3)
        heap, scan = snapshots(trace, config)
        assert heap == scan

    @pytest.mark.parametrize("scheme", PURE_SCHEMES)
    def test_lock_contention_bit_identical(self, scheme):
        config = standard_configs()[scheme]
        heap, scan = snapshots(contended_trace(4), config)
        assert heap == scan

    def test_single_cpu_trace(self):
        config = standard_configs()["Base"]
        heap, scan = snapshots(random_trace(7, num_cpus=1), config)
        assert heap == scan


class _AlwaysPending:
    """Stands in for ``pending.ready``: claims every line has a fill."""

    def __contains__(self, line):
        return True


class TestL1FastPathEquivalence:
    @pytest.mark.parametrize("seed,machine", [
        pytest.param(seed, machine, id=str(seed) if machine is BASE_MACHINE
                     else f"{machine_id(machine)}-{seed}")
        for machine in MACHINES for seed in (11, 12)])
    def test_forced_slow_path_matches(self, seed, machine):
        """Disabling the inline L1-hit path must not change any metric.

        The read fast path is guarded by ``line not in _pending_ready``;
        substituting an always-contains object forces every read down the
        full :meth:`CpuMemorySystem.read` chain, so hit accounting (and,
        on set-associative machines, LRU promotion) of the two paths is
        compared across a whole randomized run.
        """
        config = resolve_config("Base", machine)
        trace = random_trace(seed, num_cpus=3)
        fast = MultiprocessorSystem(trace, config).run().snapshot()
        slow_sys = MultiprocessorSystem(trace, config)
        for proc in slow_sys.processors:
            proc._pending_ready = _AlwaysPending()
        slow = slow_sys.run().snapshot()
        assert fast == slow

    def test_write_cycles_matches_write(self):
        """``write_cycles`` must mirror ``write`` result-for-result, on
        every machine point, down to the frame index and LRU stamps."""
        for machine in MACHINES:
            def rig():
                bus = Bus(machine.bus)
                controller = CoherenceController(machine, bus)
                return [CpuMemorySystem(machine, bus, controller,
                                        MissTracker()) for _ in range(2)]

            full, lean = rig(), rig()
            rng = random.Random(42)
            t = 0
            for _ in range(300):
                cpu = rng.randrange(2)
                # 64 KB strides share a set in the L1D and the L2 on
                # every machine point, so both evict (by LRU when
                # set-associative).
                addr = (SHARED_BASE + 0x10000 * rng.randrange(16)
                        + 4 * rng.randrange(32))
                res = full[cpu].write(addr, t)
                done, stall = lean[cpu].write_cycles(addr, t)
                assert (done, stall) == (res.done, res.stall), \
                    machine_id(machine)
                t += rng.randrange(4)
            for f, l in zip(full, lean):
                for cache in ("l1d", "l2"):
                    a, b = getattr(f, cache), getattr(l, cache)
                    assert a.tags == b.tags, (machine_id(machine), cache)
                    assert a.where == b.where, (machine_id(machine), cache)
                    assert a.stamps == b.stamps, (machine_id(machine), cache)
                assert f.l2.states == l.l2.states, machine_id(machine)
                assert f.wb1.stall_cycles == l.wb1.stall_cycles


@lru_cache(maxsize=None)
def profile_trace(name: str, scale: float = MATRIX_SCALE):
    """One generated trace per workload, shared by every cell below."""
    return generate_profile(name, seed=7, scale=scale)


@lru_cache(maxsize=None)
def scalar_snapshot(name: str, scheme: str):
    """Reference scalar-mode snapshot for a (workload, scheme) cell."""
    trace = profile_trace(name)
    config = all_configs()[scheme]
    return MultiprocessorSystem(trace, config, batch=False).run().snapshot()


class TestBatchedSchedulerEquivalence:
    """``batch=True`` must be bit-identical to the scalar loop."""

    @pytest.mark.slow
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("workload",
                             PAPER_WORKLOADS + GENERATED_PROFILES)
    def test_batched_matches_scalar(self, workload, scheme):
        trace = profile_trace(workload)
        config = all_configs()[scheme]
        system = MultiprocessorSystem(trace, config, batch=True)
        batched = system.run().snapshot()
        assert batched == scalar_snapshot(workload, scheme)

    @pytest.mark.parametrize("scheme", ["Base", "Blk_Dma", "Hyb_UpdN"])
    def test_batched_matches_scalar_fast(self, scheme):
        """A two-cell subset of the matrix for the quick CI lane."""
        trace = profile_trace("Shell")
        config = all_configs()[scheme]
        system = MultiprocessorSystem(trace, config, batch=True)
        batched = system.run().snapshot()
        # The hit-dominated cells must actually exercise the batched
        # path, not silently fall back to scalar stepping.
        assert system.batched_records > 0
        assert batched == scalar_snapshot("Shell", scheme)

    @pytest.mark.parametrize("scheme", PURE_SCHEMES)
    @pytest.mark.parametrize("seed", [21, 22])
    def test_random_traces_batched(self, seed, scheme):
        """Adversarial sync-heavy traces, batched vs scalar."""
        config = standard_configs()[scheme]
        trace = random_trace(seed, num_cpus=2 + seed % 3)
        scalar = MultiprocessorSystem(trace, config, batch=False) \
            .run().snapshot()
        batched = MultiprocessorSystem(trace, config, batch=True) \
            .run().snapshot()
        assert batched == scalar


class TestBatchChunkProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 40), chunk=st.integers(1, 8192))
    def test_chunk_never_changes_metrics(self, seed, chunk):
        """The vector-tier chunk size is pure mechanism, never policy."""
        config = standard_configs()["Base"]
        trace = random_trace(seed, num_cpus=2 + seed % 3)
        scalar = MultiprocessorSystem(trace, config, batch=False) \
            .run().snapshot()
        batched = MultiprocessorSystem(trace, config, batch=True,
                                       batch_chunk=chunk).run().snapshot()
        assert batched == scalar


class TestBatchAutoDisable:
    """Observers must force the scalar loop — and change no metric."""

    def _reference(self):
        trace = profile_trace("Shell")
        config = standard_configs()["Base"]
        return trace, config, scalar_snapshot("Shell", "Base")

    def test_checker_forces_scalar(self):
        trace, config, ref = self._reference()
        system = MultiprocessorSystem(trace, config, batch=True, check=True)
        snap = system.run().snapshot()
        assert system.checker is not None
        assert system.batched_records == 0
        assert snap == ref

    def test_tracer_forces_scalar(self):
        from repro.obs import Tracer
        from repro.obs.tracer import attach_tracer
        trace, config, ref = self._reference()
        system = MultiprocessorSystem(trace, config, batch=True)
        attach_tracer(system, Tracer())
        snap = system.run().snapshot()
        assert system.batched_records == 0
        assert snap == ref

    def test_env_var_forces_scalar(self, monkeypatch):
        trace, config, ref = self._reference()
        monkeypatch.setenv(REPRO_NO_BATCH_ENV, "1")
        system = MultiprocessorSystem(trace, config)
        snap = system.run().snapshot()
        assert system.batched_records == 0
        assert snap == ref

    def test_instance_step_patch_forces_scalar(self):
        trace, config, ref = self._reference()
        system = MultiprocessorSystem(trace, config, batch=True)
        stepped = 0
        for proc in system.processors:
            orig = proc.step

            def step(orig=orig):
                nonlocal stepped
                stepped += 1
                return orig()

            proc.step = step
        snap = system.run().snapshot()
        assert system.batched_records == 0
        assert stepped >= len(trace)
        assert snap == ref

    def test_explicit_batch_false(self):
        trace, config, ref = self._reference()
        system = MultiprocessorSystem(trace, config, batch=False)
        snap = system.run().snapshot()
        assert system.batched_records == 0
        assert snap == ref
