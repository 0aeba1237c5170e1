"""Equivalence tests for the simulator-core fast paths.

The optimized scheduler (:meth:`MultiprocessorSystem.run`, min-heap) and
the inlined L1-hit short circuits in :meth:`Processor.step` must be pure
speedups: on any trace, the metrics snapshot has to be *bit-identical* to
the reference scan scheduler (:meth:`run_scan`) and to the full
:class:`CpuMemorySystem` call chain.  These tests throw randomized traces
— locks, barriers, block copies/zeros, both modes, all five pure schemes —
at both implementations and compare the complete snapshots.

Observers — the conformance checker, the event tracer and the timeline
recorder, which subscribe to the core's probe hooks, and a subclass
overriding ``step`` — must change no metric, alone or together.

An npz-loaded (columnar) trace must simulate, and be observed, exactly
like the built trace it was saved from.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.common.params import BASE_MACHINE, machine_for
from repro.common.types import DataClass, Mode, Op
from repro.experiments.runner import ExperimentRunner
from repro.memsys.bus import Bus
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.sink import Probe
from repro.memsys.states import LineState
from repro.sim.config import all_configs, resolve_config, standard_configs
from repro.sim.metrics import MissTracker
from repro.sim.processor import Processor
from repro.sim.system import MultiprocessorSystem
from repro.synthetic.profiles import generate as generate_profile
from repro.synthetic.workloads import WORKLOAD_ORDER
from repro.trace import npzio, record
from repro.trace.columns import FIELDS
from repro.trace.stream import TraceBuilder

PURE_SCHEMES = ["Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma"]

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


def _slow_path_id(scheme, seed, machine):
    point = (str(seed) if machine is BASE_MACHINE
             else f"{machine_id(machine)}-{seed}")
    return point if scheme == "Base" else f"{scheme}-{point}"


class TestL1FastPathEquivalence:
    @pytest.mark.parametrize("scheme,seed,machine", [
        pytest.param(scheme, seed, machine,
                     id=_slow_path_id(scheme, seed, machine))
        for scheme in ("Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref")
        for machine in MACHINES for seed in (11, 12)])
    def test_forced_slow_path_matches(self, scheme, seed, machine):
        """Disabling the inline L1-hit and clean-write paths must not
        change any metric.

        The processor resolves nothing inline while a probe is attached;
        a bare :class:`Probe` forces every read down the full
        :meth:`CpuMemorySystem.read` chain and every write through
        :meth:`CpuMemorySystem.write`, so hit accounting (and, on
        set-associative machines, LRU promotion) of the two paths is
        compared across a whole randomized run.  Under Blk_Pref and
        Blk_ByPref the block-copy reads of the source line the lookahead
        prefetcher last handled are among the inline hits.
        """
        config = resolve_config(scheme, machine)
        trace = random_trace(seed, num_cpus=3)
        fast = MultiprocessorSystem(trace, config).run().snapshot()
        slow_sys = MultiprocessorSystem(trace, config)
        slow_sys.attach(Probe())
        slow = slow_sys.run().snapshot()
        assert fast == slow

    def test_fused_write_matches_unfused_drain(self):
        """The fused owned-L2 drain in ``write`` must match the unfused
        reference drain result-for-result, on every machine point, down
        to the frame index and LRU ranks."""
        for machine in MACHINES:
            def rig(cls):
                bus = Bus(machine.bus)
                controller = CoherenceController(machine, bus)
                return [cls(machine, bus, controller, MissTracker())
                        for _ in range(2)]

            fused, unfused = rig(CpuMemorySystem), rig(_UnfusedMemorySystem)
            rng = random.Random(42)
            t = 0
            for _ in range(300):
                cpu = rng.randrange(2)
                # 64 KB strides share a set in the L1D and the L2 on
                # every machine point, so both evict (by LRU when
                # set-associative).
                addr = (SHARED_BASE + 0x10000 * rng.randrange(16)
                        + 4 * rng.randrange(32))
                assert fused[cpu].write(addr, t) == \
                    unfused[cpu].write(addr, t), machine_id(machine)
                t += rng.randrange(4)
            for f, u in zip(fused, unfused):
                for cache in ("l1d", "l2"):
                    a, b = getattr(f, cache), getattr(u, cache)
                    assert a.tags == b.tags, (machine_id(machine), cache)
                    assert a.where == b.where, (machine_id(machine), cache)
                    assert a.ranks == b.ranks, (machine_id(machine), cache)
                assert f.l2.states == u.l2.states, machine_id(machine)
                assert f.wb1.stall_cycles == u.wb1.stall_cycles

    @pytest.mark.parametrize("machine", MACHINES, ids=machine_id)
    def test_inline_clean_write_matches_hierarchy(self, machine):
        """A write ``Processor.step`` resolves inline — an L1D hit on a
        line the L2 owns, with WB1 room — must leave the caches and WB1
        exactly as :meth:`CpuMemorySystem.write` would: same frame
        index, LRU ranks and MESI states, same WB1 entries, service end
        and counters, same clock.

        The twin rig's processors see a zero-depth WB1, so their inline
        test never passes and every write goes through ``write``.  Two
        CPUs read and write a pool whose aliases, 64 KB apart, share a
        set in the L1D and the L2 on every machine point, so lines are
        owned, shared, evicted and invalidated, and bursts of writes
        fill WB1.  Both rigs step the CPUs in the same order and are
        compared after every step.
        """
        rng = random.Random(31)
        builder = TraceBuilder(2)
        for cpu in range(2):
            for _ in range(500):
                own = cpu * 0x40 if rng.random() < 0.8 else 0x80
                addr = (SHARED_BASE + own + 4 * rng.randrange(16)
                        + 0x10000 * rng.choice((0, 0, 0, 0, 1, 2)))
                emit = record.write if rng.random() < 0.7 else record.read
                builder.emit(cpu, emit(addr, pc=0x1000,
                                       icount=rng.choice((1, 1, 2, 6))))
        trace = builder.build()
        config = resolve_config("Base", machine)
        fast_sys = MultiprocessorSystem(trace, config)
        slow_sys = MultiprocessorSystem(trace, config)
        calls = {}
        for name, system in (("fast", fast_sys), ("slow", slow_sys)):
            calls[name] = _count_writes(system.memories)
        for proc in slow_sys.processors:
            proc._wb1_depth = 0
        for pos in range(500):
            for fast, slow in zip(fast_sys.processors, slow_sys.processors):
                fast.step()
                slow.step()
                assert fast.time == slow.time, (fast.cpu_id, pos)
                a, b = fast.mem, slow.mem
                for cache in ("l1d", "l2"):
                    x, y = getattr(a, cache), getattr(b, cache)
                    assert x.tags == y.tags, (cache, fast.cpu_id, pos)
                    assert x.where == y.where, (cache, fast.cpu_id, pos)
                    assert x.ranks == y.ranks, (cache, fast.cpu_id, pos)
                assert a.l2.states == b.l2.states, (fast.cpu_id, pos)
                for wb in ("wb1", "wb2"):
                    x, y = getattr(a, wb), getattr(b, wb)
                    assert list(x._entries) == list(y._entries), (wb, pos)
                    assert (x.last_service_end, x.enqueues, x.overflows,
                            x.stall_cycles) == \
                        (y.last_service_end, y.enqueues, y.overflows,
                         y.stall_cycles), (wb, fast.cpu_id, pos)
        writes = sum(trace.columns[cpu].ops.tolist().count(int(Op.WRITE))
                     for cpu in range(2))
        assert calls["slow"][0] == writes
        # Most writes are clean and resolved inline; the rest (misses,
        # shared lines, a full WB1) still reach ``write``.
        assert writes - calls["fast"][0] > 250, (writes, calls)
        assert calls["fast"][0] > 100
        assert fast_sys.metrics.snapshot() == slow_sys.metrics.snapshot()

    @pytest.mark.parametrize("machine", MACHINES, ids=machine_id)
    def test_inline_spanning_ifetch_matches_hierarchy(self, machine):
        """A fetch ``Processor.step`` resolves inline — every L1I line it
        spans resident — must match :meth:`CpuMemorySystem.ifetch`
        result for result: same stall, same frame index, same LRU
        ranks, same L2 states.

        The twin rig's processor gets an empty L1I index, so its inline
        probe never succeeds and every fetch goes through ``ifetch``.
        Fetches span 1-4 lines from a pool whose aliases, 16 KB apart,
        share a set on every machine point and evict each other.  The
        L1I ranks are compared after every step.

        The trace opens on a cold cache: a span is fetched and then found
        resident (remembered), an alias of its set misses into an empty
        way, and the span is fetched again.  On a set-associative L1I the
        miss removed no line but demoted the remembered one, so the
        refetch must walk and promote it; a memo that outlived the miss
        would leave the ranks behind the hierarchy's.
        """
        line_bytes = machine.l1i.line_bytes
        rng = random.Random(23)
        builder = TraceBuilder(1)
        home = 0x1000
        for alias in range(1, 5):
            for pc in (home, home, home + 0x4000 * alias, home):
                builder.emit(0, record.read(0x80000, pc=pc, icount=1))
        for _ in range(600):
            span = rng.randint(1, 4)
            pc = (0x1000 + line_bytes * rng.randrange(24)
                  + 0x4000 * rng.choice((0, 0, 0, 0, 1, 2, 3, 4))
                  + 4 * rng.randrange(line_bytes // 4))
            room = span * line_bytes - pc % line_bytes
            icount = rng.randint(max(1, room // 4 - line_bytes // 4 + 1),
                                 room // 4)
            builder.emit(0, record.read(0x80000, pc=pc, icount=icount))
        trace = builder.build()
        config = resolve_config("Base", machine)
        fast_sys = MultiprocessorSystem(trace, config)
        slow_sys = MultiprocessorSystem(trace, config)
        fast, slow = fast_sys.processors[0], slow_sys.processors[0]
        slow._l1i_where = {}
        fast_l1i = fast.mem.l1i
        spanning_inline = partial = 0
        for pos in range(fast.num_records):
            rec = fast.record(pos)
            first = rec.pc - rec.pc % line_bytes
            lines = range(first, rec.pc + 4 * rec.icount, line_bytes)
            resident = sum(line in fast_l1i.where for line in lines)
            if resident == len(lines) > 1:
                spanning_inline += 1
            elif 0 < resident < len(lines):
                partial += 1
            before = (fast.metrics.time[rec.mode].imiss,
                      slow.metrics.time[rec.mode].imiss)
            fast.step()
            slow.step()
            assert (fast.metrics.time[rec.mode].imiss - before[0]
                    == slow.metrics.time[rec.mode].imiss - before[1]), pos
            assert fast.time == slow.time, pos
            assert fast_l1i.ranks == slow.mem.l1i.ranks, pos
        assert spanning_inline > 40 and partial > 40
        for cache in ("l1i", "l2"):
            a, b = getattr(fast.mem, cache), getattr(slow.mem, cache)
            assert a.tags == b.tags, cache
            assert a.where == b.where, cache
            assert a.ranks == b.ranks, cache
        assert fast.mem.l2.states == slow.mem.l2.states
        assert fast_sys.metrics.snapshot() == slow_sys.metrics.snapshot()


def _count_writes(memories):
    """Give each memory system a subclass whose ``write`` counts its
    calls into the returned one-element list."""
    calls = [0]

    class CountingMemorySystem(CpuMemorySystem):
        __slots__ = ()

        def write(self, addr, t):
            calls[0] += 1
            return CpuMemorySystem.write(self, addr, t)

    for mem in memories:
        mem.__class__ = CountingMemorySystem
    return calls


class _CountingIndex(dict):
    """A cache's line index that counts membership probes."""

    probes = 0

    def __contains__(self, line):
        self.probes += 1
        return dict.__contains__(self, line)


class _MovingRemovals:
    """An L1I stand-in whose removal count moves on every read, so a
    processor's fetch memo never holds and every fetch walks."""

    def __init__(self):
        self._count = 0

    @property
    def removals(self):
        self._count += 1
        return self._count


def _fetch_rig(trace, config, memo):
    """A system whose L1I indexes count probes; without *memo* its
    processors walk every fetch."""
    system = MultiprocessorSystem(trace, config)
    for proc in system.processors:
        where = _CountingIndex(proc.mem.l1i.where)
        proc.mem.l1i.where = proc._l1i_where = where
        if not memo:
            proc._l1i = _MovingRemovals()
    return system


#: The paper machine, a Figure 7 point (64-B L1D and L2 lines, so an L2
#: eviction drops four L1I lines) and a 2-way machine-axis point, where
#: a resident walk promotes its lines before the memo remembers them.
MEMO_MACHINES = [BASE_MACHINE,
                 BASE_MACHINE.with_l1d(line_bytes=64, l2_line_bytes=64),
                 machine_for(8, assoc=2)]


@pytest.mark.parametrize("machine", MEMO_MACHINES,
                         ids=["paper", "fig7-64B", "8cpu-2way"])
@pytest.mark.parametrize("scheme", ["Base", "BCPref"])
def test_fetch_memo_matches_walk(machine, scheme):
    """Skipping the walk of a fetch inside the last resident span must
    change no metric: twin systems, one with every fetch walked, give
    the same snapshot and, on the set-associative point too, the same
    L1I ranks.  The memo saves more than half the probes at all three
    points, the 2-way one included."""
    config = resolve_config(scheme, machine)
    trace = _shell_trace()
    memo = _fetch_rig(trace, config, memo=True)
    walk = _fetch_rig(trace, config, memo=False)
    assert memo.run().snapshot() == walk.run().snapshot()
    for a, b in zip(memo.processors, walk.processors):
        assert a.mem.l1i.ranks == b.mem.l1i.ranks
        assert a.mem.l1i.tags == b.mem.l1i.tags
    probes = [sum(p.mem.l1i.where.probes for p in system.processors)
              for system in (memo, walk)]
    assert probes[0] < probes[1] // 2, probes


class _UnfusedMemorySystem(CpuMemorySystem):
    """The reference write: every word takes a WB1 slot and is drained
    by one reference service, which handles owned lines itself."""

    def write(self, addr, t):
        line = self.l1d.line_addr(addr)
        if line not in self.l1d.where:
            evicted = self.l1d.fill(line)
            if evicted != -1:
                self.pending.drop(evicted)
            self.sink.l1_fill(line, evicted, self.in_blockop)
        elif self._touch_l1d is not None:
            self._touch_l1d(addr)
        insert_t, stall, start = self.wb1.admit(t)
        self.wb1.complete(start, self._reference_drain(addr, start))
        return insert_t + 1, stall

    def _reference_drain(self, addr, start):
        state = self.l2.state_of(addr)
        if state in (LineState.MODIFIED, LineState.EXCLUSIVE):
            self.l2.set_state(addr, LineState.MODIFIED)
            if self._touch_l2 is not None:
                self._touch_l2(addr)
            return start + self.machine.write_buffers.l1_drain_cycles
        return self._drain_word(addr, state, start)


#: Schemes the observer-composition test runs: plain, bypass+prefetch,
#: DMA, and an adaptive hybrid.
OBSERVED_SCHEMES = ("Base", "Blk_ByPref", "Blk_Dma", "Hyb_UpdN")


def _attach_checker(system):
    from repro.check.invariants import attach_checker
    checker = attach_checker(system)
    return lambda: checker.architectural_memory()


def _attach_tracer(system):
    from repro.obs import MissProfile, Tracer
    from repro.obs.tracer import attach_tracer
    tracer = attach_tracer(system, Tracer())

    def output():
        profile = MissProfile(tracer)
        return ([(e.name, e.cat, e.ph, e.ts, e.dur, e.lane, e.args)
                 for e in tracer.events],
                profile.render(), profile.site_kinds, profile.line_misses)
    return output


def _attach_timeline(system):
    from repro.sim.timeline import TimelineRecorder
    recorder = TimelineRecorder(system, limit=5000)
    return lambda: recorder.events


def _override_step(system):
    """Give every processor a subclass whose ``step`` counts its calls:
    the scheduler looks ``step`` up on each call, so every step of the
    run goes through the override."""
    calls = [0]

    class CountingProcessor(Processor):
        __slots__ = ()

        def step(self):
            calls[0] += 1
            return Processor.step(self)

    for proc in system.processors:
        proc.__class__ = CountingProcessor

    def output():
        assert calls[0] > 0
        return calls[0]
    return output


OBSERVERS = {"checker": _attach_checker, "tracer": _attach_tracer,
             "timeline": _attach_timeline, "step": _override_step}

#: Every non-empty subset of the three subscribers, in both orders, plus
#: the overridden ``step``.
COMBOS = ["checker", "tracer", "timeline", "step",
          "checker+tracer", "tracer+checker",
          "checker+timeline", "timeline+checker",
          "tracer+timeline", "timeline+tracer",
          "checker+tracer+timeline", "timeline+tracer+checker"]


@lru_cache(maxsize=None)
def _shell_trace():
    return generate_profile("Shell", seed=7, scale=0.08)


@lru_cache(maxsize=None)
def _composition_trace():
    return generate_profile("Shell", seed=7, scale=0.03)


def _observed(trace, scheme, names):
    system = MultiprocessorSystem(trace, all_configs()[scheme], check=False)
    outputs = [OBSERVERS[name](system) for name in names]
    snapshot = system.run().snapshot()
    return snapshot, [output() for output in outputs]


@lru_cache(maxsize=None)
def _solo(scheme, name):
    return _observed(_composition_trace(), scheme, [name])[1][0]


@lru_cache(maxsize=None)
def _plain_snapshot(scheme):
    return _observed(_composition_trace(), scheme, [])[0]


@pytest.mark.parametrize("combo", COMBOS)
def test_observer_changes_no_metric(combo):
    """Observers subscribe to the core's probe hooks; no combination, in
    either attachment order, may change a metric of the run it observes
    or what any one observer sees alone."""
    names = combo.split("+")
    for scheme in OBSERVED_SCHEMES:
        snapshot, outputs = _observed(_composition_trace(), scheme, names)
        assert snapshot == _plain_snapshot(scheme), scheme
        for name, output in zip(names, outputs):
            assert output == _solo(scheme, name), (scheme, name)


# ----------------------------------------------------------------------
# Columnar processor streams: an npz-loaded trace must simulate exactly
# like the built trace it was saved from.
# ----------------------------------------------------------------------

#: The paper grid's four workloads, plus one machine-axis workload on an
#: 8-CPU set-associative point.
COLUMNAR_CELLS = ([(w, "4cpu-1way-8B") for w in WORKLOAD_ORDER]
                  + [("gen:server:c8:i060:steady:0:0", "8cpu-2way-16B")])


def _npz_copy(trace, tmp_path):
    path = str(tmp_path / "t.npz")
    npzio.save(trace, path)
    return npzio.load(path)


@pytest.mark.parametrize("workload,machine", COLUMNAR_CELLS,
                         ids=[w for w, _ in COLUMNAR_CELLS])
def test_columnar_trace_simulates_like_built(tmp_path, workload, machine):
    """Every scheme — DMA, bypass, prefetch, lock and barrier paths — on
    the raw, privatized and prefetched traces: the runner that generated
    the traces simulates the built objects, a second runner on the same
    artifact cache loads every trace from npz."""
    from repro.analysis.tables import MACHINE_POINTS, machine_point
    from repro.experiments.artifacts import ArtifactCache

    point = {label: rest for label, *rest in MACHINE_POINTS}[machine]

    def runner():
        return ExperimentRunner(scale=0.05, seed=1996,
                                machine=machine_point(*point),
                                cache=ArtifactCache(str(tmp_path)))

    built, loaded = runner(), runner()
    for scheme in all_configs():
        expected = built.run(workload, scheme).snapshot()
        assert loaded.run(workload, scheme).snapshot() == expected, scheme


@pytest.mark.parametrize("form", ["built", "npz"])
def test_processor_record_matches_source(tmp_path, form):
    source = random_trace(5, num_cpus=3)
    trace = source if form == "built" else _npz_copy(source, tmp_path)
    system = MultiprocessorSystem(trace, standard_configs()["Base"])
    for cpu, proc in enumerate(system.processors):
        records = source.records(cpu)
        assert proc.num_records == len(records)
        for pos, expected in enumerate(records):
            got = proc.record(pos)
            assert [(type(getattr(got, f)), getattr(got, f))
                    for f in FIELDS] == \
                [(type(getattr(expected, f)), getattr(expected, f))
                 for f in FIELDS], (cpu, pos)


def _observed_run(trace):
    from repro.obs import MissProfile, Tracer
    from repro.obs.tracer import attach_tracer
    from repro.sim.timeline import TimelineRecorder

    system = MultiprocessorSystem(trace, standard_configs()["Blk_ByPref"],
                                  check=True)
    tracer = Tracer()
    attach_tracer(system, tracer)
    timeline = TimelineRecorder(system, limit=5000)
    snapshot = timeline.run().snapshot()
    profile = MissProfile(tracer)
    return (snapshot, profile.render(), profile.site_kinds,
            profile.line_misses,
            [(e.name, e.cat, e.ts, e.dur, e.lane, e.args)
             for e in tracer.events],
            timeline.events)


def test_observers_see_the_same_run_on_either_form(tmp_path):
    """Checker, tracer and timeline read records through
    ``Processor.record``; on an npz trace they must observe exactly what
    they observe on the built one (the checker raising on any failure)."""
    built = _observed_run(_shell_trace())
    loaded = _observed_run(_npz_copy(_shell_trace(), tmp_path))
    assert loaded == built
    assert built[4] and built[5]
