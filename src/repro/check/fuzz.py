"""Seeded adversarial trace generation, differential runs, and shrinking.

The generator builds small multiprocessor traces that concentrate on the
protocol corners where coherence bugs hide: tight sharing and false
sharing inside one L2 line, Firefly update pages, block operations (with
word-, bypass- and DMA-level execution, sometimes landing on update
pages), lock critical sections and global barriers.

Traces are generated from *events* — one high-level action each — and a
failing case is shrunk at the event level: removing an event always
leaves a structurally valid trace (locks stay balanced, barriers stay
grouped across CPUs, block operations stay bracketed), so the shrinker
never wastes runs on traces the validator rejects.  The result of a
shrink is saved through :mod:`repro.trace.textio` with enough metadata
(configuration, Firefly pages, active mutant) for
``python -m repro.check --replay <file>`` to reproduce it byte-for-byte.

Address map (disjoint regions keep the failure modes separable):

=================  ====================================================
``0x010000``       instruction addresses (per-CPU 4 KiB slices)
``0x040000``       shared words — 3 L2 lines, true *and* false sharing
``0x080000``       per-CPU private words (64 KiB slices)
``0x200000``       per-CPU block-op source regions
``0x300000``       per-CPU block-op destination regions
``0x500000``       the Firefly update page: shared words in the first
                   half, per-CPU block-op destination slices in the rest
``0x600000``       lock words;  ``0x610000`` the barrier word
=================  ====================================================
"""

from __future__ import annotations

import contextlib
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConformanceError
from repro.common.params import machine_for
from repro.check.mutants import MUTANTS
from repro.sim.config import all_configs
from repro.trace import record as rec
from repro.trace import textio
from repro.trace.stream import Trace, TraceBuilder

WORD = 4

PC_BASE = 0x010000
SHARED_BASE = 0x040000
PRIVATE_BASE = 0x080000
BLOCK_SRC_BASE = 0x200000
BLOCK_DST_BASE = 0x300000
#: Block-op destination region shared by ALL CPUs — only used on racy
#: rounds, where overlapping block ops race their store registers / DMA
#: transfers on the same lines (bypassed writes commit at flush time, a
#: class of bug only cross-CPU dst contention exposes).
SHARED_DST_BASE = 0x380000
UPDATE_PAGE = 0x500000
LOCK_BASE = 0x600000
BARRIER_ADDR = 0x610000

#: Shared words under test: 24 words spanning three 32-byte L2 lines, so
#: distinct CPUs contend both for the same word and for neighbours in the
#: same line (false sharing).
SHARED_WORDS = 24
UPDATE_WORDS = 8
PRIVATE_WORDS = 16
NUM_LOCKS = 2

#: Metadata keys a saved failure carries for replay.
META_CONFIG = "check_config"
META_UPDATE_PAGES = "check_update_pages"
META_MUTANT = "check_mutant"
META_SEED = "check_seed"


def fuzz_configs() -> List[str]:
    """Configuration names the fuzzer sweeps (every registered scheme)."""
    return list(all_configs())


def sync_words() -> List[int]:
    """Lock/barrier addresses — excluded from cross-scheme memory diffs.

    Their final values depend on which CPU's read-modify-write commits
    last, which is timing- (hence scheme-) dependent even on otherwise
    race-free traces.
    """
    return [LOCK_BASE + i * 64 for i in range(NUM_LOCKS)] + [BARRIER_ADDR]


class FuzzCase:
    """One generated scenario: per-CPU event lists plus its provenance."""

    __slots__ = ("num_cpus", "events", "seed", "race_free")

    def __init__(self, num_cpus: int, events: List[List[tuple]],
                 seed: int, race_free: bool) -> None:
        self.num_cpus = num_cpus
        self.events = events
        self.seed = seed
        self.race_free = race_free

    def __len__(self) -> int:
        return sum(len(evs) for evs in self.events)

    def replaced(self, events: List[List[tuple]]) -> "FuzzCase":
        return FuzzCase(self.num_cpus, events, self.seed, self.race_free)


# ======================================================================
# Generation
# ======================================================================
def generate_case(seed: int, num_cpus: int = 4, length: int = 24,
                  race_free: bool = True) -> FuzzCase:
    """Build one adversarial case from *seed*, reproducibly.

    ``race_free`` restricts every data word to a single writing CPU, which
    makes the final architectural memory scheme-independent (the property
    the differential test needs); racy cases exercise the oracle under
    genuine contention instead.
    """
    rng = random.Random(seed)
    shared = [SHARED_BASE + i * WORD for i in range(SHARED_WORDS)]
    update = [UPDATE_PAGE + i * WORD for i in range(UPDATE_WORDS)]
    writer = {w: rng.randrange(num_cpus) for w in shared + update}
    locks = [LOCK_BASE + i * 64 for i in range(NUM_LOCKS)]
    events: List[List[tuple]] = [[] for _ in range(num_cpus)]

    def pc_for(cpu: int) -> int:
        return PC_BASE + cpu * 0x1000 + rng.randrange(64) * 16

    def my_words(cpu: int, pool: List[int]) -> List[int]:
        if not race_free:
            return pool
        mine = [w for w in pool if writer[w] == cpu]
        return mine or pool[:1]  # degenerate seeds: fall back, still racy-safe for reads

    for cpu in range(num_cpus):
        private = [PRIVATE_BASE + cpu * 0x10000 + i * WORD
                   for i in range(PRIVATE_WORDS)]
        src_base = BLOCK_SRC_BASE + cpu * 0x40000
        dst_base = BLOCK_DST_BASE + cpu * 0x40000
        update_dst = UPDATE_PAGE + 2048 + cpu * 256
        for _ in range(length):
            roll = rng.random()
            pc = pc_for(cpu)
            if roll < 0.28:
                events[cpu].append(("read", rng.choice(shared), pc))
            elif roll < 0.44:
                pool = my_words(cpu, shared)
                if race_free and writer[pool[0]] != cpu:
                    events[cpu].append(("read", pool[0], pc))
                else:
                    events[cpu].append(("write", rng.choice(pool), pc))
            elif roll < 0.56:
                addr = rng.choice(private)
                kind = "write" if rng.random() < 0.5 else "read"
                events[cpu].append((kind, addr, pc))
            elif roll < 0.62:
                events[cpu].append(("read", rng.choice(update), pc))
            elif roll < 0.70:
                pool = my_words(cpu, update)
                if race_free and writer[pool[0]] != cpu:
                    events[cpu].append(("read", pool[0], pc))
                else:
                    events[cpu].append(("write", rng.choice(pool), pc))
            elif roll < 0.80:
                size = rng.choice((16, 32, 48, 64, 96, 128))
                src = src_base + rng.randrange(4) * 128
                roll2 = rng.random()
                if roll2 < 0.25:
                    dst = update_dst
                    size = min(size, 64)
                elif not race_free and roll2 < 0.55:
                    dst = SHARED_DST_BASE + rng.randrange(4) * 128
                else:
                    dst = dst_base + rng.randrange(4) * 128
                if rng.random() < 0.5:
                    # Dirty a source line first, so DMA/cache-supply
                    # snooping on the source path is actually exercised.
                    events[cpu].append(("write", src + rng.randrange(4) * WORD,
                                        pc_for(cpu)))
                events[cpu].append(("copy", src, dst, size, pc))
            elif roll < 0.86:
                size = rng.choice((16, 32, 64, 128))
                roll2 = rng.random()
                if roll2 < 0.25:
                    dst, size = update_dst, min(size, 64)
                elif not race_free and roll2 < 0.55:
                    dst = SHARED_DST_BASE + rng.randrange(4) * 128
                else:
                    dst = dst_base + rng.randrange(4) * 128
                events[cpu].append(("zero", dst, size, pc))
            elif roll < 0.93:
                lock = rng.choice(locks)
                inner = []
                pool = my_words(cpu, shared)
                for _ in range(rng.randint(1, 3)):
                    w = rng.choice(pool)
                    if race_free and writer[w] != cpu:
                        inner.append(("read", w, pc_for(cpu)))
                    else:
                        inner.append((rng.choice(("read", "write")), w,
                                      pc_for(cpu)))
                events[cpu].append(("lock", lock, pc, tuple(inner)))
            else:
                events[cpu].append(("pref", rng.choice(shared), pc))
    for _ in range(rng.randint(0, 2)):
        for cpu in range(num_cpus):
            pos = rng.randrange(len(events[cpu]) + 1)
            events[cpu].insert(pos, ("barrier", BARRIER_ADDR, pc_for(cpu)))
    return FuzzCase(num_cpus, events, seed, race_free)


def build_trace(case: FuzzCase) -> Trace:
    """Expand a case's events into a validated :class:`Trace`."""
    builder = TraceBuilder(case.num_cpus)
    for cpu, evs in enumerate(case.events):
        for ev in evs:
            _emit(builder, cpu, ev)
    trace = builder.build(validate=True)
    trace.metadata[META_SEED] = case.seed
    return trace


def _emit(builder: TraceBuilder, cpu: int, ev: tuple) -> None:
    kind = ev[0]
    if kind == "read":
        builder.emit(cpu, rec.read(ev[1], pc=ev[2], icount=2))
    elif kind == "write":
        builder.emit(cpu, rec.write(ev[1], pc=ev[2], icount=2))
    elif kind == "pref":
        builder.emit(cpu, rec.prefetch(ev[1], pc=ev[2]))
    elif kind == "copy":
        builder.emit_block_copy(cpu, ev[1], ev[2], ev[3], pc=ev[4])
    elif kind == "zero":
        builder.emit_block_zero(cpu, ev[1], ev[2], pc=ev[3])
    elif kind == "lock":
        builder.emit(cpu, rec.lock_acquire(ev[1], pc=ev[2]))
        for inner in ev[3]:
            _emit(builder, cpu, inner)
        builder.emit(cpu, rec.lock_release(ev[1], pc=ev[2]))
    elif kind == "barrier":
        builder.emit(cpu, rec.barrier(ev[1], builder.num_cpus,
                                      pc=ev[2]))
    else:  # pragma: no cover - generator and emitter move in lockstep
        raise ValueError(f"unknown fuzz event {kind!r}")


# ======================================================================
# Execution
# ======================================================================
class CaseResult:
    """Outcome of one checked simulation."""

    __slots__ = ("error", "memory", "accesses")

    def __init__(self, error: Optional[ConformanceError],
                 memory: Optional[Dict[int, object]],
                 accesses: int) -> None:
        self.error = error
        self.memory = memory
        self.accesses = accesses

    @property
    def ok(self) -> bool:
        return self.error is None


def run_trace(trace: Trace, config_name: str, *,
              mutant_name: str = "") -> CaseResult:
    """Simulate *trace* under *config_name* with the checker armed."""
    from repro.sim.system import MultiprocessorSystem
    config = all_configs()[config_name]
    ctx = (MUTANTS[mutant_name][0]() if mutant_name
           else contextlib.nullcontext())
    with ctx:
        system = MultiprocessorSystem(trace, config,
                                      update_pages=[UPDATE_PAGE],
                                      check=True)
        try:
            system.run()
        except ConformanceError as err:
            return CaseResult(err, None, system.checker.accesses_checked)
        memory = system.checker.architectural_memory(exclude=sync_words())
        return CaseResult(None, memory, system.checker.accesses_checked)


def run_case(case: FuzzCase, config_name: str, *,
             mutant_name: str = "") -> CaseResult:
    return run_trace(build_trace(case), config_name,
                     mutant_name=mutant_name)


# ======================================================================
# Fuzz loop
# ======================================================================
class FuzzFailure:
    """One detected violation, with everything needed to reproduce it."""

    __slots__ = ("case", "config_name", "mutant_name", "error")

    def __init__(self, case: FuzzCase, config_name: str, mutant_name: str,
                 error: ConformanceError) -> None:
        self.case = case
        self.config_name = config_name
        self.mutant_name = mutant_name
        self.error = error


def fuzz_round(seed: int, configs: Optional[List[str]] = None,
               num_cpus: int = 4, length: int = 24) -> Optional[FuzzFailure]:
    """One round: every scheme runs the same case; race-free rounds also
    diff each scheme's final architectural memory against Base."""
    configs = configs or fuzz_configs()
    race_free = seed % 2 == 0
    case = generate_case(seed, num_cpus=num_cpus, length=length,
                         race_free=race_free)
    memories: Dict[str, Dict[int, object]] = {}
    for name in configs:
        result = run_case(case, name)
        if result.error is not None:
            return FuzzFailure(case, name, "", result.error)
        memories[name] = result.memory
    if race_free and "Base" in memories:
        base = memories["Base"]
        for name, memory in memories.items():
            if memory != base:
                diff = sorted(set(base) ^ set(memory)
                              | {w for w in set(base) & set(memory)
                                 if base[w] != memory[w]})
                err = ConformanceError(
                    f"differential: {name} final memory diverges from Base "
                    f"at {[hex(w) for w in diff[:8]]}",
                    kind="differential", details={"config": name})
                return FuzzFailure(case, name, "", err)
    return None


def run_fuzz(rounds: int, seed: int, configs: Optional[List[str]] = None,
             num_cpus: int = 4, length: int = 24,
             progress: Optional[Callable[[int], None]] = None,
             ) -> Optional[FuzzFailure]:
    """Run *rounds* fuzz rounds; returns the first failure, if any."""
    for i in range(rounds):
        failure = fuzz_round(seed + i, configs, num_cpus, length)
        if failure is not None:
            return failure
        if progress is not None:
            progress(i + 1)
    return None


# ======================================================================
# Profile-driven fuzzing: generated synthetic workloads
# ======================================================================
class ProfileFailure:
    """A conformance violation on a generated workload.

    Carries the self-describing workload name (enough to regenerate the
    trace from scratch) plus the trace that failed, for saving.
    """

    __slots__ = ("workload_name", "config_name", "error", "trace")

    def __init__(self, workload_name: str, config_name: str,
                 error: ConformanceError, trace: Trace) -> None:
        self.workload_name = workload_name
        self.config_name = config_name
        self.error = error
        self.trace = trace


def run_workload_trace(trace: Trace, config_name: str) -> CaseResult:
    """Checked simulation of a synthetic-workload trace.

    Unlike :func:`run_trace` the Firefly update pages come from the
    kernel layout (the SYNC_PAGE holding barriers, locks and the shared
    core), and the machine widens to the trace's CPU count.  No final
    architectural memory is collected: generated workloads contain
    genuine data races, so cross-scheme memory diffs do not apply — the
    oracle and invariant checker run throughout instead.
    """
    from repro.sim.system import MultiprocessorSystem
    from repro.synthetic.layout import SYNC_PAGE
    machine = machine_for(trace.num_cpus)
    config = all_configs(machine)[config_name]
    system = MultiprocessorSystem(trace, config, update_pages=[SYNC_PAGE],
                                  check=True)
    try:
        system.run()
    except ConformanceError as err:
        return CaseResult(err, None, system.checker.accesses_checked)
    return CaseResult(None, None, system.checker.accesses_checked)


def run_profile_fuzz(samples: int, seed: int = 0,
                     configs: Optional[List[str]] = None,
                     scale: float = 0.04,
                     families: Optional[List[str]] = None,
                     progress: Optional[Callable[[int, str], None]] = None,
                     ) -> Optional[ProfileFailure]:
    """Sample *samples* generated workloads; run each under every scheme.

    Workloads come from :func:`repro.synthetic.generator.sample` —
    coverage-first over (family, intensity, pattern) points — and each
    trace runs under all *configs* with the oracle + invariant checker
    armed.  Returns the first failure, if any.
    """
    from repro.synthetic import generator
    from repro.synthetic.layout import SYNC_PAGE
    configs = configs or fuzz_configs()
    workloads = generator.sample(samples, seed=seed, families=families)
    for i, workload in enumerate(workloads):
        trace = workload.generate(scale=scale)
        for config_name in configs:
            result = run_workload_trace(trace, config_name)
            if result.error is not None:
                trace.metadata[META_CONFIG] = config_name
                trace.metadata[META_UPDATE_PAGES] = [SYNC_PAGE]
                return ProfileFailure(workload.name, config_name,
                                      result.error, trace)
        if progress is not None:
            progress(i + 1, workload.name)
    return None


def save_profile_failure(failure: ProfileFailure, path: str) -> None:
    """Serialize the failing workload trace for ``--replay``."""
    with open(path, "w") as fp:
        textio.dump(failure.trace, fp)


# ======================================================================
# Shrinking
# ======================================================================
def _candidates(case: FuzzCase) -> Iterator[tuple]:
    """Removal/reduction candidates, safest-order for one greedy pass.

    Descending indices, so earlier candidates stay valid after a removal
    is accepted mid-pass.
    """
    barrier_counts = [sum(1 for ev in evs if ev[0] == "barrier")
                      for evs in case.events]
    for k in range(min(barrier_counts) - 1, -1, -1):
        yield ("bar", k)
    for cpu, evs in enumerate(case.events):
        for idx in range(len(evs) - 1, -1, -1):
            ev = evs[idx]
            if ev[0] == "barrier":
                continue
            yield ("ev", cpu, idx)
            if ev[0] == "lock":
                for j in range(len(ev[3]) - 1, -1, -1):
                    yield ("inner", cpu, idx, j)
            elif ev[0] in ("copy", "zero") and ev[-2] > 2 * WORD:
                yield ("half", cpu, idx)


def _apply(case: FuzzCase, cand: tuple) -> Optional[FuzzCase]:
    events = [list(evs) for evs in case.events]
    kind = cand[0]
    if kind == "bar":
        k = cand[1]
        for evs in events:
            seen = 0
            for idx, ev in enumerate(evs):
                if ev[0] == "barrier":
                    if seen == k:
                        del evs[idx]
                        break
                    seen += 1
            else:
                return None
    elif kind == "ev":
        _, cpu, idx = cand
        if idx >= len(events[cpu]) or events[cpu][idx][0] == "barrier":
            return None
        del events[cpu][idx]
    elif kind == "inner":
        _, cpu, idx, j = cand
        if idx >= len(events[cpu]):
            return None
        ev = events[cpu][idx]
        if ev[0] != "lock" or j >= len(ev[3]):
            return None
        inner = list(ev[3])
        del inner[j]
        events[cpu][idx] = ("lock", ev[1], ev[2], tuple(inner))
    elif kind == "half":
        _, cpu, idx = cand
        if idx >= len(events[cpu]):
            return None
        ev = events[cpu][idx]
        if ev[0] == "copy":
            size = max(WORD, (ev[3] // 2) - (ev[3] // 2) % WORD)
            if size == ev[3]:
                return None
            events[cpu][idx] = ("copy", ev[1], ev[2], size, ev[4])
        elif ev[0] == "zero":
            size = max(WORD, (ev[2] // 2) - (ev[2] // 2) % WORD)
            if size == ev[2]:
                return None
            events[cpu][idx] = ("zero", ev[1], size, ev[3])
        else:
            return None
    return case.replaced(events)


def shrink_case(case: FuzzCase,
                still_fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    """Greedy event-level ddmin: at fixpoint, removing any single event
    (or halving any block op) makes the failure disappear."""
    progress = True
    while progress:
        progress = False
        for cand in _candidates(case):
            reduced = _apply(case, cand)
            if reduced is None:
                continue
            try:
                if still_fails(reduced):
                    case = reduced
                    progress = True
            except Exception:
                continue  # reduction broke the trace some other way
    return case


def shrink_failure(failure: FuzzFailure) -> FuzzCase:
    """Shrink a recorded failure to a minimal reproducing case."""
    kind = failure.error.kind

    def still_fails(case: FuzzCase) -> bool:
        if kind == "differential":
            base = run_case(case, "Base")
            other = run_case(case, failure.config_name)
            if base.error is not None or other.error is not None:
                return False
            return base.memory != other.memory
        result = run_case(case, failure.config_name,
                          mutant_name=failure.mutant_name)
        return result.error is not None and result.error.kind == kind

    return shrink_case(failure.case, still_fails)


# ======================================================================
# Persistence / replay
# ======================================================================
def save_failure(failure: FuzzFailure, case: FuzzCase, path: str) -> None:
    """Serialize the (shrunk) case so ``--replay`` reproduces it."""
    trace = build_trace(case)
    trace.metadata[META_CONFIG] = failure.config_name
    trace.metadata[META_UPDATE_PAGES] = [UPDATE_PAGE]
    if failure.mutant_name:
        trace.metadata[META_MUTANT] = failure.mutant_name
    with open(path, "w") as fp:
        textio.dump(trace, fp)


def replay(path: str) -> CaseResult:
    """Re-run a saved failing trace exactly as it was recorded."""
    from repro.sim.system import MultiprocessorSystem
    with open(path) as fp:
        trace = textio.load(fp)
    config_name = str(trace.metadata.get(META_CONFIG, "Base"))
    mutant_name = str(trace.metadata.get(META_MUTANT, ""))
    pages = trace.metadata.get(META_UPDATE_PAGES, [UPDATE_PAGE])
    config = all_configs(machine_for(trace.num_cpus))[config_name]
    ctx = (MUTANTS[mutant_name][0]() if mutant_name
           else contextlib.nullcontext())
    with ctx:
        system = MultiprocessorSystem(trace, config,
                                      update_pages=[int(p) for p in pages],
                                      check=True)
        try:
            system.run()
        except ConformanceError as err:
            return CaseResult(err, None, system.checker.accesses_checked)
        memory = system.checker.architectural_memory(exclude=sync_words())
        return CaseResult(None, memory, system.checker.accesses_checked)
