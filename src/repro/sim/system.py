"""The multiprocessor system: wiring and the time-ordered scheduling loop.

A :class:`MultiprocessorSystem` builds the shared bus, the coherence
controller, one :class:`~repro.memsys.hierarchy.CpuMemorySystem` and
:class:`~repro.sim.processor.Processor` per CPU, and runs all trace streams
to completion.  Scheduling always advances the runnable processor with the
smallest local clock, which keeps bus reservations in approximately global
time order and preserves the mutual exclusion of the traced critical
sections.

:meth:`MultiprocessorSystem.run` keeps the runnable set in a binary heap of
integer keys, ``time << _KEY_SHIFT | cpu_id``, where the shift is wide
enough for every CPU id up to :data:`~repro.common.params.MAX_CPUS`, so
keys order exactly as ``(time, cpu_id)`` pairs and ties break on the
lower ``cpu_id``, the scan's first-minimum choice.  The heap invariant
is strict: **every RUNNING processor has exactly one key, replaced
immediately after its clock last changed** — the loop resumes the
processor at ``heap[0]`` in place and then replaces its key
(``heapq.heapreplace``) if it still runs or pops it if it waits at a
barrier or is done, so a processor is out of the heap precisely while
it waits at a barrier or is done, with no stale keys and no lazy
deletion.

Each resumption is a *burst*: the scheduler sends the processor's
record loop (:meth:`Processor.steps
<repro.sim.processor.Processor.steps>`, a generator whose ``send``
method it looks up once per run) the clock limit at which its key would
no longer be the least — ``nt + 1`` when the next least key is
``(nt, ncpu)`` with ``cpu < ncpu``, else ``nt`` — and the loop retires
records until its clock reaches that limit or its status changes.
Nothing but the running processor moves a key during a burst, so the
heap would have picked the same processor for each of those records:
the record order, and every snapshot, is the per-record heap's.  With a
probe attached every burst is one record, and the probe's ``step`` hook
sees each.

:meth:`run_scan` preserves the original scan-based loop as an executable
reference; the equivalence tests run both over randomized traces and
require bit-identical metrics snapshots.
"""

from __future__ import annotations

import heapq
import os
from typing import Iterable, List, Optional

from repro.check import REPRO_CHECK_ENV
from repro.common.errors import DeadlockError, SimulationError
from repro.common.params import MAX_CPUS
from repro.memsys.bus import Bus
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.sink import Probe, ProbeFanout
from repro.sim.config import SystemConfig
from repro.sim.metrics import SystemMetrics
from repro.sim.processor import (RUNNING_RESULT, SPIN_QUANTUM, ProcStatus,
                                 Processor)
from repro.sim.sync import BarrierManager, LockTable
from repro.trace.stream import Trace

#: Consecutive failed lock retries after which we declare deadlock.
MAX_SPIN_RETRIES = 1_000_000

#: A heap key is ``time << _KEY_SHIFT | cpu_id``: wide enough for every
#: CPU id a machine may have, so keys order as ``(time, cpu_id)`` pairs.
_KEY_SHIFT = (MAX_CPUS - 1).bit_length()
_CPU_MASK = (1 << _KEY_SHIFT) - 1

#: The key above every CPU's, at a clock no run reaches.
_END_KEY = (1 << 62 << _KEY_SHIFT) | _CPU_MASK

# Enum members bound once: a class-attribute load off an enum is slow.
_RUNNING = ProcStatus.RUNNING
_BLOCKED_LOCK = ProcStatus.BLOCKED_LOCK
_WAITING_BARRIER = ProcStatus.WAITING_BARRIER
_DONE = ProcStatus.DONE


class MultiprocessorSystem:
    """One simulated machine running one trace under one configuration."""

    def __init__(self, trace: Trace, config: SystemConfig,
                 update_pages: Optional[Iterable[int]] = None,
                 hotspot_pcs: Optional[Iterable[int]] = None,
                 check: Optional[bool] = None) -> None:
        if trace.num_cpus > config.machine.num_cpus:
            raise SimulationError(
                f"trace has {trace.num_cpus} CPUs, machine only "
                f"{config.machine.num_cpus}")
        self.trace = trace
        self.config = config
        machine = config.machine
        self.bus = Bus(machine.bus)
        self.controller = CoherenceController(machine, self.bus)
        self.metrics = SystemMetrics(trace.num_cpus, machine.page_bytes)
        if hotspot_pcs:
            self.metrics.hotspot_pcs = set(hotspot_pcs)
        if config.adaptive is not None:
            # The policy owns the whole update/invalidate decision; the
            # selected pages (``selective_update``) feed the static one.
            from repro.memsys.adaptive import build_policy
            self.controller.attach_policy(build_policy(config, update_pages))
        elif config.pure_update:
            self.controller.update_everywhere = True
        self.locks = LockTable()
        self.barriers = BarrierManager(machine.barrier_release_cycles)
        self.memories: List[CpuMemorySystem] = []
        self.processors: List[Processor] = []
        for cpu in range(trace.num_cpus):
            mem = CpuMemorySystem(machine, self.bus, self.controller,
                                  self.metrics)
            self.memories.append(mem)
            self.processors.append(
                Processor(cpu, trace, mem, self.metrics, config, self.locks,
                          self.barriers))
        #: cpu_id -> consecutive failed lock retries; a cpu only has an
        #: entry while it is actually spinning, so the common case (nobody
        #: contended recently) is an empty dict, cleared by a truth test.
        self._spin_retries: dict = {}
        #: Attached observers, in attach order (see :meth:`attach`).
        self.probes: List[Probe] = []
        #: What every component calls: None, the one attached probe, or a
        #: fan-out over several.
        self.probe: Optional[Probe] = None
        #: Conformance checker (repro.check), None unless requested via
        #: the ``check`` argument or the REPRO_CHECK environment variable.
        self.checker = None
        if check is None:
            check = os.environ.get(REPRO_CHECK_ENV, "") not in ("", "0")
        if check:
            from repro.check.invariants import attach_checker
            attach_checker(self)

    def attach(self, probe: Probe) -> None:
        """Subscribe *probe* to every hook of the core.

        Raises :class:`SimulationError` when a probe of the same type is
        already attached.  Attach before :meth:`run`.
        """
        if any(type(p) is type(probe) for p in self.probes):
            raise SimulationError(
                f"a {type(probe).__name__} is already attached")
        self.probes.append(probe)
        self._wire()

    def detach(self, probe: Probe) -> None:
        """Unsubscribe *probe*; a probe that is not attached is ignored."""
        if probe in self.probes:
            self.probes.remove(probe)
            self._wire()

    def _wire(self) -> None:
        probes = self.probes
        if not probes:
            probe = None
        elif len(probes) == 1:
            probe = probes[0]
        else:
            probe = ProbeFanout(probes)
        self.probe = probe
        self.bus.probe = probe
        self.controller.probe = probe
        for mem, proc in zip(self.memories, self.processors):
            mem.probe = probe
            proc.probe = probe

    def run(self) -> SystemMetrics:
        """Run every stream to completion; returns the filled metrics.

        Heap scheduler, one burst per resumption of the CPU at the top
        of the heap — see the module docstring.  With a probe attached
        every burst is one record, and the probe's ``step`` hook sees it.
        """
        procs = self.processors
        probe = self.probe
        running = _RUNNING
        running_result = RUNNING_RESULT
        blocked = _BLOCKED_LOCK
        shift = _KEY_SHIFT
        cpu_bits = _CPU_MASK
        end = _END_KEY
        push = heapq.heappush
        pop = heapq.heappop
        replace = heapq.heapreplace
        spin_retries = self._spin_retries
        heap = [p.time << shift | p.cpu_id for p in procs
                if p.status is running]
        # Two end keys, above every CPU's, stand in for the children a
        # small heap lacks: the least key after the root's is always the
        # lesser of heap[1] and heap[2].
        heap += (end, end)
        heapq.heapify(heap)
        # The loops' send methods, taken once.  A DONE processor drops its
        # loop; this list keeps it only until the run returns.
        resume = [None if p._gen is None else p._gen.send for p in procs]
        while heap[0] < end:
            cpu = heap[0] & cpu_bits
            proc = procs[cpu]
            if probe is None:
                # Run until this CPU's key would pass the next least key,
                # ``nxt``: to clock nt + 1 when this CPU's id is the lower
                # (it wins a tie at nt), else to nt.
                nxt = heap[1] if heap[1] < heap[2] else heap[2]
                result = resume[cpu]((nxt - cpu - 1 >> shift) + 1)
            else:
                start, pos = proc.time, proc.pos
                result = resume[cpu](0)
                probe.step(proc, start, pos, result)
            if result is running_result:
                if spin_retries:
                    spin_retries.pop(cpu, None)
                replace(heap, proc.time << shift | cpu)
                continue
            status = result.status
            if status is blocked:
                self._spin(proc, result.lock_addr, result.mode)
                replace(heap, proc.time << shift | cpu)
                continue
            if spin_retries:
                spin_retries.pop(cpu, None)
            if status is running:
                replace(heap, proc.time << shift | cpu)
            else:
                pop(heap)
            if result.barrier_release is not None:
                release, waiters = result.barrier_release
                for wcpu in waiters:
                    wproc = procs[wcpu]
                    wproc.wake_from_barrier(release)
                    push(heap, wproc.time << shift | wcpu)
        if not all(p.status is _DONE for p in procs):
            waiting = [p.cpu_id for p in procs
                       if p.status is _WAITING_BARRIER]
            raise DeadlockError(
                f"no runnable processor; cpus {waiting} wait at barriers")
        return self._finalize()

    def run_scan(self) -> SystemMetrics:
        """Reference scheduler: rebuild-and-scan the runnable list per step.

        This is the original O(P)-per-record loop.  It exists so the
        equivalence tests can check that the heap scheduler produces
        bit-identical metrics; experiments should call :meth:`run`.
        """
        procs = self.processors
        probe = self.probe
        while True:
            runnable = [p for p in procs if p.status == ProcStatus.RUNNING]
            if not runnable:
                if all(p.status == ProcStatus.DONE for p in procs):
                    break
                waiting = [p.cpu_id for p in procs
                           if p.status == ProcStatus.WAITING_BARRIER]
                raise DeadlockError(
                    f"no runnable processor; cpus {waiting} wait at barriers")
            proc = min(runnable, key=lambda p: p.time)
            start, pos = proc.time, proc.pos
            result = proc.step()
            if probe is not None:
                probe.step(proc, start, pos, result)
            if result.status == ProcStatus.BLOCKED_LOCK:
                self._spin(proc, result.lock_addr, result.mode)
            elif self._spin_retries:
                self._spin_retries.pop(proc.cpu_id, None)
            if result.barrier_release is not None:
                release, waiters = result.barrier_release
                for cpu in waiters:
                    procs[cpu].wake_from_barrier(release)
        return self._finalize()

    def _finalize(self) -> SystemMetrics:
        self.metrics.finalize([p.time for p in self.processors])
        self.metrics.capture_system_stats(self.bus, self.controller,
                                          self.locks, self.barriers)
        if self.probe is not None:
            self.probe.finish()
        return self.metrics

    def _spin(self, proc: Processor, lock_addr: int, mode: int) -> None:
        """Advance a lock-spinning processor's clock past the holder's.

        *mode* is the blocking record's mode value, carried on the
        :class:`StepResult` so retries do not re-read the stream.
        """
        holder = self.locks.holder(lock_addr)
        if holder is None:
            return  # Released in the meantime; retry immediately.
        retries = self._spin_retries.get(proc.cpu_id, 0) + 1
        self._spin_retries[proc.cpu_id] = retries
        if retries > MAX_SPIN_RETRIES:
            raise DeadlockError(
                f"cpu {proc.cpu_id} spun too long on lock {lock_addr:#x} "
                f"held by cpu {holder}")
        self.locks.note_contention()
        holder_time = self.processors[holder].time
        target = max(proc.time + SPIN_QUANTUM, holder_time + 1)
        self.metrics.time[mode].sync += target - proc.time
        proc.time = target

    def check_invariants(self) -> None:
        """Coherence/inclusion invariants (property tests call this)."""
        self.controller.check_invariants()


def simulate(trace: Trace, config: SystemConfig,
             update_pages: Optional[Iterable[int]] = None,
             hotspot_pcs: Optional[Iterable[int]] = None,
             check: Optional[bool] = None,
             tracer=None) -> SystemMetrics:
    """Convenience wrapper: build a system, run it, return the metrics.

    *tracer* is an optional :class:`repro.obs.tracer.Tracer` to arm the
    system with before running (the caller keeps the reference and reads
    its events/profile afterwards).
    """
    system = MultiprocessorSystem(trace, config, update_pages, hotspot_pcs,
                                  check=check)
    if tracer is not None:
        from repro.obs.tracer import attach_tracer
        attach_tracer(system, tracer)
    return system.run()
