"""The multiprocessor system: wiring and the time-ordered scheduling loop.

A :class:`MultiprocessorSystem` builds the shared bus, the coherence
controller, one :class:`~repro.memsys.hierarchy.CpuMemorySystem` and
:class:`~repro.sim.processor.Processor` per CPU, and runs all trace streams
to completion.  Scheduling always advances the runnable processor with the
smallest local clock, which keeps bus reservations in approximately global
time order and preserves the mutual exclusion of the traced critical
sections.

:meth:`MultiprocessorSystem.run` keeps the runnable set in a binary heap of
``(time, cpu_id)`` entries, so each scheduling decision costs ``O(log P)``
instead of rebuilding and scanning a list of all processors per record.
The heap invariant is strict: **every RUNNING processor has exactly one
entry, replaced immediately after its clock last changed** — the loop
steps the processor at ``heap[0]`` in place and then replaces its entry
(``heapq.heapreplace``) if it still runs or pops it if it waits at a
barrier or is done, so a processor is out of the heap precisely while
it waits at a barrier or is done, with no stale entries and no lazy
deletion.  Ties break on ``cpu_id``, which reproduces the scan's
first-minimum choice exactly.

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
from repro.memsys.bus import Bus
from repro.memsys.coherence import CoherenceController
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.sink import Probe, ProbeFanout
from repro.sim.config import SystemConfig
from repro.sim.metrics import SystemMetrics
from repro.sim.processor import ProcStatus, Processor, SPIN_QUANTUM
from repro.sim.sync import BarrierManager, LockTable
from repro.trace.stream import Trace

#: Consecutive failed lock retries after which we declare deadlock.
MAX_SPIN_RETRIES = 1_000_000

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
                                  self.metrics.trackers[cpu])
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

        Heap scheduler — see the module docstring for the invariant.  An
        attached probe sees every step; the processor's ``step`` is looked
        up per call, so a subclass may override it.
        """
        procs = self.processors
        probe = self.probe
        running = _RUNNING
        blocked = _BLOCKED_LOCK
        push = heapq.heappush
        pop = heapq.heappop
        replace = heapq.heapreplace
        spin_retries = self._spin_retries
        heap = [(p.time, p.cpu_id) for p in procs if p.status is running]
        heapq.heapify(heap)
        while heap:
            cpu = heap[0][1]
            proc = procs[cpu]
            if probe is None:
                result = proc.step()
            else:
                start, pos = proc.time, proc.pos
                result = proc.step()
                probe.step(proc, start, pos, result)
            status = result.status
            if status is blocked:
                self._spin(proc, result.lock_addr, result.mode)
                replace(heap, (proc.time, cpu))
                continue
            if spin_retries:
                spin_retries.pop(cpu, None)
            if status is running:
                replace(heap, (proc.time, cpu))
            else:
                pop(heap)
            if result.barrier_release is not None:
                release, waiters = result.barrier_release
                for wcpu in waiters:
                    wproc = procs[wcpu]
                    wproc.wake_from_barrier(release)
                    push(heap, (wproc.time, wcpu))
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
