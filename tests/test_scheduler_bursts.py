"""The heap scheduler's bursts against the per-record order.

:meth:`MultiprocessorSystem.run` resumes the record loop of the CPU at
the top of its heap with a clock limit: the loop retires records until
the CPU's ``(time, cpu)`` key would no longer be the least, so a burst
is exactly the run of records the per-record heap (and the scan
reference, :meth:`run_scan`, whose every step is one record) would give
that CPU in a row.  These tests log every resumption of every loop and
compare the record order, as well as the snapshot, with the scan's.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import MACHINE_POINTS, machine_point
from repro.common.params import MAX_CPUS
from repro.common.types import Op
from repro.memsys.sink import Probe
from repro.sim.config import SystemConfig, all_configs, resolve_config
from repro.sim.system import _KEY_SHIFT, MultiprocessorSystem
from repro.trace import record
from repro.trace.stream import TraceBuilder
from tests.test_stream_accounting import random_trace


class _LoggedLoop:
    """Stands in for a processor's record loop and logs each resumption
    as ``(cpu, limit, time before, time after, position before,
    position after)``."""

    def __init__(self, proc, log):
        self._loop = proc._gen
        self._proc = proc
        self._log = log

    def send(self, limit):
        proc = self._proc
        time, pos = proc.time, proc.pos
        result = self._loop.send(limit)
        self._log.append((proc.cpu_id, limit, time, proc.time, pos,
                          proc.pos))
        return result


def _log_loops(system):
    log = []
    for proc in system.processors:
        if proc._gen is not None:
            proc._gen = _LoggedLoop(proc, log)
    return log


def _record_order(log):
    """The runs of records each CPU retired in a row, as ``[cpu, first
    position, position after]``: consecutive resumptions of one CPU
    merge, so single steps and bursts compare."""
    runs = []
    for cpu, _limit, _t0, _t1, start, end in log:
        if runs and runs[-1][0] == cpu and runs[-1][2] == start:
            runs[-1][2] = end
        else:
            runs.append([cpu, start, end])
    return runs


def test_key_holds_every_cpu_id():
    assert MAX_CPUS - 1 < 1 << _KEY_SHIFT


def test_tie_goes_to_the_lower_cpu():
    """At equal clocks the lower CPU id is the heap's least key: a burst
    of CPU 1 stops when its clock reaches CPU 0's, while CPU 0 runs on
    through a clock equal to CPU 1's."""
    builder = TraceBuilder(2)
    for cpu in range(2):
        for _ in range(6):
            builder.emit(cpu, record.read(0x100000 + 0x10000 * cpu,
                                          pc=0x1000, icount=1))
    system = MultiprocessorSystem(builder.build(), SystemConfig("tie"),
                                  check=False)
    p0, p1 = system.processors
    # The cold first records; every later one is a resident fetch of one
    # instruction and an L1D hit, two cycles.
    p0.step()
    p1.step()
    p0.time, p1.time = 98, 100
    log = _log_loops(system)
    system.run()
    assert log[:3] == [
        # 98 -> 100 ties with CPU 1; CPU 0 runs on to 102.
        (0, 101, 98, 102, 1, 3),
        # 100 -> 102 ties with CPU 0; CPU 1 stops.
        (1, 102, 100, 102, 1, 2),
        (0, 103, 102, 104, 3, 4),
    ]


POINTS = [label for label, *_rest in MACHINE_POINTS]
MACHINES = {label: machine_point(*rest) for label, *rest in MACHINE_POINTS}
#: Three-CPU traces on every machine point, plus every CPU of the widest
#: one, so the largest CPU id enters the heap keys.
CASES = [(point, 3) for point in POINTS] + [(POINTS[-1], MAX_CPUS)]


@pytest.mark.parametrize("point,num_cpus", CASES,
                         ids=[f"{p}-{n}cpu" for p, n in CASES])
@pytest.mark.parametrize("scheme", sorted(all_configs()))
def test_bursts_retire_records_in_scan_order(scheme, point, num_cpus):
    """All eleven schemes: a probe-free ``run`` retires every record in
    the order ``run_scan`` steps them, with the same snapshot, and some
    of its bursts retire more than one record."""
    config = resolve_config(scheme, MACHINES[point])
    for seed in (1, 2):
        trace = random_trace(seed, num_cpus=num_cpus)
        bursts = MultiprocessorSystem(trace, config, check=False)
        steps = MultiprocessorSystem(trace, config, check=False)
        burst_log, step_log = _log_loops(bursts), _log_loops(steps)
        assert bursts.run().snapshot() == steps.run_scan().snapshot()
        assert _record_order(burst_log) == _record_order(step_log)
        assert all(limit == 0 for _cpu, limit, *_rest in step_log)
        assert len(burst_log) < len(step_log)


class _StepLog(Probe):
    def __init__(self):
        self.steps = []

    def step(self, proc, start, pos, result):
        op = proc.record(pos).op if pos < proc.num_records else None
        self.steps.append((pos, proc.pos, op))


@pytest.mark.parametrize("scheme", sorted(all_configs()))
def test_probe_sees_one_record_per_burst(scheme):
    """With a probe attached the scheduler resumes each loop for one
    record, so the probe's ``step`` hook sees every record: the position
    moves by one (or not at all, for a lock acquire that blocks), except
    past a block operation Blk_Dma's engine ran whole."""
    config = resolve_config(scheme, MACHINES[POINTS[0]])
    trace = random_trace(3, num_cpus=4)
    system = MultiprocessorSystem(trace, config, check=False)
    probe = _StepLog()
    system.attach(probe)
    log = _log_loops(system)
    snapshot = system.run().snapshot()
    assert all(limit == 0 for _cpu, limit, *_rest in log)
    assert len(probe.steps) == len(log)
    for start, end, op in probe.steps:
        assert end - start in (0, 1) or op is Op.BLOCK_START, (start, end)
    plain = MultiprocessorSystem(trace, config, check=False).run()
    assert plain.snapshot() == snapshot
