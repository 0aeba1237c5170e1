"""Call-count guard on the L1D read-miss path.

An L1D demand read miss is resolved by one routine,
:meth:`CpuMemorySystem.load`, which the record loop calls directly: it
serves the line, fills the L1D, tracks the miss causes and counts and
classifies the miss without building a result object or calling a
tracker method.  This guard counts the Python functions entered (with
:func:`sys.setprofile`) while a processor retires one such read, with no
probe attached, on the paper machine and on a set-associative point:

* a miss the L2 serves: at most 3 calls (the routine, the L1D fill);
* a miss the L2 lacks too: at most 6 (plus the controller's fetch, the
  bus transaction, the L2 install and the L2 fill, which keeps the
  presence directory and the LRU ranks itself).

The processor's own resumption (``step`` and the loop) is not counted.
"""

from __future__ import annotations

import sys

import pytest

from repro.common.params import BASE_MACHINE, machine_for
from repro.common.types import DataClass
from repro.sim.config import resolve_config
from repro.sim.processor import Processor
from repro.sim.system import MultiprocessorSystem
from repro.trace import record
from repro.trace.stream import TraceBuilder

MACHINES = {"paper": BASE_MACHINE, "8cpu-2way": machine_for(8, assoc=2)}

#: L2-served read miss: at most this many Python calls.
L2_SERVED_CALLS = 3
#: Read miss that the L2 lacks too.
L2_MISS_CALLS = 6

LOOP = {Processor.step.__code__, Processor.steps.__code__}


def _calls(proc):
    """Qualified names of the Python functions entered while *proc*
    retires its next record, its own resumption excluded, and whether
    the first was called by the record loop."""
    names = []
    from_loop = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code not in LOOP:
            if not names:
                from_loop.append(frame.f_back.f_code is
                                 Processor.steps.__code__)
            names.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        proc.step()
    finally:
        sys.setprofile(None)
    return names, from_loop == [True]


def _rig(machine):
    """One CPU's reads of OS data with no instruction fetch: a cold line
    A (which creates the classification counters' keys), a cold line C
    (the L2 miss), lines sharing A's L1D set until A leaves the L1D but
    not the L2, A again (the L2-served miss), and a last hit, so that
    no measured record ends the stream."""
    l1d = machine.l1d
    a, c = 0x40000, 0x48040
    stride = l1d.num_sets * l1d.line_bytes
    addrs = [a, c] + [a + k * stride for k in range(1, l1d.assoc + 1)] + [a]
    builder = TraceBuilder(1)
    for addr in addrs + [a + 4]:
        builder.emit(0, record.read(addr, pc=0x1300, icount=0,
                                    dclass=DataClass.BUFFER))
    system = MultiprocessorSystem(builder.build(),
                                  resolve_config("Base", machine),
                                  check=False)
    return system.processors[0], addrs


@pytest.mark.parametrize("machine", MACHINES.values(), ids=MACHINES)
def test_read_miss_calls(machine):
    proc, addrs = _rig(machine)
    mem = proc.mem
    proc.step()
    # The L2 miss.
    names, from_loop = _calls(proc)
    assert from_loop and names[0] == "CpuMemorySystem.load", names
    assert "CoherenceController.fetch_shared" in names, names
    assert len(names) <= L2_MISS_CALLS, names
    for _ in addrs[2:-1]:
        proc.step()
    a = addrs[0]
    assert a not in mem.l1d.where and mem.l2.present(a)
    # The L2-served miss.
    misses = proc.metrics.read_misses[:]
    names, from_loop = _calls(proc)
    assert from_loop and names[0] == "CpuMemorySystem.load", names
    assert len(names) <= L2_SERVED_CALLS, names
    assert a in mem.l1d.where
    assert sum(proc.metrics.read_misses) == sum(misses) + 1
