"""Guards on the per-record path: it touches no enum, and the objects it
reads keep their attributes in slots.

The simulation core counts in plain ints and names things only at
``snapshot()`` time.  On Python 3.11+ every ``LineState.INVALID``-style
load goes through ``EnumType.__getattr__``'s slow path, a plain
``Enum`` member hashes in Python code, and an enum constructor runs the
whole ``EnumType.__call__`` machinery, so none of them may appear in a
function that runs once per trace record or memory access.  Members are
bound to module globals instead (``INVALID = LineState.INVALID`` in
:mod:`repro.memsys.states`, ``BUS_READ_MEM = int(BusOp.READ_MEM)`` in
:mod:`repro.memsys.bus`).

The guard reads each function's bytecode with :mod:`dis`, including the
lambdas and closures nested in it, and fails on any load of an enum
class by name: that catches both attribute loads off the class and calls
to it, whatever the opcode names of the running Python.
"""

from __future__ import annotations

import dis
import types

import pytest

from repro.common.types import DataClass, MissKind, Mode, Scheme
from repro.memsys.bus import Bus, BusOp
from repro.memsys.cache import Cache, CoherentCache
from repro.memsys.adaptive import BaseAdaptivePolicy, StaticHybridPolicy
from repro.memsys.coherence import CoherenceController
from repro.memsys.dma import run_dma
from repro.memsys.hierarchy import CpuMemorySystem
from repro.memsys.prefetch import PendingFills
from repro.memsys.states import LineState
from repro.memsys.writebuffer import TimedWriteBuffer
from repro.sim.metrics import MissTracker, SystemMetrics
from repro.sim.processor import Processor, ProcStatus, _tally
from repro.sim.system import MultiprocessorSystem

ENUMS = frozenset(cls.__name__ for cls in (
    LineState, BusOp, ProcStatus, Scheme, MissKind, DataClass, Mode))

HOT_FUNCTIONS = [
    MultiprocessorSystem.run,
    Processor.step,
    Processor._do_read,
    Processor._do_write,
    Processor._fold,
    Processor._lookahead_prefetch,
    Processor._do_block_start,
    Processor._do_block_dma,
    Processor._swallow,
    _tally,
    Processor._measure_block_start,
    Processor._do_barrier,
    run_dma,
    CpuMemorySystem.read,
    CpuMemorySystem.write,
    CpuMemorySystem.ifetch,
    CpuMemorySystem._fetch_for_read,
    CpuMemorySystem._drain_word,
    CpuMemorySystem._flush_bypass_dst,
    TimedWriteBuffer.admit,
    TimedWriteBuffer.complete,
    Bus.acquire,
    Bus.split_transaction,
    Cache.fill,
    Cache.promote,
    Cache.invalidate,
    Cache._drop,
    CoherentCache.state_of,
    CoherentCache.set_state,
    CoherentCache.fill,
    CoherentCache._drop,
    CoherenceController.fetch_shared,
    CoherenceController.fetch_owned,
    CoherenceController.read_nofill,
    CoherenceController.upgrade,
    CoherenceController.broadcast_update,
    CoherenceController.adaptive_update,
    CoherenceController._fill_l2,
    CoherenceController._invalidate_remotes,
    CoherenceController._drop_from_l1,
    CoherenceController._dirty_holder,
    CoherenceController.dma_snoop_src,
    CoherenceController.dma_update_dst,
    BaseAdaptivePolicy.on_fill,
    BaseAdaptivePolicy.on_invalidate,
    StaticHybridPolicy.decide,
    SystemMetrics.record_read,
    SystemMetrics.classify_read,
    SystemMetrics.record_write,
    MissTracker.consume_miss_flags,
    MissTracker.l1_fill,
]


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_loads(fn) -> list:
    """``(code name, opname, enum class)`` for every load of an enum
    class by name in *fn* and the code nested in it."""
    return [(code.co_name, ins.opname, ins.argval)
            for code in _code_objects(fn.__code__)
            for ins in dis.get_instructions(code)
            if ins.opname.startswith("LOAD") and ins.argval in ENUMS]


@pytest.mark.parametrize("fn", HOT_FUNCTIONS, ids=lambda f: f.__qualname__)
def test_hot_function_loads_no_enum(fn):
    assert enum_loads(fn) == [], (
        f"{fn.__qualname__} loads an enum class; bind the member to a "
        f"module global instead")


def _member_load():
    return LineState.INVALID


def _constructor_call(value):
    return DataClass(value)


def _nested_member_load(cpu):
    return lambda: BusOp.UPDATE


def _alias_load(state):
    return state is _ALIAS


_ALIAS = LineState.MODIFIED


@pytest.mark.parametrize("fn, enum", [(_member_load, "LineState"),
                                      (_constructor_call, "DataClass"),
                                      (_nested_member_load, "BusOp")])
def test_guard_sees_enum_loads(fn, enum):
    """The guard works on this interpreter's opcodes: a member load, a
    constructor call and a load inside a lambda are all caught."""
    assert [name for _code, _op, name in enum_loads(fn)] == [enum]


def test_guard_allows_aliases():
    assert enum_loads(_alias_load) == []


def _hot_objects():
    """One built instance of every class the per-record path reads."""
    from repro.sim.config import SystemConfig
    from repro.trace import record
    from repro.trace.stream import TraceBuilder
    builder = TraceBuilder(1)
    builder.emit(0, record.read(0x1000, pc=0x100, icount=2))
    system = MultiprocessorSystem(builder.build(), SystemConfig("slots"),
                                  check=False)
    mem = system.memories[0]
    return [system.processors[0], system.metrics, mem, system.bus,
            system.controller, mem.wb1, mem.wb2, mem.pending,
            system.metrics.trackers[0], mem.l1d, mem.l2]


#: Classes whose instances must carry no ``__dict__``.
SLOTTED = (Processor, SystemMetrics, CpuMemorySystem, Bus,
           CoherenceController, TimedWriteBuffer, PendingFills, MissTracker,
           Cache, CoherentCache)


def test_hot_objects_have_no_instance_dict():
    """Every attribute load on the per-record path is a slot read, not
    an instance-dict probe: each class in ``SLOTTED`` declares
    ``__slots__`` all the way up its bases."""
    objects = _hot_objects()
    assert {type(obj) for obj in objects} == set(SLOTTED)
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
