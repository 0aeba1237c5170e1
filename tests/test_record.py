"""Unit tests for trace records (repro.trace.record)."""

from repro.common.types import DataClass, Mode, Op
from repro.trace import record as rec
from repro.trace.record import TraceRecord


def test_read_defaults():
    r = rec.read(0x1000)
    assert r.op == Op.READ
    assert r.addr == 0x1000
    assert r.mode == Mode.OS
    assert r.size == 4
    assert r.blockop == 0


def test_write_carries_dclass_and_pc():
    r = rec.write(0x2000, dclass=DataClass.PAGE_TABLE, pc=0x44, icount=7)
    assert r.op == Op.WRITE
    assert r.dclass == DataClass.PAGE_TABLE
    assert r.pc == 0x44
    assert r.icount == 7


def test_prefetch_lead_in_arg():
    r = rec.prefetch(0x3000, lead=12)
    assert r.op == Op.PREFETCH
    assert r.arg == 12


def test_lock_records():
    a = rec.lock_acquire(0x10)
    r = rec.lock_release(0x10)
    assert a.op == Op.LOCK_ACQ
    assert r.op == Op.LOCK_REL
    assert a.dclass == DataClass.LOCK_VAR
    assert r.dclass == DataClass.LOCK_VAR


def test_barrier_participants():
    b = rec.barrier(0x20, 4)
    assert b.op == Op.BARRIER
    assert b.arg == 4
    assert b.dclass == DataClass.BARRIER_VAR


def test_block_markers_carry_id():
    s = rec.block_start(9)
    e = rec.block_end(9)
    assert s.op == Op.BLOCK_START and s.blockop == 9
    assert e.op == Op.BLOCK_END and e.blockop == 9


def test_equality_and_copy():
    a = rec.read(0x1000, pc=5, icount=2)
    b = rec.read(0x1000, pc=5, icount=2)
    assert a == b
    assert a is not b
    b.addr = 0x2000
    assert a != b


def test_equality_other_type():
    assert rec.read(0) != "not a record"


def test_user_mode_read():
    r = rec.read(0x99, mode=Mode.USER)
    assert r.mode == Mode.USER


def test_slots_prevent_new_attributes():
    r = rec.read(0x1)
    try:
        r.bogus = 1
    except AttributeError:
        return
    raise AssertionError("TraceRecord should use __slots__")
