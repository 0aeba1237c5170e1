"""Tests for the privatization/relocation transform (repro.optim.privatize)."""

import pytest

from repro.common.rng import RngStream
from repro.common.types import DataClass, MissKind, Op
from repro.optim.privatize import (
    PrivatizeRelocate,
    privatize_and_relocate,
    replica_addr,
)
from repro.sim import SystemConfig, simulate
from repro.synthetic import layout as lay
from repro.synthetic.kernel import Kernel
from repro.synthetic.layout import KERNEL_PC
from repro.synthetic import services


def make_counter_trace():
    """All four CPUs bump the same counter between stretches of other
    work (so each bump's read lands after remote invalidations); CPU 0's
    pager reads the counter at the end."""
    k = Kernel(4, RngStream(9, "priv"))
    for round_ in range(6):
        for cpu in range(4):
            k.bump_counter(cpu, "v_intr")
            for i in range(20):
                k.read(cpu, 0x80000 + cpu * 0x4000 + (i % 8) * 16,
                       DataClass.OTHER_KERNEL, "namei_code", icount=8)
    k.read(0, k.layout.counter("v_intr"), DataClass.INFREQ_COMM,
           "pte_scan_loop", icount=1)
    return k.build()


def test_writes_remap_to_own_replica():
    trace = privatize_and_relocate(make_counter_trace())
    for cpu in range(trace.num_cpus):
        for rec in trace.records(cpu):
            if rec.op == Op.WRITE and rec.dclass == DataClass.INFREQ_COMM:
                assert rec.addr == replica_addr(0, cpu, 4)


def test_replicas_on_distinct_lines():
    addrs = {replica_addr(0, cpu, 4) for cpu in range(4)}
    assert len({a // 64 for a in addrs}) == 4


def test_pager_read_expands_to_all_replicas():
    original = make_counter_trace()
    transformed = privatize_and_relocate(original)
    pager_pc = KERNEL_PC["pte_scan_loop"]
    expanded = [r for r in transformed.records(0)
                if r.pc == pager_pc and r.op == Op.READ]
    assert len(expanded) == 4
    assert {r.addr for r in expanded} == {replica_addr(0, c, 4)
                                          for c in range(4)}


def test_non_counter_records_untouched():
    k = Kernel(2, RngStream(1, "x"))
    k.read(0, 0x123450, DataClass.USER_DATA, "bcopy")
    k.write(1, k.layout.proc_entry(3), DataClass.PROC_TABLE, "fork_entry")
    original = k.build()
    transformed = privatize_and_relocate(original, 2)
    assert transformed.records(0)[0].addr == 0x123450
    assert transformed.records(1)[0].addr == original.records(1)[0].addr


def test_transform_is_pure():
    original = make_counter_trace()
    before = original.records()
    privatize_and_relocate(original)
    assert original.records() == before


def test_timer_slots_spread_to_distinct_lines():
    k = Kernel(4, RngStream(2, "t"))
    for cpu in range(4):
        services.timer_interrupt(k, cpu)
    transformed = privatize_and_relocate(k.build())
    slots = {r.addr // 64 for r in transformed.records()
             if r.dclass == DataClass.TIMER
             and r.addr >= lay.PRIVATE_BASE}
    assert len(slots) == 4


def test_privatization_removes_counter_coherence_misses():
    base = simulate(make_counter_trace(), SystemConfig("b"))
    priv = simulate(privatize_and_relocate(make_counter_trace()),
                    SystemConfig("p"))
    base_coh = base.os_coh_dclass[DataClass.INFREQ_COMM]
    priv_coh = priv.os_coh_dclass[DataClass.INFREQ_COMM]
    assert base_coh > 0
    assert priv_coh < base_coh


def test_metadata_flag_set():
    transformed = privatize_and_relocate(make_counter_trace())
    assert transformed.metadata["privatized"] == 1


def test_editing_the_privatized_trace_leaves_the_source():
    """The pass returns fresh columns: no row, rewritten or not, is
    shared with the input trace."""
    original = make_counter_trace()
    before = original.records()
    transformed = privatize_and_relocate(original)
    for cols in transformed.columns:
        cols.addrs += 4
        cols.icounts[:] = 99
    assert original.records() == before
