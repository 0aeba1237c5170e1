"""Unit tests for traces and the builder (repro.trace.stream)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.common.types import Mode, Op
from repro.trace import record as rec
from repro.trace.stream import Trace, TraceBuilder


def test_trace_needs_a_cpu():
    with pytest.raises(TraceError):
        Trace([])
    with pytest.raises(TraceError):
        TraceBuilder(0)


def test_len_counts_all_streams(builder):
    builder.emit(0, rec.read(0x0))
    builder.emit(3, rec.read(0x4))
    assert len(builder.build()) == 2


def test_count_ops(builder):
    builder.emit(0, rec.read(0x0))
    builder.emit(0, rec.write(0x4))
    builder.emit(1, rec.read(0x8))
    counts = builder.build().count_ops()
    assert counts[Op.READ] == 2
    assert counts[Op.WRITE] == 1


def test_counts_follow_column_edits():
    b = TraceBuilder(1)
    b.emit(0, rec.read(0x0))
    b.emit(0, rec.read(0x4))
    trace = b.build()
    assert trace.count_ops() == {Op.READ: 2}
    assert trace.data_reference_count(Mode.USER) == 0
    cols = trace.columns[0]
    cols.ops[1], cols.modes[1] = Op.WRITE, Mode.USER
    assert trace.count_ops() == {Op.READ: 1, Op.WRITE: 1}
    assert trace.data_reference_count(Mode.USER) == 1


def test_records_are_a_fresh_view(builder):
    builder.emit(0, rec.read(0x40))
    trace = builder.build()
    trace.records(0)[0].addr = 0x80
    assert trace.records(0)[0].addr == 0x40
    assert trace.records() == trace.records(0)


def test_data_reference_count_by_mode(builder):
    builder.emit(0, rec.read(0x0, mode=Mode.USER))
    builder.emit(0, rec.write(0x4, mode=Mode.OS))
    builder.emit(0, rec.lock_acquire(0x10))
    trace = builder.build(validate=False)
    assert trace.data_reference_count() == 2
    assert trace.data_reference_count(Mode.USER) == 1
    assert trace.data_reference_count(Mode.OS) == 1


class TestBlockEmission:
    def test_copy_word_coverage(self, builder):
        desc = builder.emit_block_copy(0, src=0x1000, dst=0x2000, size=64)
        stream = builder.build().records(0)
        assert stream[0].op == Op.BLOCK_START
        assert stream[-1].op == Op.BLOCK_END
        reads = [r for r in stream if r.op == Op.READ]
        writes = [r for r in stream if r.op == Op.WRITE]
        assert len(reads) == 16 and len(writes) == 16
        assert [r.addr for r in reads] == list(range(0x1000, 0x1040, 4))
        assert [w.addr for w in writes] == list(range(0x2000, 0x2040, 4))
        assert all(r.blockop == desc.op_id for r in reads + writes)

    def test_zero_writes_only(self, builder):
        builder.emit_block_zero(1, dst=0x4000, size=32)
        stream = builder.build().records(1)
        assert not any(r.op == Op.READ for r in stream)
        writes = [r for r in stream if r.op == Op.WRITE]
        assert len(writes) == 8

    def test_odd_size_covered(self, builder):
        builder.emit_block_copy(0, src=0x1000, dst=0x2000, size=10)
        reads = [r for r in builder.build().records(0) if r.op == Op.READ]
        assert sum(r.size for r in reads) == 10


class TestValidation:
    def test_valid_trace_passes(self, builder):
        builder.emit(0, rec.lock_acquire(0x10))
        builder.emit(0, rec.lock_release(0x10))
        builder.emit_block_copy(0, src=0x1000, dst=0x2000, size=16)
        for cpu in range(4):
            builder.emit(cpu, rec.barrier(0x20, 4))
        builder.build(validate=True)

    def test_unreleased_lock_fails(self, builder):
        builder.emit(0, rec.lock_acquire(0x10))
        with pytest.raises(TraceError, match="never released"):
            builder.build()

    def test_release_without_acquire_fails(self, builder):
        builder.emit(0, rec.lock_release(0x10))
        with pytest.raises(TraceError, match="not held"):
            builder.build()

    def test_double_acquire_fails(self, builder):
        builder.emit(0, rec.lock_acquire(0x10))
        builder.emit(0, rec.lock_acquire(0x10))
        with pytest.raises(TraceError, match="twice"):
            builder.build()

    def test_unbalanced_barrier_fails(self, builder):
        builder.emit(0, rec.barrier(0x20, 4))
        builder.emit(1, rec.barrier(0x20, 4))
        with pytest.raises(TraceError, match="barrier"):
            builder.build()

    def test_inconsistent_barrier_count_fails(self, builder):
        builder.emit(0, rec.barrier(0x20, 4))
        builder.emit(1, rec.barrier(0x20, 2))
        with pytest.raises(TraceError):
            builder.build()

    def test_bad_participant_count_fails(self, builder):
        builder.emit(0, rec.barrier(0x20, 9))
        with pytest.raises(TraceError, match="participant"):
            builder.build()

    def test_blockop_access_outside_range_fails(self, builder):
        builder.emit_block_copy(0, src=0x1000, dst=0x2000, size=16)
        trace = builder.build()
        # Corrupt one word record to point outside the op's ranges.
        cols = trace.columns[0]
        cols.addrs[np.flatnonzero(cols.ops == Op.READ)[0]] = 0x9000
        with pytest.raises(TraceError, match="outside"):
            trace.validate()

    def test_unterminated_blockop_fails(self, builder):
        builder.emit(0, rec.block_start(1))
        builder.blockops.new_copy(0x0, 0x100, 16)
        with pytest.raises(TraceError, match="unterminated"):
            builder.build()

    def test_nested_blockop_fails(self, builder):
        builder.blockops.new_copy(0x0, 0x100, 16)
        builder.blockops.new_copy(0x200, 0x300, 16)
        builder.emit(0, rec.block_start(1))
        builder.emit(0, rec.block_start(2))
        with pytest.raises(TraceError, match="nested"):
            builder.build()

    def test_end_without_start_fails(self, builder):
        builder.blockops.new_copy(0x0, 0x100, 16)
        builder.emit(0, rec.block_end(1))
        with pytest.raises(TraceError, match="without start"):
            builder.build()

    @pytest.mark.parametrize("mode", [-1, 3])
    def test_bad_mode_fails(self, builder, mode):
        builder.emit(0, rec.read(0x1000))
        builder.emit(0, rec.read(0x1004, mode=mode))
        with pytest.raises(TraceError, match=f"cpu 0: record 1: bad mode {mode}"):
            builder.build()

    def test_end_of_op_zero_without_start_fails(self, builder):
        builder.emit(0, rec.block_end(0))
        with pytest.raises(TraceError, match="BLOCK_END 0 without start"):
            builder.build()


def _walk_validate(trace):
    """Reference validator: one record at a time, in stream order.

    Returns the message of the first broken rule, or None.
    """
    try:
        for cpu in range(trace.num_cpus):
            held = set()
            for r in trace.records(cpu):
                if r.op == Op.LOCK_ACQ:
                    if r.addr in held:
                        raise TraceError(
                            f"cpu {cpu}: lock {r.addr:#x} acquired twice")
                    held.add(r.addr)
                elif r.op == Op.LOCK_REL:
                    if r.addr not in held:
                        raise TraceError(f"cpu {cpu}: lock {r.addr:#x} "
                                         f"released but not held")
                    held.discard(r.addr)
            if held:
                raise TraceError(f"cpu {cpu}: locks never released: "
                                 f"{sorted(hex(a) for a in held)}")
        arrivals, expected = {}, {}
        for r in trace.records():
            if r.op != Op.BARRIER:
                continue
            arrivals[r.addr] = arrivals.get(r.addr, 0) + 1
            if r.arg < 1 or r.arg > trace.num_cpus:
                raise TraceError(
                    f"barrier {r.addr:#x}: bad participant count {r.arg}")
            if expected.setdefault(r.addr, r.arg) != r.arg:
                raise TraceError(
                    f"barrier {r.addr:#x}: inconsistent participant counts")
        for addr, count in arrivals.items():
            if count % expected[addr]:
                raise TraceError(
                    f"barrier {addr:#x}: {count} arrivals is not a multiple "
                    f"of {expected[addr]} participants")
        for cpu in range(trace.num_cpus):
            active = 0
            for r in trace.records(cpu):
                if r.op == Op.BLOCK_START:
                    if active:
                        raise TraceError(f"cpu {cpu}: nested block operation")
                    trace.blockops.get(r.blockop)
                    active = r.blockop
                elif r.op == Op.BLOCK_END:
                    if not active or r.blockop != active:
                        raise TraceError(
                            f"cpu {cpu}: BLOCK_END {r.blockop} without start")
                    active = 0
                elif r.blockop and r.op in (Op.READ, Op.WRITE):
                    desc = trace.blockops.get(r.blockop)
                    if r.blockop != active:
                        raise TraceError(
                            f"cpu {cpu}: block-op record outside markers")
                    if not (desc.contains_src(r.addr)
                            or desc.contains_dst(r.addr)):
                        raise TraceError(
                            f"cpu {cpu}: block-op access {r.addr:#x} "
                            f"outside op {r.blockop} ranges")
            if active:
                raise TraceError(f"cpu {cpu}: unterminated block operation")
    except TraceError as err:
        return str(err)
    return None


_op_ids = st.integers(-1, 4)
#: Any address near the three block ops below, or one at the edges of
#: their ranges.
_addrs = st.one_of(st.integers(0x0, 0x140),
                   st.sampled_from([0x0, 0xc, 0x10, 0x40, 0x4c, 0x50, 0x80,
                                    0x9c, 0xa0, 0x104, 0x108, 0x124,
                                    0x128]))
#: Mostly well-formed pieces (a lock held and released, a bracketed
#: block op whose words may stray out of range) with the odd stray
#: marker, lock or barrier record.
_events = st.one_of(
    st.tuples(st.just("locked"), st.sampled_from([0x10, 0x20])),
    st.tuples(st.just("op"), st.integers(1, 3), st.lists(_addrs, max_size=4)),
    st.tuples(st.just("op"), st.integers(1, 3), st.lists(_addrs, max_size=4)),
    st.tuples(st.just("copy"), st.integers(0, 3)),
    st.tuples(st.sampled_from(["acq", "rel"]), st.sampled_from([0x10, 0x20])),
    st.tuples(st.just("barrier"), st.integers(0, 4)),
    st.tuples(st.sampled_from(["start", "end"]), _op_ids),
    st.tuples(st.sampled_from(["read", "write"]), _op_ids, _addrs),
)


@given(st.integers(1, 3), st.lists(st.lists(_events, max_size=12),
                                   min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_validate_reports_what_a_record_walk_meets_first(num_cpus, streams):
    """The column validator raises the same error as a record-by-record
    walk on arbitrary, mostly broken streams."""
    b = TraceBuilder(num_cpus)
    b.blockops.new_copy(0x00, 0x40, 16)
    b.blockops.new_zero(0x80, 32)
    b.blockops.new_copy(0x100, 0x120, 8)
    for cpu in range(num_cpus):
        for ev in streams[cpu]:
            kind = ev[0]
            if kind == "locked":
                b.emit(cpu, rec.lock_acquire(ev[1]))
                b.emit(cpu, rec.read(0x300))
                b.emit(cpu, rec.lock_release(ev[1]))
            elif kind == "op":
                b.emit(cpu, rec.block_start(ev[1]))
                for i, addr in enumerate(ev[2]):
                    make = rec.write if i % 2 else rec.read
                    b.emit(cpu, make(addr, blockop=ev[1]))
                b.emit(cpu, rec.block_end(ev[1]))
            elif kind == "acq":
                b.emit(cpu, rec.lock_acquire(ev[1]))
            elif kind == "rel":
                b.emit(cpu, rec.lock_release(ev[1]))
            elif kind == "barrier":
                b.emit(cpu, rec.barrier(0x200, ev[1]))
            elif kind == "start":
                b.emit(cpu, rec.block_start(ev[1]))
            elif kind == "end":
                b.emit(cpu, rec.block_end(ev[1]))
            elif kind == "copy":
                b.emit_block_copy(cpu, src=0x400 + 64 * ev[1], dst=0x800,
                                  size=8)
            else:
                make = rec.read if kind == "read" else rec.write
                b.emit(cpu, make(ev[2], blockop=ev[1]))
    trace = b.build(validate=False)
    expected = _walk_validate(trace)
    if expected is None:
        trace.validate()
    else:
        with pytest.raises(TraceError) as err:
            trace.validate()
        assert str(err.value) == expected
