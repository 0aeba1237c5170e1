"""Property-based tests on serialization and trace transformations."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import DataClass, Mode, Op
from repro.optim.privatize import privatize_and_relocate
from repro.trace import npzio, textio
from repro.trace.record import TraceRecord
from repro.trace.stream import TraceBuilder
from tests.test_textio import dumps


#: Space-free identifiers usable as metadata keys and symbol names.
_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)

#: Metadata values across every JSON-representable shape the trace
#: carries, deliberately including numeric-looking strings ("007",
#: "1e3") and strings with internal runs of spaces.
_meta_values = st.one_of(
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.sampled_from(["007", "1e3", "0x10", ""]),
    st.text(alphabet="abcXYZ 09_.", max_size=20),
)


@st.composite
def random_traces(draw):
    """Arbitrary (not necessarily semantically valid) record streams,
    with random metadata and symbol tables (possibly empty)."""
    num_cpus = draw(st.integers(1, 4))
    builder = TraceBuilder(num_cpus)
    builder.metadata.update(draw(st.dictionaries(_names, _meta_values,
                                                 max_size=4)))
    for i, name in enumerate(draw(st.lists(_names, unique=True,
                                           max_size=3))):
        # Disjoint 1 MB regions per symbol (overlaps are rejected).
        builder.symbols.add(name,
                            (i + 1) * 2**20 + draw(st.integers(0, 255)) * 4,
                            draw(st.sampled_from([4, 64, 4096])),
                            draw(st.sampled_from(list(DataClass))))
    for cpu in range(num_cpus):
        n = draw(st.integers(0, 40))
        for _ in range(n):
            op = draw(st.sampled_from([Op.READ, Op.WRITE, Op.PREFETCH]))
            builder.emit(cpu, TraceRecord(
                op,
                draw(st.integers(0, 2**31 - 1)),
                draw(st.sampled_from(list(Mode))),
                draw(st.sampled_from(list(DataClass))),
                pc=draw(st.integers(0, 2**24)),
                icount=draw(st.integers(0, 50)),
                size=draw(st.sampled_from([1, 2, 4])),
                arg=draw(st.integers(0, 100)),
            ))
    return builder.build(validate=False)


def _assert_faithful(trace, restored):
    """Records, symbols, and metadata reproduced exactly — values AND
    types (the int 7 is not the string "007")."""
    assert restored.num_cpus == trace.num_cpus
    for a, b in zip(trace.columns, restored.columns):
        assert a == b
    assert restored.metadata == trace.metadata
    for key, value in trace.metadata.items():
        assert type(restored.metadata[key]) is type(value), key
    assert restored.symbols.names() == trace.symbols.names()
    for a, b in zip(trace.symbols, restored.symbols):
        assert (a.name, a.base, a.size, a.dclass) == \
            (b.name, b.base, b.size, b.dclass)


@given(random_traces())
@settings(max_examples=40, deadline=None)
def test_textio_roundtrip_property(trace):
    _assert_faithful(trace, textio.loads(dumps(trace)))


@given(random_traces())
@settings(max_examples=25, deadline=None)
def test_npzio_roundtrip_property(trace):
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".npz")
    os.close(fd)
    try:
        npzio.save(trace, path)
        _assert_faithful(trace, npzio.load(path))
    finally:
        os.unlink(path)


def _blockop_trace():
    from repro.trace.stream import TraceBuilder

    b = TraceBuilder(2)
    b.metadata["tag"] = "007"
    b.emit_block_copy(0, src=0x4000, dst=0x5000, size=32)
    b.emit_block_zero(1, dst=0x6000, size=16)
    return b.build()


def test_textio_blockops_roundtrip_exactly():
    trace = _blockop_trace()
    restored = textio.loads(dumps(trace))
    _assert_faithful(trace, restored)
    assert len(restored.blockops) == len(trace.blockops)
    for op in trace.blockops:
        got = restored.blockops.get(op.op_id)
        assert (got.kind, got.src, got.dst, got.size, got.pc) == \
            (op.kind, op.src, op.dst, op.size, op.pc)


def test_npzio_blockops_roundtrip_exactly(tmp_path):
    trace = _blockop_trace()
    path = str(tmp_path / "t.npz")
    npzio.save(trace, path)
    restored = npzio.load(path)
    _assert_faithful(trace, restored)
    for op in trace.blockops:
        got = restored.blockops.get(op.op_id)
        assert (got.kind, got.src, got.dst, got.size, got.pc) == \
            (op.kind, op.src, op.dst, op.size, op.pc)


@given(st.text(alphabet="r symblockopmeta 0123456789.ab\n", max_size=120))
@settings(max_examples=60, deadline=None)
def test_textio_never_leaks_bare_value_error(body):
    """Garbage after a valid header either parses or raises TraceError —
    never ValueError/IndexError."""
    from repro.common.errors import TraceError

    try:
        textio.loads("reprotrace v1\ncpus 2\n" + body)
    except TraceError:
        pass


@given(random_traces())
@settings(max_examples=30, deadline=None)
def test_privatize_preserves_structure(trace):
    """Privatization only ever touches counter/cpievents/timer addresses:
    record counts can only grow (pager-read expansion), every original
    non-target record survives verbatim, and data classes are kept."""
    out = privatize_and_relocate(trace, trace.num_cpus)
    assert out.num_cpus == trace.num_cpus
    for cpu in range(trace.num_cpus):
        orig, new = trace.records(cpu), out.records(cpu)
        assert len(new) >= len(orig)
        # Records outside the transformed classes appear unchanged, in order.
        def untouched(stream):
            return [r for r in stream
                    if r.dclass not in (DataClass.INFREQ_COMM,
                                        DataClass.FREQ_SHARED,
                                        DataClass.TIMER)]
        assert untouched(new) == untouched(orig)
        # Writes are never duplicated or dropped (only reads expand).
        assert sum(1 for r in new if r.op == Op.WRITE) == \
            sum(1 for r in orig if r.op == Op.WRITE)


@given(st.lists(st.integers(0, 2**20), min_size=1, max_size=60),
       st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_tracestats_sharing_bounds(addresses, num_cpus):
    """Sharing profile invariants for arbitrary read streams."""
    from repro.analysis.tracestats import TraceStats
    builder = TraceBuilder(num_cpus)
    for i, addr in enumerate(addresses):
        builder.emit(i % num_cpus,
                     TraceRecord(Op.READ, addr * 4, Mode.OS, DataClass.NONE,
                                 0, 1))
    stats = TraceStats(builder.build())
    profile = stats.sharing_profile()
    assert 0 <= profile.lines_shared <= profile.lines_total
    assert 0 <= profile.lines_write_shared <= profile.lines_shared
    assert profile.max_sharers <= num_cpus
    assert stats.data_references() == len(addresses)


# ======================================================================
# Parser fuzzing: malformed input fails with the parser's typed error
# ======================================================================
#: Replacement tokens for mutated trace text: out-of-range and huge
#: numbers, signs, non-numbers, line kinds and stray whitespace.
_tokens = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["", "-", "x", "1.5", "nan", "1e400", "r", "sym",
                     "blockop", "meta", "cpus", "\n", " ", "{", "\"",
                     "[1]", "reprotrace", "v1"]),
    st.text(max_size=4),
)


@st.composite
def mutated_dumps(draw):
    """A real dumps() text with a few token-level edits, line drops and
    line duplications applied."""
    lines = dumps(draw(random_traces())).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["token", "drop", "dup", "insert"]))
        if action == "token":
            fields = lines[i].split(" ")
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(_tokens)
            lines[i] = " ".join(fields)
        elif action == "drop":
            del lines[i]
            if not lines:
                lines = [""]
        elif action == "dup":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, " ".join(draw(st.lists(_tokens, max_size=11))))
    return "\n".join(lines)


@given(mutated_dumps())
@settings(max_examples=200, deadline=None)
def test_textio_fuzz_mutated_dumps_raise_only_trace_error(text):
    from repro.common.errors import TraceError

    try:
        textio.loads(text)
    except TraceError:
        pass


#: Any JSON/YAML-shaped value, plus NaN/inf floats.
_spec_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(), st.text(max_size=8),
              st.sampled_from(["steady", "shell", "server", "Shell"])),
    lambda inner: st.one_of(st.lists(inner, max_size=7),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=8)


@st.composite
def profile_specs(draw):
    """Spec dicts over the real field names (and a few stray keys), each
    field holding either a well-typed value or an arbitrary one."""
    from repro.synthetic.profiles import WorkloadProfile

    fields = [f.name for f in dataclasses.fields(WorkloadProfile)]
    defaults = WorkloadProfile(name="fuzz").to_dict()
    keys = draw(st.lists(st.sampled_from(fields), unique=True, max_size=8))
    spec = {}
    for key in keys:
        spec[key] = draw(st.one_of(st.just(defaults[key]), _spec_values))
    if draw(st.booleans()):
        spec.setdefault("name", "fuzz")
    if draw(st.integers(0, 9)) == 0:
        # Stray keys; YAML keys need not even be strings.
        for key in draw(st.lists(st.one_of(st.integers(),
                                           st.text(max_size=4)),
                                 min_size=1, max_size=3)):
            spec[key] = 1
    return spec


@given(profile_specs())
@settings(max_examples=300, deadline=None)
def test_profile_from_dict_fuzz_raises_only_profile_error(spec):
    from repro.common.errors import ProfileError
    from repro.synthetic.profiles import WorkloadProfile, profile_from_dict

    try:
        profile = profile_from_dict(spec)
    except ProfileError:
        return
    assert isinstance(profile, WorkloadProfile)
