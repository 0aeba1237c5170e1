"""Round-trip tests for trace text serialization (repro.trace.textio)."""

import io

import pytest

from repro.common.errors import TraceError
from repro.common.types import DataClass, Mode
from repro.trace import record as rec
from repro.trace import textio
from repro.trace.stream import TraceBuilder


def dumps(trace):
    """*trace* in the text format, as :func:`textio.dump` writes it."""
    buf = io.StringIO()
    textio.dump(trace, buf)
    return buf.getvalue()


def sample_trace():
    b = TraceBuilder(2)
    b.symbols.add("vmmeter", 0x1000, 64, DataClass.INFREQ_COMM)
    b.metadata["workload"] = "test"
    b.metadata["seed"] = 42
    b.metadata["scale"] = 0.5
    b.emit(0, rec.read(0x1000, mode=Mode.OS, dclass=DataClass.INFREQ_COMM,
                       pc=0x40, icount=3))
    b.emit(1, rec.write(0x2000, mode=Mode.USER, pc=0x80))
    b.emit(0, rec.lock_acquire(0x3000))
    b.emit(0, rec.lock_release(0x3000))
    b.emit_block_copy(0, src=0x4000, dst=0x5000, size=32)
    b.emit_block_zero(1, dst=0x6000, size=16)
    return b.build()


def test_roundtrip_preserves_everything():
    original = sample_trace()
    restored = textio.loads(dumps(original))
    assert restored.num_cpus == original.num_cpus
    assert restored.metadata == original.metadata
    assert len(restored) == len(original)
    for s_orig, s_new in zip(original.columns, restored.columns):
        assert s_orig == s_new
    assert len(restored.blockops) == len(original.blockops)
    for op in original.blockops:
        got = restored.blockops.get(op.op_id)
        assert (got.kind, got.src, got.dst, got.size) == (
            op.kind, op.src, op.dst, op.size)
    sym = restored.symbols.lookup(0x1000)
    assert (sym.name, sym.dclass) == ("vmmeter", DataClass.INFREQ_COMM)


def test_roundtrip_validates():
    restored = textio.loads(dumps(sample_trace()))
    restored.validate()


def test_metadata_types_restored():
    restored = textio.loads(dumps(sample_trace()))
    assert restored.metadata["seed"] == 42
    assert isinstance(restored.metadata["seed"], int)
    assert restored.metadata["scale"] == pytest.approx(0.5)
    assert restored.metadata["workload"] == "test"


def test_numeric_looking_string_metadata_roundtrips():
    """'007' must stay a string — not collapse to the int 7."""
    b = TraceBuilder(1)
    b.metadata["tag"] = "007"
    b.metadata["exp"] = "1e3"
    restored = textio.loads(dumps(b.build()))
    assert restored.metadata["tag"] == "007"
    assert isinstance(restored.metadata["tag"], str)
    assert restored.metadata["exp"] == "1e3"
    assert isinstance(restored.metadata["exp"], str)


def test_metadata_values_with_spaces_roundtrip():
    b = TraceBuilder(1)
    b.metadata["note"] = "two  spaced   words"
    restored = textio.loads(dumps(b.build()))
    assert restored.metadata["note"] == "two  spaced   words"


def test_legacy_bare_metadata_still_parses():
    """Files written before JSON encoding carried bare values."""
    text = "reprotrace v1\ncpus 1\nmeta seed 42\nmeta scale 0.5\nmeta w shell\n"
    restored = textio.loads(text)
    assert restored.metadata == {"seed": 42, "scale": 0.5, "w": "shell"}


def test_bad_header_rejected():
    with pytest.raises(TraceError, match="header"):
        textio.loads("not a trace\ncpus 1\n")


def test_missing_cpu_count_rejected():
    with pytest.raises(TraceError):
        textio.loads("reprotrace v1\nbogus\n")


def test_unknown_line_kind_rejected():
    with pytest.raises(TraceError, match="unknown line"):
        textio.loads("reprotrace v1\ncpus 1\nwhat 1 2 3\n")


def test_record_for_unknown_cpu_rejected():
    text = "reprotrace v1\ncpus 1\nr 5 0 0 1 0 0 1 0 4 0\n"
    with pytest.raises(TraceError, match="unknown cpu"):
        textio.loads(text)


@pytest.mark.parametrize("bad,fragment", [
    ("r 0 0", "line 3"),                      # truncated record line
    ("r 0 zz 0 1 0 0 1 0 4 0", "line 3"),     # non-integer field
    ("r 0 99 0 1 0 0 1 0 4 0", "line 3"),     # out-of-range enum value
    ("sym vm 4096", "line 3"),                # truncated symbol line
    ("blockop 1 9 0 0 0 0", "line 3"),        # bad block-op kind
    ("meta key", "line 3"),                   # meta without a value
])
def test_malformed_lines_raise_trace_error_with_line_number(bad, fragment):
    """Parse failures surface as TraceError (never bare ValueError)
    carrying the 1-based line number."""
    text = f"reprotrace v1\ncpus 1\n{bad}\n"
    with pytest.raises(TraceError, match=fragment):
        textio.loads(text)


def test_malformed_line_number_counts_preceding_lines():
    text = ("reprotrace v1\ncpus 1\nmeta a 1\nmeta b 2\n"
            "r 0 zz 0 1 0 0 1 0 4 0\n")
    with pytest.raises(TraceError, match="line 5"):
        textio.loads(text)


def test_bad_cpu_count_is_trace_error():
    with pytest.raises(TraceError, match="line 2"):
        textio.loads("reprotrace v1\ncpus zz\n")


@pytest.mark.parametrize("count", ["0", "-1", "33", "400000000",
                                   "9" * 40])
def test_cpu_count_out_of_range_rejected(count):
    """The header is bounded before any per-CPU stream is allocated: a
    huge count fails as a TraceError, not a MemoryError."""
    with pytest.raises(TraceError, match=r"line 2: cpu count .* outside"):
        textio.loads(f"reprotrace v1\ncpus {count}\n")


def test_widest_cpu_count_accepted():
    from repro.common.params import MAX_CPUS
    assert textio.loads(f"reprotrace v1\ncpus {MAX_CPUS}\n").num_cpus \
        == MAX_CPUS


def test_no_bare_value_error_escapes():
    for bad in ("r 0", "sym", "blockop 0", "meta x", "r 0 1 2"):
        try:
            textio.loads(f"reprotrace v1\ncpus 1\n{bad}\n")
        except TraceError:
            pass  # the only acceptable failure mode


def test_dump_to_file(tmp_path):
    trace = sample_trace()
    path = tmp_path / "trace.txt"
    with open(path, "w") as fp:
        textio.dump(trace, fp)
    with open(path) as fp:
        restored = textio.load(fp)
    assert len(restored) == len(trace)


def test_cli_rejects_structurally_invalid_trace(tmp_path, capsys,
                                                broken_trace):
    """A text trace that parses but breaks a structural rule is reported
    as an error line with status 2, not a traceback from the run."""
    from repro.cli import main
    trace, message = broken_trace
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fp:
        textio.dump(trace, fp)
    assert main(["simulate", path, "--config", "Base"]) == 2
    err = capsys.readouterr().err
    assert err == f"repro simulate: error: {path}: {message}\n"
    assert "Traceback" not in err
