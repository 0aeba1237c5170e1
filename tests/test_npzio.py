"""Round-trip tests for binary trace serialization (repro.trace.npzio)."""

import json

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.common.types import DataClass, Mode
from repro.trace import npzio, textio
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder
from tests.test_textio import dumps


def sample_trace():
    b = TraceBuilder(2)
    b.symbols.add("proc_table", 0x1000, 512, DataClass.PROC_TABLE)
    b.symbols.add("vmmeter", 0x2000, 64, DataClass.INFREQ_COMM)
    b.metadata.update({"workload": "x", "seed": 5, "scale": 0.25})
    b.emit(0, rec.read(0x1000, mode=Mode.OS, dclass=DataClass.PROC_TABLE,
                       pc=0x40, icount=3))
    b.emit(1, rec.write(0x2000, mode=Mode.USER, pc=0x80))
    b.emit(0, rec.lock_acquire(0x3000))
    b.emit(0, rec.lock_release(0x3000))
    b.emit(1, rec.barrier(0x88, 1))
    b.emit_block_copy(0, src=0x4000, dst=0x5000, size=64)
    b.emit_block_zero(1, dst=0x6000, size=32)
    return b.build()


def test_roundtrip_identical(tmp_path):
    original = sample_trace()
    path = str(tmp_path / "t.npz")
    npzio.save(original, path)
    restored = npzio.load(path)
    assert restored.num_cpus == original.num_cpus
    assert restored.metadata == original.metadata
    for a, b in zip(original.columns, restored.columns):
        assert a == b
    assert len(restored.blockops) == len(original.blockops)
    assert restored.symbols.names() == original.symbols.names()
    restored.validate()


def test_roundtrip_matches_text_format(tmp_path):
    original = sample_trace()
    path = str(tmp_path / "t.npz")
    npzio.save(original, path)
    restored = npzio.load(path)
    assert dumps(restored) == dumps(original)


def test_workload_roundtrip(tmp_path):
    from repro.synthetic import generate
    trace = generate("Shell", seed=2, scale=0.05)
    path = str(tmp_path / "w.npz")
    npzio.save(trace, path)
    restored = npzio.load(path)
    assert len(restored) == len(trace)
    for a, b in zip(trace.records(), restored.records()):
        assert a == b


def test_compression_beats_text(tmp_path):
    from repro.synthetic import generate
    import os
    trace = generate("Shell", seed=2, scale=0.05)
    npz_path = str(tmp_path / "w.npz")
    txt_path = str(tmp_path / "w.txt")
    npzio.save(trace, npz_path)
    with open(txt_path, "w") as fp:
        textio.dump(trace, fp)
    assert os.path.getsize(npz_path) < os.path.getsize(txt_path) / 3


def test_bad_archive_rejected(tmp_path):
    path = str(tmp_path / "bogus.npz")
    np.savez_compressed(path, something=np.zeros(3))
    with pytest.raises(TraceError, match="not a repro npz trace"):
        npzio.load(path)


def test_empty_trace_roundtrip(tmp_path):
    trace = TraceBuilder(1).build()
    path = str(tmp_path / "empty.npz")
    npzio.save(trace, path)
    restored = npzio.load(path)
    assert len(restored) == 0
    assert restored.num_cpus == 1


def _corrupt(tmp_path, edit):
    """Save the sample trace, let *edit* rewrite its arrays, save again."""
    path = str(tmp_path / "t.npz")
    npzio.save(sample_trace(), path)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    np.savez_compressed(path, **arrays)
    return path


@pytest.mark.parametrize("column,field", [(0, "op"), (2, "mode"),
                                          (3, "dclass")])
def test_bad_code_rejected_at_load(tmp_path, column, field):
    def edit(arrays):
        arrays["cpu1"] = arrays["cpu1"].copy()
        arrays["cpu1"][0, column] = 99

    path = _corrupt(tmp_path, edit)
    with pytest.raises(TraceError, match=rf"t\.npz: cpu1 record 0 has bad "
                                         rf"{field} code 99"):
        npzio.load(path)


def test_missing_cpu_stream_rejected(tmp_path):
    path = _corrupt(tmp_path, lambda arrays: arrays.pop("cpu1"))
    with pytest.raises(TraceError, match=r"t\.npz: cpu1 stream missing"):
        npzio.load(path)


def _edit_meta(**changes):
    def edit(arrays):
        meta = json.loads(str(arrays["meta"]))
        meta.update(changes)
        for key, value in changes.items():
            if value is None:
                del meta[key]
        arrays["meta"] = np.array(json.dumps(meta))
    return edit


def _set(member, row, col, value):
    def edit(arrays):
        arrays[member] = arrays[member].copy()
        arrays[member][row, col] = value
    return edit


def _replace(member, value):
    def edit(arrays):
        arrays[member] = value
    return edit


CORRUPTIONS = {
    "blockop-kind": (_set("blockops", 0, 1, 7),
                     r"blockops row 0 has bad kind code 7"),
    "blockop-size": (_set("blockops", 0, 4, 0),
                     r"blockops row 0: .*non-positive size"),
    "blockop-id": (_set("blockops", 1, 0, 5),
                   r"blockops row 1 has id 5, expected 2"),
    "blockops-5-columns": (lambda a: a.update(blockops=a["blockops"][:, :5]),
                           r"blockops has shape \(2, 5\)"),
    "blockops-float": (lambda a: a.update(
                           blockops=a["blockops"].astype(float)),
                       r"blockops has shape .* dtype float64"),
    "blockops-missing": (lambda a: a.pop("blockops"), r"blockops missing"),
    "sym-dclass": (_set("sym_table", 0, 2, 99),
                   r"sym_table row 0 has bad dclass code 99"),
    "sym-overlap": (_set("sym_table", 1, 0, 0x1000),
                    r"sym_table row 1: .*overlaps"),
    "sym-table-missing": (lambda a: a.pop("sym_table"),
                          r"sym_table missing"),
    "sym-names-missing": (lambda a: a.pop("sym_names"),
                          r"sym_names missing"),
    "sym-names-short": (lambda a: a.update(sym_names=a["sym_names"][:1]),
                        r"sym_names has shape \(1,\), sym_table has 2 rows"),
    "cpu-1d": (_replace("cpu0", np.zeros(9, dtype=np.int64)),
               r"cpu0 has shape \(9,\)"),
    "no-num-cpus": (_edit_meta(num_cpus=None), r"meta has bad num_cpus None"),
    "zero-cpus": (_edit_meta(num_cpus=0), r"meta has bad num_cpus 0"),
    "str-cpus": (_edit_meta(num_cpus="2"), r"meta has bad num_cpus '2'"),
    "no-metadata": (_edit_meta(metadata=None), r"meta has no metadata"),
    "bad-version": (_edit_meta(version=9), r"unsupported version 9"),
    "meta-not-json": (_replace("meta", np.array("{not json")),
                      r"meta is not JSON"),
    "meta-not-object": (_replace("meta", np.array("[1, 2]")),
                        r"meta is not a JSON object"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_member_rejected_with_trace_error(tmp_path, case):
    edit, message = CORRUPTIONS[case]
    path = _corrupt(tmp_path, edit)
    with pytest.raises(TraceError, match=r"t\.npz: " + message):
        npzio.load(path)


def _not_npz(path):
    with open(path, "wb") as fp:
        fp.write(b"op addr mode\n1 2 3\n")


def _empty(path):
    open(path, "wb").close()


def _truncated(path):
    npzio.save(sample_trace(), path)
    with open(path, "r+b") as fp:
        fp.truncate(80)


def _npy(path):
    with open(path, "wb") as fp:
        np.save(fp, np.zeros((2, 9), dtype=np.int64))


@pytest.mark.parametrize("write", [_not_npz, _empty, _truncated, _npy],
                         ids=["text", "empty", "truncated", "npy"])
def test_non_npz_file_rejected_with_trace_error(tmp_path, write):
    path = str(tmp_path / "t.npz")
    write(path)
    with pytest.raises(TraceError, match=r"t\.npz: not an npz archive"):
        npzio.load(path)


@pytest.mark.parametrize("command", ["simulate", "inspect"])
@pytest.mark.parametrize("edit", [_set("cpu0", 0, 0, 99),
                                  _set("blockops", 0, 1, 7)],
                         ids=["op-code", "blockop-kind"])
def test_cli_reports_corrupt_npz(tmp_path, capsys, command, edit):
    from repro.cli import main
    path = _corrupt(tmp_path, edit)
    argv = [command, path] + (["--config", "Base"]
                              if command == "simulate" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {command}: error: {path}: ")
    assert "Traceback" not in err


def test_cli_rejects_structurally_invalid_trace(tmp_path, capsys,
                                                broken_trace):
    """An npz trace whose members are well-formed but whose streams
    break a structural rule fails with an error line, not a traceback."""
    from repro.cli import main
    trace, message = broken_trace
    path = str(tmp_path / "bad.npz")
    npzio.save(trace, path)
    assert main(["simulate", path, "--config", "Base"]) == 2
    err = capsys.readouterr().err
    assert err == f"repro simulate: error: {path}: {message}\n"
    assert "Traceback" not in err
