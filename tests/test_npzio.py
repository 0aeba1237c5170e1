"""Round-trip tests for binary trace serialization (repro.trace.npzio)."""

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.common.types import DataClass, Mode
from repro.trace import npzio, textio
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder


def sample_trace():
    b = TraceBuilder(2)
    b.symbols.add("proc_table", 0x1000, 512, DataClass.PROC_TABLE)
    b.symbols.add("vmmeter", 0x2000, 64, DataClass.INFREQ_COMM)
    b.trace.metadata.update({"workload": "x", "seed": 5, "scale": 0.25})
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
    for a, b in zip(original.streams, restored.streams):
        assert a == b
    assert len(restored.blockops) == len(original.blockops)
    assert restored.symbols.names() == original.symbols.names()
    restored.validate()


def test_roundtrip_matches_text_format(tmp_path):
    original = sample_trace()
    path = str(tmp_path / "t.npz")
    npzio.save(original, path)
    restored = npzio.load(path)
    assert textio.dumps(restored) == textio.dumps(original)


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
    from repro.trace.stream import Trace
    trace = Trace(1)
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
