"""Sweep-observability tests: monotonic durations and the
ledger/artifact hardening (repro.experiments).

Covers the clock-correctness contract (durations come from
``time.monotonic()`` and survive wall-clock steps), the "never raises,
never tears a line" :meth:`RunLedger.record` guarantee, and the
``artifact_corrupt`` ledger events emitted on quarantine.
"""

import json
import os
import time as real_time

import pytest

from repro.experiments import ledger as ledger_mod
from repro.experiments import parallel as parallel_mod
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.ledger import RunLedger, read_events
from repro.experiments.parallel import ParallelEngine

SCALE = 0.03
SEED = 9

#: One raw-trace cell and one block-scheme cell (same as test_faults):
#: a trace job plus two sim jobs, no slow derivation pipeline.
CELLS = [("Shell", "Base", None), ("Shell", "Blk_Dma", None)]


def _events(path):
    return [event["event"] for event in read_events(path)]


def _engine(tmp_path, **kw):
    return ParallelEngine(scale=SCALE, seed=SEED,
                          cache=ArtifactCache(tmp_path / "cache"), **kw)


# ----------------------------------------------------------------------
# Clock correctness (satellite: wall-clock vs monotonic durations)
# ----------------------------------------------------------------------
class BackwardsWallClock:
    """A ``time`` stand-in whose wall clock steps backwards on every
    read (a hostile NTP adjustment), with everything else real."""

    def __init__(self):
        self._wall = 1_000_000.0

    def time(self):
        self._wall -= 100.0
        return self._wall

    def __getattr__(self, name):  # monotonic, sleep, strftime, ...
        return getattr(real_time, name)


def test_durations_survive_backwards_wall_clock(tmp_path, monkeypatch):
    clock = BackwardsWallClock()
    monkeypatch.setattr(parallel_mod, "time", clock)
    monkeypatch.setattr(ledger_mod, "time", clock)
    engine = _engine(tmp_path, workers=1)
    results = engine.execute(CELLS)
    assert len(results) == 2
    events = read_events(engine.ledger_path)
    # The wall-clock ts stamps really did go backwards...
    stamps = [ev["ts"] for ev in events]
    assert stamps != sorted(stamps)
    # ...but every duration/elapsed field stayed non-negative.
    for ev in events:
        if "duration" in ev:
            assert ev["duration"] >= 0, ev
        if "elapsed" in ev:
            assert ev["elapsed"] >= 0, ev
    ends = [ev for ev in events if ev["event"] == "sweep_end"]
    assert ends and ends[-1]["ok"] and ends[-1]["elapsed"] >= 0


# ----------------------------------------------------------------------
# RunLedger.record hardening
# ----------------------------------------------------------------------
def test_record_degrades_unencodable_values_to_repr(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with RunLedger(str(path)) as ledger:
        ledger.record("finished", job="x", weird={1, 2},
                      obj=object(), duration=0.5)
        ledger.record("after")  # the file is not wedged
    events = read_events(str(path))
    assert [ev["event"] for ev in events] == ["finished", "after"]
    assert events[0]["duration"] == 0.5
    assert isinstance(events[0]["weird"], str)  # repr()-degraded


def test_record_never_tears_a_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with RunLedger(str(path)) as ledger:
        ledger.record("good", n=1)
        ledger.record("bad", junk=object())
        ledger.record("good", n=2)
    with open(path) as fp:
        for line in fp:
            json.loads(line)  # every line parses on its own
    assert [ev["event"] for ev in read_events(str(path))] \
        == ["good", "bad", "good"]


def test_null_ledger_discards_silently():
    ledger = RunLedger.null()
    ledger.record("anything", junk=object())
    assert ledger.path is None


# ----------------------------------------------------------------------
# artifact_corrupt ledger events (satellite: no silent swallowing)
# ----------------------------------------------------------------------
def _cache_files(root, suffix):
    return [os.path.join(dirpath, f)
            for dirpath, _dirs, files in os.walk(root)
            for f in files if f.endswith(suffix)]


def test_quarantine_records_artifact_corrupt_event(tmp_path):
    seed_cache = ArtifactCache(tmp_path / "cache")
    seed_cache.store_hotspots("q" * 64, [10, 20])
    (json_file,) = _cache_files(tmp_path / "cache", ".json")
    with open(json_file, "r+b") as fp:
        fp.seek(5)
        byte = fp.read(1)
        fp.seek(5)
        fp.write(bytes([byte[0] ^ 0xFF]))
    ledger_path = tmp_path / "ledger.jsonl"
    with RunLedger(str(ledger_path)) as ledger:
        cache = ArtifactCache(tmp_path / "cache", ledger=ledger)
        assert cache.load_hotspots("q" * 64) is None
    (event,) = read_events(str(ledger_path))
    assert event["event"] == "artifact_corrupt"
    assert event["stage"] == "hotspots"
    assert event["path"].endswith(".json")
    assert "error" in event and event["error"]


def test_malformed_payload_shape_quarantined_and_recorded(tmp_path):
    seed_cache = ArtifactCache(tmp_path / "cache")
    seed_cache.store_hotspots("m" * 64, [10, 20])
    (json_file,) = _cache_files(tmp_path / "cache", ".json")
    with open(json_file) as fp:
        envelope = json.load(fp)
    envelope["payload"] = ["ten", "twenty"]  # valid JSON, wrong shape
    with open(json_file, "w") as fp:
        json.dump(envelope, fp)
    os.unlink(json_file + ".sha256")  # keep the hash check out of the way
    ledger_path = tmp_path / "ledger.jsonl"
    with RunLedger(str(ledger_path)) as ledger:
        cache = ArtifactCache(tmp_path / "cache", ledger=ledger)
        assert cache.load_hotspots("m" * 64) is None
    assert cache.stats["hotspots.quarantine"] == 1
    (event,) = read_events(str(ledger_path))
    assert event["event"] == "artifact_corrupt"
    assert not os.path.exists(json_file)  # renamed out of the key space


def test_unexpected_exception_propagates(tmp_path, monkeypatch):
    """The narrowed except must not swallow genuine bugs."""
    from repro.trace import npzio
    cache = ArtifactCache(tmp_path / "cache")

    def boom(path, data=None):
        raise RuntimeError("a real bug, not corruption")

    monkeypatch.setattr(npzio, "load", boom)
    from repro.experiments.artifacts import stage_key
    key = stage_key("trace", SCALE, SEED, "Shell")
    # Entry must exist so the load path reaches npzio.load.
    from repro.synthetic.workloads import generate
    cache.store_trace(key, generate("Shell", seed=SEED, scale=0.01))
    with pytest.raises(RuntimeError):
        cache.load_trace(key)


def test_corrupt_artifact_event_reaches_sweep_ledger(tmp_path,
                                                     drop_stored_metrics):
    """End to end: a worker hitting a corrupt artifact writes the
    artifact_corrupt event into the shared sweep ledger."""
    engine = _engine(tmp_path, workers=1)
    engine.execute(CELLS)
    drop_stored_metrics(tmp_path / "cache")  # the sweep must read the trace
    (npz_file,) = _cache_files(tmp_path / "cache", ".npz")
    with open(npz_file, "r+b") as fp:
        fp.seek(64)
        byte = fp.read(1)
        fp.seek(64)
        fp.write(bytes([byte[0] ^ 0xFF]))
    fresh = _engine(tmp_path, workers=1)
    fresh.execute(CELLS)
    names = _events(fresh.ledger_path)
    assert "artifact_corrupt" in names
    assert "quarantined" in names  # the engine-side summary event too
