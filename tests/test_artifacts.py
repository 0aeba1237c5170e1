"""Tests for the on-disk artifact cache (repro.experiments.artifacts)."""

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.common.params import BASE_MACHINE
from repro.common.units import KB
from repro.experiments.artifacts import (ArtifactCache, SimKey,
                                         machine_fingerprint, metrics_key,
                                         stage_key)
from repro.experiments.runner import ExperimentRunner
from repro.optim.update_select import UpdateSelection

SCALE = 0.05
SEED = 11


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A cache populated with every artifact kind by one runner."""
    root = tmp_path_factory.mktemp("artifact-cache")
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(root))
    runner.derive_all("Shell")
    return root, runner


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_machine_fingerprint_covers_every_parameter():
    base = machine_fingerprint(BASE_MACHINE)
    geometry = machine_fingerprint(BASE_MACHINE.with_l1d(size_bytes=16 * KB))
    # The old in-memory key only looked at cache geometry; the disk cache
    # must distinguish e.g. a different DMA beat rate too.
    dma = machine_fingerprint(dataclasses.replace(
        BASE_MACHINE, dma=dataclasses.replace(BASE_MACHINE.dma,
                                              bus_cycles_per_beat=4)))
    assert len({base, geometry, dma}) == 3
    assert machine_fingerprint(BASE_MACHINE) == base


def test_stage_key_distinguishes_inputs():
    keys = {
        stage_key("trace", 0.5, 1996, "Shell"),
        stage_key("trace", 0.5, 1996, "TRFD_4"),
        stage_key("trace", 0.5, 1997, "Shell"),
        stage_key("trace", 0.25, 1996, "Shell"),
        stage_key("update", 0.5, 1996, "Shell", machine=BASE_MACHINE),
        stage_key("hotspots", 0.5, 1996, "Shell", machine=BASE_MACHINE),
        stage_key("hotspots", 0.5, 1996, "Shell", machine=BASE_MACHINE,
                  extra={"count": 8}),
    }
    assert len(keys) == 7


def test_code_digest_changes_every_key(monkeypatch):
    """Every stage key and metrics key names the code: a stored artifact
    or result is never served to code that would compute another."""
    from repro.experiments import artifacts

    sim = SimKey.of("Shell", "Base", BASE_MACHINE)
    fingerprint = machine_fingerprint(BASE_MACHINE)

    def keys():
        return [
            stage_key("trace", 0.5, 1996, "Shell"),
            stage_key("update", 0.5, 1996, "Shell", machine=BASE_MACHINE),
            stage_key("hotspots", 0.5, 1996, "Shell", machine=BASE_MACHINE,
                      extra={"count": 12}),
            metrics_key(0.5, 1996, sim, fingerprint),
        ]

    before = keys()
    assert before == keys()  # one digest per process
    monkeypatch.setattr(artifacts, "code_digest", lambda: "0" * 16)
    after = keys()
    assert all(a != b for a, b in zip(before, after))


def test_memoized_fingerprint_matches_fresh_computation():
    """The memoized fingerprint of every machine a report sweeps equals
    one computed afresh from the parameters."""
    from repro.analysis.tables import MACHINE_POINTS, machine_point
    from repro.experiments.all import artifact_cells

    machines = {machine_point(cpus, assoc, bw)
                for (_label, cpus, assoc, bw) in MACHINE_POINTS}
    machines |= {m for name in ("figure6", "figure7")
                 for (_w, _c, m) in artifact_cells(name)}
    for machine in machines:
        assert machine_fingerprint(machine) == \
            machine_fingerprint.__wrapped__(machine)
        # An equal value built separately hits the same memo entry.
        twin = dataclasses.replace(machine)
        assert machine_fingerprint(twin) == machine_fingerprint(machine)


def _key_in_subprocess(_):
    return (stage_key("hotspots", 0.5, 1996, "Shell", machine=BASE_MACHINE,
                      extra={"count": 12}),
            machine_fingerprint(BASE_MACHINE))


def test_keys_stable_across_processes():
    """Workers and the parent must agree on every cache address."""
    parent = _key_in_subprocess(None)
    with ProcessPoolExecutor(max_workers=2) as pool:
        children = list(pool.map(_key_in_subprocess, range(2)))
    assert children == [parent, parent]


def test_simkey_is_typed_and_hashable():
    a = SimKey.of("Shell", "Base", BASE_MACHINE)
    b = SimKey.of("Shell", "Base", BASE_MACHINE)
    c = SimKey.of("Shell", "Base", BASE_MACHINE.with_l1d(size_bytes=16 * KB))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert {a: 1}[b] == 1


# ----------------------------------------------------------------------
# Round-trips of every artifact kind
# ----------------------------------------------------------------------
def test_roundtrip_all_artifact_kinds(warm, monkeypatch):
    """The raw trace, update selection and hot spots come back from disk;
    the privatized and prefetched traces, which are never stored, are
    rebuilt from them equal to the originals without a simulation."""
    from repro.experiments import runner as runner_module

    root, runner = warm
    reader = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(root))
    monkeypatch.setattr(runner_module, "simulate", None)  # must not run
    for name, original, restored in [
        ("trace", runner.trace("Shell"), reader.trace("Shell")),
        ("privatized", runner.privatized_trace("Shell"),
         reader.privatized_trace("Shell")),
        ("prefetched", runner.prefetched_trace("Shell"),
         reader.prefetched_trace("Shell")),
    ]:
        assert len(restored) == len(original), name
        assert restored.metadata == original.metadata, name
        for sa, sb in zip(original.columns, restored.columns):
            assert sa == sb, name
    assert reader.update_selection("Shell") == runner.update_selection("Shell")
    assert reader.hotspots("Shell") == runner.hotspots("Shell")
    # Everything above must have come from disk: no generation on reader.
    stats = reader.cache.stats
    assert stats["trace.hit"] == 1
    assert all(not event.endswith(".miss") or count == 0
               for event, count in stats.items()), dict(stats)
    # Only the raw trace was ever stored as npz.
    assert len(_cache_files(root, ".npz")) == 1


def test_update_selection_payload_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    selection = UpdateSelection(pages=[4096, 8192],
                                variables=["barrier0", "lock3"],
                                core_bytes=384, covered_misses=17)
    cache.store_update_selection("k" * 64, selection)
    assert cache.load_update_selection("k" * 64) == selection


def test_hotspots_payload_roundtrip(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_hotspots("h" * 64, [10, 20, 30])
    assert cache.load_hotspots("h" * 64) == [10, 20, 30]


# ----------------------------------------------------------------------
# Corruption and versioning
# ----------------------------------------------------------------------
def _cache_files(root, suffix):
    return [os.path.join(dirpath, f)
            for dirpath, _dirs, files in os.walk(root)
            for f in files if f.endswith(suffix)]


def test_truncated_trace_triggers_recompute(tmp_path):
    cache = ArtifactCache(tmp_path)
    runner = ExperimentRunner(scale=SCALE, seed=SEED, cache=cache)
    trace = runner.trace("Shell")
    (npz_file,) = _cache_files(tmp_path, ".npz")
    with open(npz_file, "r+b") as fp:  # truncate mid-archive
        fp.truncate(100)
    fresh = ArtifactCache(tmp_path)
    recomputed = ExperimentRunner(scale=SCALE, seed=SEED, cache=fresh)
    restored = recomputed.trace("Shell")  # must not raise
    assert len(restored) == len(trace)
    assert fresh.stats["trace.corrupt"] == 1
    assert fresh.stats["trace.store"] == 1  # recomputed and re-stored


def test_garbage_json_triggers_recompute(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_hotspots("g" * 64, [1, 2, 3])
    (json_file,) = _cache_files(tmp_path, ".json")
    with open(json_file, "w") as fp:
        fp.write("{not json")
    fresh = ArtifactCache(tmp_path)
    assert fresh.load_hotspots("g" * 64) is None
    assert not os.path.exists(json_file)  # bad entry evicted


def test_version_mismatch_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_hotspots("v" * 64, [1, 2])
    (json_file,) = _cache_files(tmp_path, ".json")
    with open(json_file) as fp:
        envelope = json.load(fp)
    envelope["version"] = 999
    with open(json_file, "w") as fp:
        json.dump(envelope, fp)
    assert ArtifactCache(tmp_path).load_hotspots("v" * 64) is None


def test_store_writes_hash_sidecar(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_hotspots("s" * 64, [1, 2, 3])
    (json_file,) = _cache_files(tmp_path, ".json")
    assert os.path.exists(json_file + ".sha256")


def test_bitflip_quarantines_instead_of_deleting(tmp_path):
    """A tampered entry is renamed to *.quarantined (evidence kept),
    counted, and treated as a miss."""
    cache = ArtifactCache(tmp_path)
    cache.store_hotspots("q" * 64, [10, 20])
    (json_file,) = _cache_files(tmp_path, ".json")
    with open(json_file, "r+b") as fp:
        fp.seek(5)
        byte = fp.read(1)
        fp.seek(5)
        fp.write(bytes([byte[0] ^ 0xFF]))
    fresh = ArtifactCache(tmp_path)
    assert fresh.load_hotspots("q" * 64) is None
    assert fresh.stats["hotspots.quarantine"] == 1
    assert fresh.quarantines() == 1
    assert "quarantined" in fresh.summary()
    assert not os.path.exists(json_file)
    assert os.path.exists(json_file + ".quarantined")
    # The slot is reusable: a re-store round-trips again.
    fresh.store_hotspots("q" * 64, [10, 20])
    assert fresh.load_hotspots("q" * 64) == [10, 20]


def test_legacy_entry_without_sidecar_still_loads(tmp_path):
    """Caches written before hash sidecars existed must stay readable."""
    cache = ArtifactCache(tmp_path)
    cache.store_hotspots("l" * 64, [7])
    (json_file,) = _cache_files(tmp_path, ".json")
    os.unlink(json_file + ".sha256")
    fresh = ArtifactCache(tmp_path)
    assert fresh.load_hotspots("l" * 64) == [7]
    assert fresh.stats["hotspots.hit"] == 1


def test_trace_bitflip_quarantines_and_recomputes(tmp_path):
    cache = ArtifactCache(tmp_path)
    runner = ExperimentRunner(scale=SCALE, seed=SEED, cache=cache)
    trace = runner.trace("Shell")
    (npz_file,) = _cache_files(tmp_path, ".npz")
    with open(npz_file, "r+b") as fp:  # payload bytes change, size kept
        fp.seek(64)
        byte = fp.read(1)
        fp.seek(64)
        fp.write(bytes([byte[0] ^ 0xFF]))
    fresh = ArtifactCache(tmp_path)
    recomputed = ExperimentRunner(scale=SCALE, seed=SEED, cache=fresh)
    restored = recomputed.trace("Shell")
    assert len(restored) == len(trace)
    assert fresh.stats["trace.quarantine"] == 1
    assert fresh.stats["trace.store"] == 1
    assert os.path.exists(npz_file + ".quarantined")


def test_cold_cache_counts_misses(tmp_path):
    cache = ArtifactCache(tmp_path)
    runner = ExperimentRunner(scale=SCALE, seed=SEED, cache=cache)
    runner.trace("Shell")
    assert cache.stats["trace.miss"] == 1
    assert cache.stats["trace.store"] == 1
    assert cache.summary().endswith("1 stores")


# ----------------------------------------------------------------------
# Cached simulation results (the engine's warm path)
# ----------------------------------------------------------------------
def test_metrics_key_distinguishes_profiling_machine():
    sim = SimKey.of("Shell", "Base", BASE_MACHINE)
    fingerprint = machine_fingerprint(BASE_MACHINE)
    keys = {
        metrics_key(0.5, 1996, sim, fingerprint),
        metrics_key(0.5, 1997, sim, fingerprint),
        metrics_key(0.25, 1996, sim, fingerprint),
        metrics_key(0.5, 1996, SimKey.of("Shell", "Blk_Dma", BASE_MACHINE),
                    fingerprint),
        # Same simulated machine, different profiling machine: distinct
        # (Figures 6-7 sweep hardware under a Base-tuned kernel).
        metrics_key(0.5, 1996, sim, "other-profiling-machine"),
    }
    assert len(keys) == 5


def test_metrics_roundtrip_is_exact(tmp_path):
    runner = ExperimentRunner(scale=SCALE, seed=SEED)
    metrics = runner.run("Shell", "Base")
    cache = ArtifactCache(tmp_path)
    cache.store_metrics("m" * 64, metrics)
    restored = cache.load_metrics("m" * 64)
    assert restored is not None
    assert restored.snapshot() == metrics.snapshot()
    assert cache.stats["metrics.store"] == 1
    assert cache.stats["metrics.hit"] == 1
    assert cache.load_metrics("n" * 64) is None
    assert cache.stats["metrics.miss"] == 1
    # Deterministic results are stored at most once: a repeat store of
    # the same key is a no-op, so warm sweeps stay store-free.
    cache.store_metrics("m" * 64, metrics)
    assert cache.stats["metrics.store"] == 1


def test_malformed_metrics_snapshot_quarantined(tmp_path):
    cache = ArtifactCache(tmp_path)
    # Valid JSON with a correct hash sidecar, but not a snapshot: the
    # from_snapshot restore fails and the entry is quarantined.
    cache.store_json("q" * 64, {"num_cpus": 4}, "metrics")
    fresh = ArtifactCache(tmp_path)
    assert fresh.load_metrics("q" * 64) is None
    assert fresh.stats["metrics.corrupt"] == 1
    assert fresh.stats["metrics.quarantine"] == 1
    quarantined = _cache_files(tmp_path, ".quarantined")
    assert any(path.endswith(".json.quarantined") for path in quarantined)
