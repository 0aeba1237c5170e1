"""Typed-failure tests for the parallel engine (repro.experiments).

The engine's contract under failure: a job that raises, in process or
in a pool worker, or a worker process that dies, ends the sweep at once
with a :class:`JobFailedError` naming the job and its cell, with no
retry, no worker left running and the ledger closed by ``job_failed``
and ``sweep_end ok=false``.  A bit-flipped cache artifact is not a
failure: it is quarantined and regenerated, and the sweep's merged
``SystemMetrics`` snapshots stay bit-identical to a clean serial run.
"""

import glob
import multiprocessing
import os
import signal
import time

import pytest

from repro.common.errors import JobFailedError
from repro.experiments import ledger as ledger_mod
from repro.experiments import runner as runner_mod
from repro.experiments.artifacts import ArtifactCache, SimKey
from repro.experiments.parallel import ParallelEngine
from repro.experiments.runner import ExperimentRunner

SCALE = 0.03
SEED = 9

#: One raw-trace cell and one block-scheme cell: exercises the trace job
#: plus two sim jobs without the (slow) derivation pipeline.
CELLS = [("Shell", "Base", None), ("Shell", "Blk_Dma", None)]

#: The config the failure tests make fail.
FAILING = "Blk_Dma"

#: The pid of the test process; a patched simulate kills only workers.
TEST_PID = os.getpid()

_simulate = runner_mod.simulate


def _snapshots(results):
    return {key: metrics.snapshot() for key, metrics in results.items()}


def _events(path):
    return [event["event"] for event in ledger_mod.read_events(path)]


@pytest.fixture(scope="module")
def clean_serial():
    """Golden snapshot: every cell through ExperimentRunner.run, in
    process, no engine."""
    runner = ExperimentRunner(scale=SCALE, seed=SEED)
    return _snapshots({SimKey.of(w, c, runner.machine): runner.run(w, c)
                       for (w, c, _m) in CELLS})


def _engine(tmp_path, workers=2):
    return ParallelEngine(scale=SCALE, seed=SEED,
                          cache=ArtifactCache(tmp_path / "cache"),
                          workers=workers)


def _assert_matches_golden(clean_serial, results):
    got = _snapshots(results)
    assert set(got) == set(clean_serial)
    for key in clean_serial:
        assert got[key] == clean_serial[key], (
            f"metrics diverged from clean run for {key}")


def _flip_trace_byte(tmp_path, offset=50):
    (npz,) = glob.glob(str(tmp_path / "cache" / "v1" / "*" / "*.npz"))
    with open(npz, "r+b") as fp:  # flip one payload bit
        fp.seek(offset)
        byte = fp.read(1)
        fp.seek(offset)
        fp.write(bytes([byte[0] ^ 0xFF]))
    return npz


# ----------------------------------------------------------------------
# Fail fast: a raising job, a dead worker
# ----------------------------------------------------------------------
def _raise_for_failing(trace, config, *args, **kwargs):
    if config.name == FAILING:
        raise RuntimeError(f"injected failure simulating {config.name}")
    return _simulate(trace, config, *args, **kwargs)


def _kill_worker_for_failing(trace, config, *args, **kwargs):
    if config.name == FAILING and os.getpid() != TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _simulate(trace, config, *args, **kwargs)


def _assert_failed_sweep(engine):
    """The ledger of a failed sweep holds job events only (no retry,
    timeout or pool event of any kind) and ends ``job_failed`` then
    ``sweep_end ok=false``."""
    events = ledger_mod.read_events(engine.ledger_path)
    names = [ev["event"] for ev in events]
    assert set(names) <= {"sweep_start", "scheduled", "finished",
                          "job_failed", "sweep_end"}
    assert names[-2:] == ["job_failed", "sweep_end"]
    assert events[-1]["ok"] is False
    assert multiprocessing.active_children() == []
    return events


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_job_fails_fast(tmp_path, monkeypatch, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched simulate only when forked")
    sleeps = []
    monkeypatch.setattr(runner_mod, "simulate", _raise_for_failing)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    engine = _engine(tmp_path, workers=workers)
    with pytest.raises(JobFailedError) as excinfo:
        engine.execute(CELLS)
    err = excinfo.value
    assert err.job_id.startswith(f"sim:Shell:{FAILING}:")
    workload, config, machine = err.cell
    assert (workload, config) == ("Shell", FAILING)
    assert err.job_id.endswith(machine)
    assert err.in_flight == (err.job_id,)
    assert isinstance(err.__cause__, RuntimeError)
    assert "injected failure" in str(err) and FAILING in str(err)
    assert sleeps == []  # no backoff
    events = _assert_failed_sweep(engine)
    scheduled = [ev for ev in events if ev["event"] == "scheduled"
                 and ev["job"] == err.job_id]
    assert len(scheduled) == 1
    assert events[-2]["job"] == err.job_id
    assert events[-2]["cell"] == list(err.cell)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers see the patched simulate only "
                           "when forked")
def test_killed_worker_fails_fast(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "simulate", _kill_worker_for_failing)
    engine = _engine(tmp_path, workers=2)
    with pytest.raises(JobFailedError) as excinfo:
        engine.execute(CELLS)
    err = excinfo.value
    assert "worker process died" in str(err)
    assert err.job_id == "" and err.cell == ()
    killed = [job for job in err.in_flight
              if job.startswith(f"sim:Shell:{FAILING}:")]
    assert len(killed) == 1 and killed[0] in str(err)
    events = _assert_failed_sweep(engine)
    assert events[-2]["in_flight"] == list(err.in_flight)
    scheduled = [ev["job"] for ev in events if ev["event"] == "scheduled"]
    assert scheduled.count(killed[0]) == 1


# ----------------------------------------------------------------------
# Bit-flipped cache artifact: quarantined, regenerated, bit-identical
# ----------------------------------------------------------------------
def test_corrupt_artifact_quarantined_bit_identical(clean_serial, tmp_path,
                                                   drop_stored_metrics):
    _engine(tmp_path).execute(CELLS)  # populate the cache
    drop_stored_metrics(tmp_path / "cache")  # the sweep must read the trace
    npz = _flip_trace_byte(tmp_path)

    engine = _engine(tmp_path)
    results = engine.execute(CELLS)
    _assert_matches_golden(clean_serial, results)
    quarantined = glob.glob(str(tmp_path / "cache" / "v1" / "*"
                                / "*.quarantined"))
    assert any(q.endswith(".npz.quarantined") for q in quarantined)
    assert os.path.exists(npz)  # regenerated in place
    events = _events(engine.ledger_path)
    assert "quarantined" in events
    assert engine.last_stats["trace.quarantine"] == 1


def test_corrupt_trace_quarantined_by_next_serial_engine(clean_serial,
                                                        tmp_path,
                                                        drop_stored_metrics):
    """A 1-worker sweep keeps its traces in memory, but only for its own
    execute() call: the next engine reads the cache again, so a
    bit-flipped trace is quarantined and regenerated."""
    _engine(tmp_path, workers=1).execute(CELLS)
    drop_stored_metrics(tmp_path / "cache")  # the sweep must read the trace
    npz = _flip_trace_byte(tmp_path)

    engine = _engine(tmp_path, workers=1)
    _assert_matches_golden(clean_serial, engine.execute(CELLS))
    assert engine.last_stats["trace.quarantine"] == 1
    assert engine.last_stats["trace.store"] == 1
    assert os.path.exists(npz + ".quarantined")


# ----------------------------------------------------------------------
# Ledger plumbing
# ----------------------------------------------------------------------
def test_serial_engine_writes_ledger(clean_serial, tmp_path):
    """workers=1 runs in-process yet still ledgers every event."""
    ledger_path = tmp_path / "run.jsonl"
    engine = ParallelEngine(scale=SCALE, seed=SEED,
                            cache=ArtifactCache(tmp_path / "cache"),
                            workers=1, ledger_path=str(ledger_path))
    results = engine.execute(CELLS)
    _assert_matches_golden(clean_serial, results)
    assert engine.ledger_path == str(ledger_path)
    events = _events(str(ledger_path))
    assert events.count("finished") == 3  # trace + 2 sims
    assert events[0] == "sweep_start" and events[-1] == "sweep_end"


def test_back_to_back_sweeps_get_their_own_ledgers(monkeypatch, tmp_path):
    """Two engines without a ledger path that sweep one cache within
    the same second each write a ledger of their own sweep only."""
    monkeypatch.setattr(ledger_mod.time, "strftime",
                        lambda *args: "20260101-000000")
    paths = []
    for _ in range(2):
        engine = ParallelEngine(scale=SCALE, seed=SEED,
                                cache=ArtifactCache(tmp_path / "cache"),
                                workers=1)
        engine.execute(CELLS[:1])
        paths.append(engine.ledger_path)
    assert paths[0] != paths[1]
    for path in paths:
        assert _events(path).count("sweep_start") == 1


def test_runner_threads_policy_and_ledger_through(clean_serial, tmp_path):
    runner = ExperimentRunner(scale=SCALE, seed=SEED,
                              cache=ArtifactCache(tmp_path / "cache"),
                              workers=2,
                              ledger_path=str(tmp_path / "sweep.jsonl"))
    results = runner.run_cells(CELLS)
    _assert_matches_golden(clean_serial, results)
    assert runner.last_ledger_path == str(tmp_path / "sweep.jsonl")
    assert os.path.exists(runner.last_ledger_path)


def test_ledger_summarize_renders(tmp_path, monkeypatch,
                                  drop_stored_metrics):
    engine = _engine(tmp_path)
    engine.execute(CELLS)
    text = ledger_mod.summarize(engine.ledger_path)
    assert "stage" in text and "sim" in text and "trace" in text
    assert "throughput:" in text and "job_failed" in text
    assert ledger_mod.main([engine.ledger_path, "--summarize"]) == 0
    assert ledger_mod.main([str(tmp_path / "missing.jsonl")]) == 2

    monkeypatch.setattr(runner_mod, "simulate", _raise_for_failing)
    drop_stored_metrics(tmp_path / "cache")  # the sweep must simulate
    failing = _engine(tmp_path, workers=1)
    with pytest.raises(JobFailedError):
        failing.execute(CELLS)
    text = ledger_mod.summarize(failing.ledger_path)
    assert "failed:" in text and "injected failure" in text
