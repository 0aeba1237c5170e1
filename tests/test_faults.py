"""Fault-injection tests for the parallel engine (repro.experiments).

The engine's contract under faults: SIGKILL-ing a worker mid-sweep, a
job overrunning its wall-clock timeout, and a bit-flipped cache
artifact must each produce a *completed* sweep whose merged
``SystemMetrics`` snapshots are bit-identical to a clean serial run,
with the recovery visible in the JSONL run ledger.
"""

import glob
import os

import pytest

from repro.common.errors import JobFailedError
from repro.experiments import ledger as ledger_mod
from repro.experiments.artifacts import ArtifactCache, SimKey
from repro.experiments.faults import (FAULT_HANG, FAULT_KILL, FAULT_RAISE,
                                      RetryPolicy, arm_fault, consume_fault)
from repro.experiments.parallel import ParallelEngine
from repro.experiments.runner import ExperimentRunner

SCALE = 0.03
SEED = 9

#: One raw-trace cell and one block-scheme cell: exercises the trace job
#: plus two sim jobs without the (slow) derivation pipeline.
CELLS = [("Shell", "Base", None), ("Shell", "Blk_Dma", None)]

#: Fast backoff so retry storms do not slow the suite down.
FAST = dict(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


def _snapshots(results):
    return {key: metrics.snapshot() for key, metrics in results.items()}


def _events(path):
    return [event["event"] for event in ledger_mod.read_events(path)]


@pytest.fixture(scope="module")
def clean_serial():
    """Golden snapshot: every cell through ExperimentRunner.run, in
    process, no engine and no faults."""
    runner = ExperimentRunner(scale=SCALE, seed=SEED)
    return _snapshots({SimKey.of(w, c, runner.machine): runner.run(w, c)
                       for (w, c, _m) in CELLS})


def _engine(tmp_path, policy, fault_dir=None, workers=2):
    return ParallelEngine(scale=SCALE, seed=SEED,
                          cache=ArtifactCache(tmp_path / "cache"),
                          workers=workers, retry_policy=policy,
                          fault_dir=str(fault_dir) if fault_dir else None)


def _assert_matches_golden(clean_serial, results):
    got = _snapshots(results)
    assert set(got) == set(clean_serial)
    for key in clean_serial:
        assert got[key] == clean_serial[key], (
            f"metrics diverged from clean run for {key}")


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_deterministic_backoff():
    policy = RetryPolicy()
    a = [policy.delay(1996, "sim:Shell:Base:xyz", n) for n in (1, 2, 3)]
    b = [policy.delay(1996, "sim:Shell:Base:xyz", n) for n in (1, 2, 3)]
    assert a == b
    assert all(delay > 0 for delay in a)
    # Bounded: never above the cap, even at absurd attempt numbers.
    assert policy.delay(1996, "sim:Shell:Base:xyz", 40) <= policy.backoff_cap
    # Seed- and job-sensitive (different runs/jobs decorrelate).
    assert policy.delay(1997, "sim:Shell:Base:xyz", 1) != a[0] or \
        policy.delay(1996, "sim:Other", 1) != a[0]


def test_retry_policy_budget():
    policy = RetryPolicy(max_retries=2)
    assert not policy.exhausted(2)
    assert policy.exhausted(3)


def test_fault_markers_fire_exactly_once(tmp_path):
    arm_fault(str(tmp_path), FAULT_RAISE, "sim:Shell", count=2)
    assert consume_fault(str(tmp_path), "sim:Shell:Base:abc") == FAULT_RAISE
    assert consume_fault(str(tmp_path), "sim:Shell:Base:abc") == FAULT_RAISE
    assert consume_fault(str(tmp_path), "sim:Shell:Base:abc") is None
    assert consume_fault(str(tmp_path), "trace:Shell") is None  # no match
    assert consume_fault(None, "sim:Shell:Base:abc") is None


# ----------------------------------------------------------------------
# Scenario 1: worker death (SIGKILL mid-job)
# ----------------------------------------------------------------------
def test_worker_kill_recovers_bit_identical(clean_serial, tmp_path):
    faults = tmp_path / "faults"
    arm_fault(str(faults), FAULT_KILL, "sim:Shell:Blk_Dma", count=1)
    engine = _engine(tmp_path, RetryPolicy(**FAST), fault_dir=faults)
    results = engine.execute(CELLS)
    _assert_matches_golden(clean_serial, results)
    events = _events(engine.ledger_path)
    assert "pool_broken" in events
    assert "pool_rebuilt" in events
    assert "retried" in events
    assert events[0] == "sweep_start" and events[-1] == "sweep_end"
    # The killed job really was re-run.
    assert any(n >= 1 for job, n in engine.last_attempts.items()
               if job.startswith("sim:Shell:Blk_Dma"))


# ----------------------------------------------------------------------
# Scenario 2: hung job exceeding its wall-clock timeout
# ----------------------------------------------------------------------
def test_job_timeout_recovers_bit_identical(clean_serial, tmp_path):
    faults = tmp_path / "faults"
    arm_fault(str(faults), FAULT_HANG, "sim:Shell:Base", count=1)
    engine = _engine(tmp_path,
                     RetryPolicy(job_timeout=2.0, **FAST),
                     fault_dir=faults)
    results = engine.execute(CELLS)
    _assert_matches_golden(clean_serial, results)
    events = _events(engine.ledger_path)
    assert "timed_out" in events
    timed = [e for e in ledger_mod.read_events(engine.ledger_path)
             if e["event"] == "timed_out"]
    assert timed[0]["timeout"] == 2.0
    assert timed[0]["job"].startswith("sim:Shell:Base")


# ----------------------------------------------------------------------
# Scenario 3: bit-flipped cache artifact
# ----------------------------------------------------------------------
def test_corrupt_artifact_quarantined_bit_identical(clean_serial, tmp_path):
    warm = _engine(tmp_path, RetryPolicy(**FAST))
    warm.execute(CELLS)  # populate the cache
    (npz,) = glob.glob(str(tmp_path / "cache" / "v1" / "*" / "*.npz"))
    with open(npz, "r+b") as fp:  # flip one payload bit
        fp.seek(50)
        byte = fp.read(1)
        fp.seek(50)
        fp.write(bytes([byte[0] ^ 0xFF]))

    engine = _engine(tmp_path, RetryPolicy(**FAST))
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
                                                        tmp_path):
    """A 1-worker sweep keeps its traces in memory, but only for its own
    execute() call: the next engine reads the cache again, so a
    bit-flipped trace is quarantined and regenerated."""
    _engine(tmp_path, RetryPolicy(**FAST), workers=1).execute(CELLS)
    (npz,) = glob.glob(str(tmp_path / "cache" / "v1" / "*" / "*.npz"))
    with open(npz, "r+b") as fp:
        fp.seek(50)
        byte = fp.read(1)
        fp.seek(50)
        fp.write(bytes([byte[0] ^ 0xFF]))

    engine = _engine(tmp_path, RetryPolicy(**FAST), workers=1)
    _assert_matches_golden(clean_serial, engine.execute(CELLS))
    assert engine.last_stats["trace.quarantine"] == 1
    assert engine.last_stats["trace.store"] == 1
    assert os.path.exists(npz + ".quarantined")


# ----------------------------------------------------------------------
# Exhaustion, degradation, ledger plumbing
# ----------------------------------------------------------------------
def test_persistent_failure_raises_job_failed(tmp_path):
    faults = tmp_path / "faults"
    arm_fault(str(faults), FAULT_RAISE, "sim:Shell:Blk_Dma", count=10)
    engine = _engine(tmp_path,
                     RetryPolicy(max_retries=1, backoff_base=0.01),
                     fault_dir=faults)
    with pytest.raises(JobFailedError) as excinfo:
        engine.execute(CELLS)
    assert excinfo.value.job_id.startswith("sim:Shell:Blk_Dma")
    assert excinfo.value.attempts == 2  # first try + one retry
    events = _events(engine.ledger_path)
    assert "job_failed" in events
    assert events[-1] == "sweep_end"


def test_degrades_to_serial_when_pool_keeps_breaking(clean_serial, tmp_path):
    faults = tmp_path / "faults"
    arm_fault(str(faults), FAULT_KILL, "sim:Shell:Blk_Dma", count=1)
    engine = _engine(tmp_path,
                     RetryPolicy(max_pool_rebuilds=0, **FAST),
                     fault_dir=faults)
    results = engine.execute(CELLS)
    _assert_matches_golden(clean_serial, results)
    events = _events(engine.ledger_path)
    assert "degraded_serial" in events
    assert "pool_rebuilt" not in events


def test_rebuilt_pool_sized_by_remaining_jobs(tmp_path):
    """A pool rebuilt late in a sweep must be sized by the jobs still
    to run, not the full DAG (regression: rebuilds used len(jobs))."""
    from repro.common.params import BASE_MACHINE
    from repro.experiments.ledger import RunLedger
    from repro.experiments.parallel import _Scheduler, plan_jobs

    engine = ParallelEngine(scale=SCALE, seed=SEED, workers=8,
                            retry_policy=RetryPolicy(**FAST))
    cells = [("Shell", config, BASE_MACHINE)
             for config in ("Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref",
                            "Blk_Dma")]
    jobs = plan_jobs(cells, BASE_MACHINE)  # 1 trace + 5 sims
    assert len(jobs) == 6
    scheduler = _Scheduler(engine, jobs, str(tmp_path), RunLedger.null(),
                           verbose=False)
    scheduler.done_count = len(jobs) - 2  # only two jobs left to run
    assert scheduler._rebuild_pool()
    try:
        assert scheduler.pool._max_workers == 2
    finally:
        scheduler.pool.shutdown(wait=False, cancel_futures=True)


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
                              retry_policy=RetryPolicy(**FAST),
                              ledger_path=str(tmp_path / "sweep.jsonl"))
    results = runner.run_cells(CELLS)
    _assert_matches_golden(clean_serial, results)
    assert runner.last_ledger_path == str(tmp_path / "sweep.jsonl")
    assert os.path.exists(runner.last_ledger_path)


def test_ledger_summarize_renders(tmp_path):
    engine = _engine(tmp_path, RetryPolicy(**FAST))
    engine.execute(CELLS)
    text = ledger_mod.summarize(engine.ledger_path)
    assert "stage" in text and "sim" in text and "trace" in text
    assert "retried" in text
    assert ledger_mod.main([engine.ledger_path, "--summarize"]) == 0
    assert ledger_mod.main([str(tmp_path / "missing.jsonl")]) == 2
