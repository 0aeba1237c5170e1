"""Tests for the timeline recorder (repro.sim.timeline)."""

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import MultiprocessorSystem
from repro.sim.timeline import TimelineRecorder, render_timeline
from repro.trace import record as rec
from repro.trace.stream import TraceBuilder


def small_system():
    b = TraceBuilder(2)
    for cpu in range(2):
        for i in range(20):
            b.emit(cpu, rec.read(0x10000 * (cpu + 1) + i * 16, icount=2))
        b.emit(cpu, rec.lock_acquire(0x100))
        b.emit(cpu, rec.write(0x200, icount=2))
        b.emit(cpu, rec.lock_release(0x100))
        b.emit(cpu, rec.barrier(0x300, 2))
    b.emit_block_copy(0, src=0x40000, dst=0x51000, size=128)
    return MultiprocessorSystem(b.build(), SystemConfig("t"))


def test_recorder_captures_events():
    recorder = TimelineRecorder(small_system())
    metrics = recorder.run()
    assert metrics.makespan > 0
    assert recorder.events
    assert {e.cpu for e in recorder.events} == {0, 1}


def test_events_are_time_ordered_per_cpu():
    recorder = TimelineRecorder(small_system())
    recorder.run()
    for cpu in (0, 1):
        events = recorder.events_for(cpu)
        starts = [e.start for e in events]
        assert starts == sorted(starts)
        assert all(e.end >= e.start for e in events)


def test_limit_respected():
    recorder = TimelineRecorder(small_system(), limit=5)
    recorder.run()
    assert len(recorder.events) == 5


def test_window_covers_events():
    recorder = TimelineRecorder(small_system())
    recorder.run()
    window = recorder.window()
    assert window is not None
    assert all(window.start <= e.start and e.end <= window.stop
               for e in recorder.events)


def test_render_timeline():
    recorder = TimelineRecorder(small_system())
    recorder.run()
    out = render_timeline(recorder, width=60)
    assert "cpu0 |" in out and "cpu1 |" in out
    assert "legend" in out
    # Reads, locks and barriers appear in the lanes.
    assert "r" in out
    assert "L" in out
    assert "B" in out
    # Lane width respected.
    for line in out.splitlines():
        if line.startswith("cpu"):
            assert len(line.split("|")[1]) == 60


def test_render_empty():
    b = TraceBuilder(1)
    system = MultiprocessorSystem(b.build(), SystemConfig("t"))
    recorder = TimelineRecorder(system)
    recorder.run()
    assert render_timeline(recorder) == "(no events recorded)"


def test_metrics_unaffected_by_recording():
    plain = small_system().run()
    recorder = TimelineRecorder(small_system())
    recorded = recorder.run()
    assert recorded.makespan == plain.makespan
    assert recorded.os_read_misses() == plain.os_read_misses()


def _components(system):
    return [system, system.bus, system.controller, *system.memories,
            *system.processors]


def test_run_detaches_wrappers():
    system = small_system()
    before = system.probe  # the checker under REPRO_CHECK, else None
    recorder = TimelineRecorder(system)
    assert recorder in system.probes
    assert all(c.probe is not before for c in _components(system))
    recorder.run()
    # run() unsubscribed the recorder from every component.
    assert recorder not in system.probes
    assert all(c.probe is before for c in _components(system))


def test_detach_is_idempotent():
    system = small_system()
    before = system.probe
    recorder = TimelineRecorder(system)
    recorder.detach()
    recorder.detach()
    assert recorder not in system.probes
    assert all(c.probe is before for c in _components(system))
    for proc in system.processors:
        assert "step" not in proc.__dict__


def test_double_attach_raises():
    from repro.common.errors import SimulationError
    system = small_system()
    recorder = TimelineRecorder(system)
    with pytest.raises(SimulationError):
        TimelineRecorder(system)
    # The failed attach must not have clobbered the first recorder.
    recorder.run()
    assert recorder.events


def test_reattach_after_detach_records_fresh():
    system = small_system()
    first = TimelineRecorder(system, limit=5)
    first.run()
    # A second recorder on the *same* (finished) system attaches cleanly
    # and wraps exactly once; with the streams done it records nothing.
    second = TimelineRecorder(system, limit=5)
    second.run()
    assert len(first.events) == 5
    assert second.events == []
    # And on a fresh system the full record/replay cycle works again.
    third = TimelineRecorder(small_system(), limit=5)
    third.run()
    assert len(third.events) == 5

