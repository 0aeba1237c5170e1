"""Execution-timeline recording, for debugging and demonstration.

A :class:`TimelineRecorder` wraps a :class:`MultiprocessorSystem` and
captures a bounded window of per-CPU scheduling decisions — which record
each processor executed, at what simulated time, and how long it took.
:func:`render_timeline` draws the window as a per-CPU lane chart so the
interleaving (bus serialization, lock spins, barrier waits, DMA holds) can
be inspected directly.

This is a development tool: recording every step of a full workload would
be enormous, so the recorder keeps only the first ``limit`` events.

Instrumentation contract: attaching wraps each ``proc.step`` on the
instance and **restores it** when :meth:`TimelineRecorder.run` completes
(or on an explicit :meth:`TimelineRecorder.detach`), so a system can be
recorded, re-run, and re-recorded without stacking wrappers.  Attaching
a second recorder to an already-instrumented system raises
:class:`~repro.common.errors.SimulationError` instead of silently
double-counting every step.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.types import Op
from repro.sim.processor import ProcStatus
from repro.sim.system import MultiprocessorSystem


@dataclasses.dataclass(frozen=True)
class TimelineEvent:
    """One processor step."""

    cpu: int
    start: int
    end: int
    op: str
    addr: int
    status: str


class TimelineRecorder:
    """Records the first *limit* scheduling steps of a system run."""

    def __init__(self, system: MultiprocessorSystem, limit: int = 1000) -> None:
        self.system = system
        self.limit = limit
        self.events: List[TimelineEvent] = []
        #: cpu_id -> (had instance attr, previous step, our wrapper);
        #: emptied by detach().
        self._originals: Dict[int, Tuple[bool, object, object]] = {}
        self._instrument()

    def _instrument(self) -> None:
        if self._originals:
            raise SimulationError("TimelineRecorder is already attached")
        for proc in self.system.processors:
            if getattr(proc.step, "_timeline_wrapper", False):
                raise SimulationError(
                    f"cpu {proc.cpu_id} is already instrumented by "
                    f"another TimelineRecorder; detach it first")
        for proc in self.system.processors:
            original_step = proc.step
            had_instance_attr = "step" in proc.__dict__

            def step(proc=proc, original_step=original_step):
                start = proc.time
                pos = proc.pos
                rec = proc.record(pos) if pos < proc.num_records else None
                result = original_step()
                if rec is not None and len(self.events) < self.limit:
                    self.events.append(TimelineEvent(
                        cpu=proc.cpu_id, start=start, end=proc.time,
                        op=Op(rec.op).name, addr=rec.addr,
                        status=result.status.value))
                return result

            step._timeline_wrapper = True
            self._originals[proc.cpu_id] = (had_instance_attr,
                                            original_step, step)
            proc.step = step

    def detach(self) -> None:
        """Restore every wrapped ``proc.step``; idempotent.

        A ``step`` that was re-monkeypatched *on top of* our wrapper
        (e.g. by a test) is left alone — restoring underneath it would
        silently discard that wrapper.
        """
        for proc in self.system.processors:
            entry = self._originals.pop(proc.cpu_id, None)
            if entry is None:
                continue
            had_instance_attr, original_step, wrapper = entry
            if proc.__dict__.get("step") is not wrapper:
                continue
            if had_instance_attr:
                proc.step = original_step
            else:
                del proc.__dict__["step"]
        self._originals.clear()

    def run(self):
        """Run the wrapped system; detaches the wrappers on the way out."""
        try:
            return self.system.run()
        finally:
            self.detach()

    def events_for(self, cpu: int) -> List[TimelineEvent]:
        return [e for e in self.events if e.cpu == cpu]

    def window(self) -> Optional[range]:
        """Simulated-time span covered by the recording."""
        if not self.events:
            return None
        return range(min(e.start for e in self.events),
                     max(e.end for e in self.events) + 1)


_LANE_GLYPH = {
    "READ": "r", "WRITE": "w", "PREFETCH": "p", "LOCK_ACQ": "L",
    "LOCK_REL": "l", "BARRIER": "B", "BLOCK_START": "[", "BLOCK_END": "]",
}


def render_timeline(recorder: TimelineRecorder, width: int = 72,
                    cycles: Optional[int] = None) -> str:
    """Draw the recorded window as one lane per CPU.

    Each column is a bucket of simulated cycles; the glyph shows the kind
    of record the CPU was executing there (capitals mark synchronization;
    ``[``/``]`` bracket block operations; ``.`` is unattributed time —
    stalls and waits).
    """
    # Function-level import: the analysis package init is heavy and this
    # sim-layer module must stay importable without it.
    from repro.analysis.timeline_view import bucket_span

    window = recorder.window()
    if window is None:
        return "(no events recorded)"
    span = cycles if cycles is not None else (window.stop - window.start)
    span = max(1, span)
    start = window.start
    lanes = []
    num_cpus = len(recorder.system.processors)
    for cpu in range(num_cpus):
        lane = ["."] * width
        for event in recorder.events_for(cpu):
            if event.start >= start + span:
                continue
            lo, hi = bucket_span(event.start, event.end, start, span, width)
            glyph = _LANE_GLYPH.get(event.op, "?")
            for col in range(lo, hi):
                lane[col] = glyph
        lanes.append(f"cpu{cpu} |{''.join(lane)}|")
    header = (f"timeline: cycles {start:,}..{start + span:,} "
              f"({len(recorder.events)} events)")
    legend = ("legend: r/w data, p prefetch, L/l lock acq/rel, B barrier, "
              "[ ] block op, . stall/idle")
    return "\n".join([header, legend] + lanes)
