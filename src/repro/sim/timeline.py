"""Execution-timeline recording, for debugging and demonstration.

A :class:`TimelineRecorder` observes a :class:`MultiprocessorSystem` and
captures a bounded window of per-CPU scheduling decisions — which record
each processor executed, at what simulated time, and how long it took.
:func:`render_timeline` draws the window as a per-CPU lane chart so the
interleaving (bus serialization, lock spins, barrier waits, DMA holds) can
be inspected directly.

This is a development tool: recording every step of a full workload would
be enormous, so the recorder keeps only the first ``limit`` events.

Instrumentation contract: the recorder is a
:class:`~repro.memsys.sink.Probe` whose ``step`` hook the scheduler calls
after every processor step.  Constructing it attaches it to the system;
:meth:`TimelineRecorder.run` detaches it when the run completes (as does
an explicit :meth:`TimelineRecorder.detach`), so a system can be
recorded, re-run, and re-recorded.  Attaching a second recorder to a
system that already has one raises
:class:`~repro.common.errors.SimulationError` instead of silently
double-counting every step.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.common.types import Op
from repro.memsys.sink import Probe
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


class TimelineRecorder(Probe):
    """Records the first *limit* scheduling steps of a system run."""

    def __init__(self, system: MultiprocessorSystem, limit: int = 1000) -> None:
        self.system = system
        self.limit = limit
        self.events: List[TimelineEvent] = []
        system.attach(self)

    def step(self, proc, start: int, pos: int, result) -> None:
        if pos < proc.num_records and len(self.events) < self.limit:
            rec = proc.record(pos)
            self.events.append(TimelineEvent(
                cpu=proc.cpu_id, start=start, end=proc.time,
                op=Op(rec.op).name, addr=rec.addr,
                status=result.status.value))

    def detach(self) -> None:
        """Unsubscribe from the system; idempotent."""
        self.system.detach(self)

    def run(self):
        """Run the observed system; detaches on the way out."""
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
