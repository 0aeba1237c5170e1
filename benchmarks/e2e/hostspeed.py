"""Host-speed probe: turns host seconds into reference seconds.

Host speed on small shared machines switches between levels about 1.6x
apart every few seconds, which alone moves a 20-second sweep by 10%.
Every time the benchmark reports is therefore scaled by probes taken
next to it: a fixed pure-Python kernel whose time is divided into
:data:`PROBE_REF_S`.  A *reference second* is what a span would take on
a host where the probe runs in ``PROBE_REF_S``.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from typing import Dict, List, Sequence

#: Loop iterations of one probe kernel run (about 3 ms).
PROBE_ITERS = 20_000
#: Probe time that defines one reference second: the median probe on an
#: uncontended core of a 2.1 GHz Xeon (Sapphire Rapids) KVM guest.
PROBE_REF_S = 0.003
#: CPU seconds between the probes a :class:`Sampler` takes.
SAMPLE_PERIOD_S = 0.2


def _kernel() -> float:
    table: Dict[int, int] = {}
    acc = 0
    start = time.perf_counter()
    for i in range(PROBE_ITERS):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of one probe: the median of three kernel runs.

    The collector is paused so a full collection of the pipeline's heap
    cannot land inside the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_kernel() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


def factor(*probes: float) -> float:
    """Reference seconds per host second around the given probes."""
    return PROBE_REF_S / statistics.fmean(probes)


def scaled(durations: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Reference-second values of *durations*.

    ``probes[i]`` was taken just before ``durations[i]`` and
    ``probes[i + 1]`` just after it.
    """
    if len(probes) != len(durations) + 1:
        raise ValueError("need one probe before and after every span")
    return [d * factor(probes[i], probes[i + 1])
            for i, d in enumerate(durations)]


class Sampler:
    """Probes taken every :data:`SAMPLE_PERIOD_S` of CPU time.

    Used as a context manager around a sweep: a ``SIGPROF`` timer takes
    a probe in the main thread every period, wherever the sweep is.
    The host time between two probes is scaled by the mean of the two.
    Once the sampler has stopped, :meth:`reference` and :meth:`busy`
    give the time of any interval inside it, with probe time left out.
    """

    def __init__(self) -> None:
        #: ``(start, end, probe seconds)`` of every probe, in time order.
        self.samples: List[tuple] = []
        self._previous = None
        self._taking = False
        self._starts: List[float] = []
        self._ref: List[float] = []
        self._busy: List[float] = []

    def _take(self, *_signal) -> None:
        if self._taking:  # the period ran out inside a probe
            return
        self._taking = True
        try:
            start = time.perf_counter()
            seconds = probe()
            self.samples.append((start, time.perf_counter(), seconds))
        finally:
            self._taking = False

    def __enter__(self) -> "Sampler":
        self._take()
        self._previous = signal.signal(signal.SIGPROF, self._take)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._take()
        # Reference and busy seconds from the first probe's start to
        # each probe's start.
        self._starts = [start for start, _end, _p in self.samples]
        self._ref, self._busy = [0.0], [0.0]
        for (_s, end, before), (start, _e, after) in zip(self.samples,
                                                         self.samples[1:]):
            self._ref.append(self._ref[-1]
                             + (start - end) * factor(before, after))
            self._busy.append(self._busy[-1] + start - end)

    def _clock(self, instant: float, cumulative: List[float],
               scale: bool) -> float:
        """Seconds from the first probe's start to *instant*."""
        i = bisect.bisect_right(self._starts, instant) - 1
        # The gap after probe i, or the nearest one outside the window.
        gap = min(max(i, 0), len(self.samples) - 2)
        rate = (factor(self.samples[gap][2], self.samples[gap + 1][2])
                if scale else 1.0)
        if i < 0:
            return (instant - self._starts[0]) * rate
        end = self.samples[i][1]
        return cumulative[i] + max(0.0, instant - end) * rate

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of host interval ``[start, end]``."""
        return (self._clock(end, self._ref, True)
                - self._clock(start, self._ref, True))

    def busy(self, start: float, end: float) -> float:
        """Host seconds of ``[start, end]`` outside the probes."""
        return (self._clock(end, self._busy, False)
                - self._clock(start, self._busy, False))
