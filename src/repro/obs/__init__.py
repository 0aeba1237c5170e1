"""Observability: structured event tracing and miss profiling.

The package turns a simulation run into inspectable artifacts:

* :class:`~repro.obs.tracer.Tracer` (attached with
  :func:`~repro.obs.tracer.attach_tracer`) records every miss lifecycle —
  issue, bus grant, fill/supply, write-back, invalidation, Firefly
  update, block-operation phases, DMA holds — as typed events with cycle
  timestamps.  Like the conformance checker it is a
  :class:`~repro.memsys.sink.Probe` subscriber, so a system without one
  pays a ``probe is not None`` test per hook site.
* :mod:`~repro.obs.export` renders the event log as Chrome-trace /
  Perfetto JSON (``repro simulate --trace-out t.json``).
* :mod:`~repro.obs.profile` aggregates misses per program-counter site,
  line, page, and kernel service — the paper's Table 6 hot-spot view.

``python -m repro.obs --validate t.json`` checks an exported file
against the Chrome-trace schema (CI runs this on every push).
"""

from repro.obs.events import (CATEGORIES, TraceEvent, classify_miss)
from repro.obs.export import (chrome_trace, save_chrome_trace,
                              validate_chrome_trace)
from repro.obs.profile import MissProfile
from repro.obs.tracer import Tracer, attach_tracer

__all__ = [
    "CATEGORIES",
    "MissProfile",
    "TraceEvent",
    "Tracer",
    "attach_tracer",
    "chrome_trace",
    "classify_miss",
    "save_chrome_trace",
    "validate_chrome_trace",
]
