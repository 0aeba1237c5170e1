"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Each subclass corresponds to a layer of the system: trace
construction, memory-system modelling, simulation, configuration, and the
sweep engine (a failed job or dead worker, corrupt cache artifacts).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A machine or system configuration is inconsistent or unsupported.

    Raised, for example, when a cache size is not a multiple of its line
    size, or when a scheme requires hardware the configuration disables.
    """


class TraceError(ReproError):
    """A trace is malformed.

    Raised for unbalanced lock acquire/release pairs, block-operation word
    records that do not cover the declared byte range, or records whose
    fields are out of range.
    """


class SimulationError(ReproError):
    """The simulator reached an impossible state.

    Raised for coherence violations (two modified copies of one line),
    negative time deltas, or a deadlock among the simulated processors.
    """


class DeadlockError(SimulationError):
    """All processors are blocked and no progress is possible."""


class ConformanceError(SimulationError):
    """The conformance checker observed a protocol violation.

    Raised by :mod:`repro.check` when the runtime invariant checker or the
    reference memory oracle detects that the simulated coherence machinery
    diverged from the architectural memory model: a stale read, a lost
    write, multiple owners of one line, an inclusion violation, or a
    write-buffer drain out of order.  ``kind`` names the violated
    invariant; ``details`` carries the structured context (cpu, address,
    expected/observed tokens).
    """

    def __init__(self, message: str, kind: str = "",
                 details: "dict | None" = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.details = dict(details or {})


class AnalysisError(ReproError):
    """An analysis pass received data it cannot interpret."""


class ProfileError(ReproError):
    """A workload profile spec is malformed.

    Raised by :mod:`repro.synthetic.profiles` for unknown fields,
    out-of-range rates, inconsistent size/weight lists, or spec files
    that fail to parse.  The message names the offending field.
    """


class JobFailedError(ReproError):
    """A sweep job failed, and with it the sweep.

    Raised by the parallel experiment engine as soon as one job raises
    or a worker process dies; jobs are deterministic, so none is
    retried.  ``job_id`` names the failed DAG node and ``cell`` its
    ``(workload, config, machine fingerprint)``; both are empty when a
    worker died, since the pool does not say which job it was running.
    ``in_flight`` names the jobs the failure may lie with: the failed
    job, or every job the pool was running when its worker died.  The
    original exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, job_id: str = "",
                 cell: "tuple[str, ...]" = (),
                 in_flight: "tuple[str, ...]" = ()) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.cell = tuple(cell)
        self.in_flight = tuple(in_flight)


class ArtifactCorruptError(ReproError):
    """A cache artifact failed hash verification.

    The offending file is quarantined (renamed to ``*.quarantined``) and
    the artifact regenerated; ``path`` points at the quarantined copy.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(message)
        self.path = path
