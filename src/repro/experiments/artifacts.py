"""Content-addressed on-disk artifact cache for experiment sweeps.

A full table/figure sweep needs, per workload, a generated trace plus
two derived artifacts that take profiling simulations to find (the
update-core selection and the hot-spot PC list).  All of them are
deterministic functions of ``(scale, seed, workload, machine
parameters, derivation stage, code)``, and so is each cell's
simulation result, so they can be cached on disk and shared both
*across runs* (a second ``repro report`` sweep on one ``--cache-dir``
serves every stored result, and a cell without one skips every
generation/derivation step) and *across processes* (the parallel
engine's workers exchange artifacts through the cache instead of
pickling multi-megabyte traces over pipes).  The
privatized and prefetched traces are not stored: the runner rebuilds
them in memory from the raw trace and the hot spots faster than an
npz round trip.

Design:

* **Content-addressed keys.**  :func:`stage_key` and :func:`metrics_key`
  hash the canonical JSON encoding of every input that the artifact
  depends on — including a full fingerprint of the machine parameters
  (:func:`machine_fingerprint`), the cache format version and a digest
  of the package's own source (:func:`code_digest`) — so any parameter
  or code change lands in a fresh slot and stale entries are simply
  never read again.
* **NPZ payloads for traces** via :mod:`repro.trace.npzio`; small
  artifacts (update selections, hot-spot lists) are stored as JSON.
* **Corruption safety.**  Writes go to a temporary file in the same
  directory followed by an atomic :func:`os.replace`, and every payload
  gets a SHA-256 sidecar (``<entry>.sha256``) of the bytes written.
  A load reads the entry once, checks those bytes against the sidecar
  and parses the same bytes; an entry whose bytes no longer match
  (bit rot, torn write, manual tampering) is **quarantined** — renamed
  to ``<entry>.quarantined`` so the evidence survives for post-mortems —
  counted as a miss, and recomputed by the caller.  Parse failures on
  legacy entries without a sidecar are quarantined the same way, so a
  bad artifact can never crash a sweep or be silently re-read.  Every
  quarantine is recorded as an ``artifact_corrupt`` event on the run
  ledger (when one is attached), and only the specific corruption
  error classes are caught — an unexpected exception propagates as
  the bug it is.

:class:`SimKey` is the typed key shared by the in-memory metrics cache
of :class:`repro.experiments.runner.ExperimentRunner` and the parallel
engine's result maps.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
import zipfile
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.common.errors import ArtifactCorruptError, TraceError
from repro.common.params import MachineParams
from repro.optim.update_select import UpdateSelection
from repro.sim.metrics import SystemMetrics
from repro.trace import npzio
from repro.trace.stream import Trace

#: Bump when the on-disk layout or any cached payload format changes;
#: old entries become unreachable (different key space) rather than
#: misinterpreted.
CACHE_VERSION = 1

#: Known derivation stages, in pipeline order (used for reporting).
STAGES = ("trace", "update", "hotspots")

#: Default on-disk cache location used by the CLI (relative to the CWD).
DEFAULT_CACHE_DIR = ".repro-cache"


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Short hash of every ``.py`` source of the :mod:`repro` package.

    Part of every cache key, so a stored trace, derived artifact or
    simulation result is only served to the code that produced it.  The
    whole package is hashed (no module list to keep current); the cost,
    a few milliseconds, is paid on the first key a process computes.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sha = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                sha.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fp:
                    sha.update(fp.read())
    return sha.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def machine_fingerprint(machine: MachineParams) -> str:
    """Stable short hash of *every* machine parameter.

    The in-memory runner used to key results by the (L1D, L2) geometry
    tuple only; a persistent cache needs the full parameter set or an
    ablation that tweaks, say, the DMA beat rate would alias the Base
    machine's entries.  Memoized on the frozen value: hashing a
    :class:`MachineParams` is far cheaper than encoding it.
    """
    blob = json.dumps(dataclasses.asdict(machine), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class SimKey:
    """Typed key of one simulation cell: who ran, under what, on what."""

    workload: str
    config: str
    machine: str  # machine_fingerprint() of the simulated machine

    @classmethod
    def of(cls, workload: str, config: str,
           machine: MachineParams) -> "SimKey":
        return cls(workload, config, machine_fingerprint(machine))


def stage_key(stage: str, scale: float, seed: int, workload: str,
              machine: Optional[MachineParams] = None,
              extra: Optional[Dict[str, Any]] = None) -> str:
    """Content hash identifying one artifact.

    *machine* is omitted for stages that do not depend on the hardware
    (trace generation).
    """
    payload = {
        "version": CACHE_VERSION,
        "stage": stage,
        "scale": scale,
        "seed": seed,
        "workload": workload,
        "machine": machine_fingerprint(machine) if machine else None,
        "extra": extra or {},
        "code": code_digest(),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def metrics_key(scale: float, seed: int, key: SimKey,
                profiling_machine: str) -> str:
    """Content hash identifying one cached simulation *result*.

    Unlike :func:`stage_key`, this keys a finished
    :class:`~repro.sim.metrics.SystemMetrics`, so repeat cells can be
    served without re-simulating (the engine's warm path).
    *profiling_machine* is the fingerprint of the machine the derivation
    pipeline profiled on: the update-page set and hot-spot list depend
    on it even when the simulated machine differs (Figures 6-7 sweep
    hardware under a kernel tuned on the Base machine), so conflating
    the two would alias distinct results.
    """
    payload = {
        "version": CACHE_VERSION,
        "stage": "metrics",
        "scale": scale,
        "seed": seed,
        "workload": key.workload,
        "machine": key.machine,
        "extra": {"config": key.config, "profiling": profiling_machine},
        "code": code_digest(),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: What a corrupt entry raises while it is read, verified or parsed.
_CORRUPT = (ArtifactCorruptError, TraceError, zipfile.BadZipFile, OSError,
            ValueError, KeyError, EOFError)


def _payload(data: bytes) -> Any:
    """The payload of a JSON cache entry's bytes; ``ValueError`` or
    ``KeyError`` when they are not a current-version envelope."""
    envelope = json.loads(data)
    if not isinstance(envelope, dict):
        raise ValueError("cache envelope is not an object")
    if envelope.get("version") != CACHE_VERSION:
        raise ValueError("cache version mismatch")
    return envelope["payload"]


class ArtifactCache:
    """Directory of content-addressed experiment artifacts.

    Layout: ``<root>/v<CACHE_VERSION>/<key[:2]>/<key>.{npz,json}``.
    Instances are cheap; every worker process opens its own handle on
    the shared directory.  ``stats`` counts ``"<stage>.hit"``,
    ``"<stage>.miss"`` and ``"<stage>.store"`` events so callers (and
    the benchmark suite) can assert what was recomputed.
    """

    def __init__(self, root: str, ledger=None) -> None:
        self.root = os.fspath(root)
        self.dir = os.path.join(self.root, f"v{CACHE_VERSION}")
        self.stats: Counter = Counter()
        #: Optional :class:`repro.experiments.ledger.RunLedger`; every
        #: quarantined artifact is recorded as an ``artifact_corrupt``
        #: event instead of being silently swallowed.
        if ledger is None:
            from repro.experiments.ledger import RunLedger
            ledger = RunLedger.null()
        self.ledger = ledger

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _path(self, key: str, kind: str) -> str:
        return os.path.join(self.dir, key[:2], f"{key}.{kind}")

    def _atomic_write(self, path: str, writer) -> None:
        """Write an entry through ``writer(tmp)``, which writes the temp
        file and returns the bytes it wrote; those bytes are hashed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=os.path.basename(path))
        os.close(fd)
        try:
            digest = hashlib.sha256(writer(tmp)).hexdigest()
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        # Sidecar written second: an entry without one is treated as a
        # legacy (parse-validated) entry, never as corrupt.
        self._atomic_sidecar(path, digest)

    def _atomic_sidecar(self, path: str, digest: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".sha256")
        with os.fdopen(fd, "w") as fp:
            fp.write(digest)
        os.replace(tmp, path + ".sha256")

    def _verify(self, path: str, data: bytes) -> None:
        """Check *data*, the bytes read from *path*, against the entry's
        hash sidecar, if one exists.

        Raises :class:`ArtifactCorruptError` on mismatch.  Entries from
        caches written before sidecars existed pass (the subsequent
        parse is their only validation, as it always was).
        """
        try:
            with open(path + ".sha256") as fp:
                expected = fp.read().strip()
        except OSError:
            return
        if hashlib.sha256(data).hexdigest() != expected:
            raise ArtifactCorruptError(
                f"artifact failed hash verification: {path}", path=path)

    def _load(self, path: str, stage: str, parse) -> Optional[Any]:
        """``parse(data)`` of the entry at *path*, read once and verified
        against its sidecar, or ``None`` on a miss or a corrupt entry.

        Bit rot, a truncated write or version skew quarantines the
        evidence and lets the caller recompute; an error outside
        :data:`_CORRUPT` is a real bug and propagates.
        """
        try:
            with open(path, "rb") as fp:
                data = fp.read()
            self._verify(path, data)
            value = parse(data)
        except FileNotFoundError:
            self.stats[f"{stage}.miss"] += 1
            return None
        except _CORRUPT as err:
            self._quarantine(path, stage=stage, error=err)
            self.stats[f"{stage}.miss"] += 1
            self.stats[f"{stage}.corrupt"] += 1
            self.stats[f"{stage}.quarantine"] += 1
            return None
        self.stats[f"{stage}.hit"] += 1
        return value

    def _quarantine(self, path: str, stage: str = "?",
                    error: Optional[BaseException] = None) -> None:
        """Move a corrupt entry (and its sidecar) out of the key space.

        The renamed ``*.quarantined`` copy keeps the evidence for
        debugging; the original path becomes a plain miss so the caller
        regenerates it.  Falls back to deletion if the rename fails.
        The corruption is recorded as an ``artifact_corrupt`` ledger
        event (with the triggering error), never silently swallowed.
        """
        self.ledger.record("artifact_corrupt", stage=stage, path=path,
                           error=repr(error) if error is not None else None,
                           worker_pid=os.getpid())
        for victim in (path, path + ".sha256"):
            if not os.path.exists(victim):
                continue
            try:
                os.replace(victim, victim + ".quarantined")
            except OSError:
                try:
                    os.unlink(victim)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def load_trace(self, key: str, stage: str = "trace") -> Optional[Trace]:
        """The cached trace under *key*, or ``None`` (miss/corrupt)."""
        path = self._path(key, "npz")
        return self._load(path, stage,
                          lambda data: npzio.load(path, data=data))

    def store_trace(self, key: str, trace: Trace,
                    stage: str = "trace") -> None:
        self._atomic_write(self._path(key, "npz"),
                           lambda tmp: npzio.save(trace, tmp))
        self.stats[f"{stage}.store"] += 1

    # ------------------------------------------------------------------
    # JSON artifacts
    # ------------------------------------------------------------------
    def load_json(self, key: str, stage: str) -> Optional[Any]:
        """The cached JSON payload under *key*, or ``None``."""
        return self._load(self._path(key, "json"), stage, _payload)

    def store_json(self, key: str, payload: Any, stage: str) -> None:
        data = json.dumps({"version": CACHE_VERSION, "stage": stage,
                           "payload": payload}).encode()

        def writer(tmp: str) -> bytes:
            with open(tmp, "wb") as fp:
                fp.write(data)
            return data

        self._atomic_write(self._path(key, "json"), writer)
        self.stats[f"{stage}.store"] += 1

    # ------------------------------------------------------------------
    # Typed helpers for the derivation pipeline's small artifacts
    # ------------------------------------------------------------------
    def load_update_selection(self, key: str) -> Optional[UpdateSelection]:
        payload = self.load_json(key, "update")
        if payload is None:
            return None
        try:
            return UpdateSelection(
                pages=[int(p) for p in payload["pages"]],
                variables=[str(v) for v in payload["variables"]],
                core_bytes=int(payload["core_bytes"]),
                covered_misses=int(payload["covered_misses"]))
        except (KeyError, TypeError, ValueError) as err:
            # Valid JSON, wrong shape: quarantine so the entry is
            # regenerated instead of failing identically forever.
            self._quarantine(self._path(key, "json"), stage="update",
                             error=err)
            self.stats["update.corrupt"] += 1
            self.stats["update.quarantine"] += 1
            return None

    def store_update_selection(self, key: str,
                               selection: UpdateSelection) -> None:
        self.store_json(key, {
            "pages": list(selection.pages),
            "variables": list(selection.variables),
            "core_bytes": selection.core_bytes,
            "covered_misses": selection.covered_misses,
        }, "update")

    def load_hotspots(self, key: str) -> Optional[List[int]]:
        payload = self.load_json(key, "hotspots")
        if payload is None:
            return None
        try:
            return [int(pc) for pc in payload]
        except (TypeError, ValueError) as err:
            self._quarantine(self._path(key, "json"), stage="hotspots",
                             error=err)
            self.stats["hotspots.corrupt"] += 1
            self.stats["hotspots.quarantine"] += 1
            return None

    def store_hotspots(self, key: str, pcs: List[int]) -> None:
        self.store_json(key, list(pcs), "hotspots")

    def load_metrics(self, key: str) -> Optional[SystemMetrics]:
        """The cached simulation result under *key*, or ``None``.

        Restores through :meth:`SystemMetrics.from_snapshot`, whose
        round trip is exact — a cell served from here is bit-identical
        (snapshot-equal) to re-running the simulation.
        """
        payload = self.load_json(key, "metrics")
        if payload is None:
            return None
        try:
            return SystemMetrics.from_snapshot(payload)
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            # Valid JSON, wrong shape (or a snapshot from an
            # incompatible interpreter): quarantine and re-simulate.
            self._quarantine(self._path(key, "json"), stage="metrics",
                             error=err)
            self.stats["metrics.corrupt"] += 1
            self.stats["metrics.quarantine"] += 1
            return None

    def store_metrics(self, key: str, metrics: SystemMetrics) -> None:
        """Persist a simulation result; a no-op when already stored.

        Simulation is deterministic, so a current-version entry under
        *key* already holds exactly these bytes — skipping the rewrite
        keeps warm re-runs store-free.  A bit-flipped entry still
        self-heals: the next load quarantines it (renaming the file),
        after which this store writes a fresh copy.
        """
        try:
            with open(self._path(key, "json")) as fp:
                if json.load(fp).get("version") == CACHE_VERSION:
                    return
        except (OSError, ValueError):
            pass  # absent, unreadable, or garbage: (re)write below
        self.store_json(key, metrics.snapshot(), "metrics")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def hits(self) -> int:
        return sum(n for e, n in self.stats.items() if e.endswith(".hit"))

    def misses(self) -> int:
        return sum(n for e, n in self.stats.items() if e.endswith(".miss"))

    def stores(self) -> int:
        return sum(n for e, n in self.stats.items() if e.endswith(".store"))

    def quarantines(self) -> int:
        return sum(n for e, n in self.stats.items()
                   if e.endswith(".quarantine"))

    def summary(self) -> str:
        text = (f"{self.hits()} hits, {self.misses()} misses, "
                f"{self.stores()} stores")
        if self.quarantines():
            text += f", {self.quarantines()} quarantined"
        return text
