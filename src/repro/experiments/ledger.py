"""Structured JSONL run ledger for sweep execution.

Every job lifecycle event of a sweep — scheduled, finished, quarantined
artifacts, the failure that ended it — is appended as one JSON object
per line to a ledger file.  A failed sweep leaves behind a complete,
append-only record of what ran and what failed; a clean run leaves an
auditable timing profile.

Event schema (field presence varies by event)::

    {"ts": <unix seconds>, "event": "<name>", "job": "<job id>",
     "kind": "trace|derive|sim", "workload": ..., "config": ...,
     "duration": seconds, "worker_pid": pid,
     "cache": {"hits": H, "misses": M, "stores": S, "quarantines": Q},
     "sim_keys": [{"workload": ..., "config": ..., "machine": ...}],
     ...}

Event names: ``sweep_start``, ``served_cached``, ``scheduled``,
``finished``, ``quarantined``, ``artifact_corrupt``, ``job_failed``,
``sweep_end``.  A failed sweep ends ``job_failed`` (its ``error``, the
failed job's ``job`` and ``cell``, and the ``in_flight`` jobs), then
``sweep_end`` with ``ok: false``.

Timing fields: the ``ts`` wall-clock stamp is for humans reading the
file; every ``duration``/``elapsed`` field is measured with
``time.monotonic()`` so an NTP step or suspend/resume cannot corrupt
(or make negative) the profile.

``python -m repro.experiments.ledger --summarize <ledger.jsonl>``
renders per-stage timing, throughput, cache hit rate, quarantines and
failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional

#: Canonical ledger filename prefix used when no path is given.
DEFAULT_BASENAME = "sweep-ledger"

#: Per-process call counter of :func:`default_path`.
_PATH_SEQUENCE = itertools.count()


class RunLedger:
    """Append-only JSONL event log for one sweep.

    Opened lazily on the first :meth:`record` so a ledger object can be
    constructed unconditionally and never touch disk if nothing runs.
    A ``path`` of ``None`` discards every event (null ledger).
    """

    def __init__(self, path: Optional[str]) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._fp = None

    @classmethod
    def null(cls) -> "RunLedger":
        return cls(None)

    def record(self, event: str, **fields: Any) -> None:
        """Append one event; never raises (a dying ledger must not kill
        the sweep it documents).

        The line is serialized first (unencodable values degrade to their
        ``repr``) and written with a single ``write`` call, so a failure
        can never leave a torn half-line for concurrent writers — with
        ``O_APPEND`` semantics, whole-line appends from several worker
        processes interleave but never interleave *within* a line.
        """
        if self.path is None:
            return
        entry = {"ts": round(time.time(), 3), "event": event}
        entry.update(fields)
        try:
            line = json.dumps(entry, sort_keys=True, default=repr)
            if self._fp is None:
                os.makedirs(os.path.dirname(self.path) or ".",
                            exist_ok=True)
                self._fp = open(self.path, "a")
            self._fp.write(line + "\n")
            self._fp.flush()
        except Exception:
            pass

    def close(self) -> None:
        if self._fp is not None:
            try:
                self._fp.close()
            finally:
                self._fp = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse a ledger file, skipping lines truncated by a crash."""
    events = []
    with open(path) as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue  # torn tail write from a crashed run
    return events


def summarize(path: str) -> str:
    """Human-readable per-stage timing / cache / failure summary."""
    events = read_events(path)
    per_kind: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"jobs": 0, "seconds": 0.0})
    counts: Counter = Counter()
    cache = Counter()
    failures: List[str] = []
    for ev in events:
        name = ev.get("event", "?")
        counts[name] += 1
        if name == "finished":
            kind = ev.get("kind", "?")
            per_kind[kind]["jobs"] += 1
            per_kind[kind]["seconds"] += float(ev.get("duration", 0.0))
            for stat, n in (ev.get("cache") or {}).items():
                cache[stat] += n
        elif name == "job_failed":
            failures.append(str(ev.get("error", "?")))

    lines = [f"run ledger: {path}",
             f"events: {sum(counts.values())}"]
    starts = [ev for ev in events if ev.get("event") == "sweep_start"]
    ends = [ev for ev in events if ev.get("event") == "sweep_end"]
    finished = counts.get("finished", 0)
    elapsed = None
    if ends and isinstance(ends[-1].get("elapsed"), (int, float)):
        lines.append(f"sweep wall-clock: {ends[-1]['elapsed']:.1f}s")
        elapsed = float(ends[-1]["elapsed"])
    elif starts and ends:
        lines.append(f"sweep wall-clock: "
                     f"{max(0.0, ends[-1]['ts'] - starts[0]['ts']):.1f}s")
    if elapsed and finished:
        lines.append(f"throughput: {finished / elapsed:.2f} jobs/s "
                     f"({finished} jobs in {elapsed:.1f}s)")
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    if hits + misses:
        lines.append(f"cache hit rate: {hits / (hits + misses):.0%} "
                     f"({hits} hits, {misses} misses)")
    lines.append("")
    lines.append(f"{'stage':<10} {'jobs':>6} {'total s':>9} {'mean s':>8}")
    for kind in sorted(per_kind):
        row = per_kind[kind]
        jobs = int(row["jobs"])
        mean = row["seconds"] / jobs if jobs else 0.0
        lines.append(f"{kind:<10} {jobs:>6} {row['seconds']:>9.1f} "
                     f"{mean:>8.2f}")
    lines.append("")
    for name in ("quarantined", "artifact_corrupt", "job_failed",
                 "served_cached"):
        lines.append(f"{name:<16} {counts.get(name, 0):>4}")
    if failures:
        lines.append("")
        lines.append("failed:")
        lines.extend(f"  {error}" for error in failures)
    if cache:
        lines.append("")
        lines.append("cache: " + ", ".join(
            f"{n} {stat}" for stat, n in sorted(cache.items())))
    return "\n".join(lines)


def default_path(directory: str) -> str:
    """A fresh ledger path inside *directory*: the pid and a per-process
    call counter keep two sweeps started within one second (in one
    process or in two) from appending to one file."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    name = (f"{DEFAULT_BASENAME}-{stamp}-{os.getpid()}-"
            f"{next(_PATH_SEQUENCE)}.jsonl")
    return os.path.join(directory, name)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Inspect a sweep run ledger (JSONL)")
    parser.add_argument("ledger", help="path to a *.jsonl run ledger")
    parser.add_argument("--summarize", action="store_true", default=True,
                        help="render per-stage timing, cache and "
                             "failure counts (default)")
    args = parser.parse_args(argv)
    if not os.path.exists(args.ledger):
        print(f"no such ledger: {args.ledger}", file=sys.stderr)
        return 2
    print(summarize(args.ledger))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
