"""Seeded random workload generator: profile parameter sweeps.

The LITMUS^RT workload generator sweeps (#cores, tasks-per-core,
utilization) and emits N random-but-reproducible task sets per parameter
point.  This module does the same for cache-scheme workloads: a
:class:`SweepSpec` names the axes — profile family, CPU count, intensity
level, intensity pattern — and :func:`sample` draws seeded
:class:`GeneratedWorkload` instances round-robin over its points, each a
jittered variant of the family's base profile from
:mod:`repro.synthetic.profiles`.

Every generated workload is **self-describing**: its name encodes the
full parameter point plus the jitter seed
(``gen:server:c4:i060:bursty:0:3``), and :func:`from_name` rebuilds the
exact profile from the name alone.  That makes generated workloads
usable anywhere a workload name is — the CLI, the experiment runner, the
parallel sweep engine's worker processes, the artifact cache — without
shipping profile objects across process boundaries.

Determinism contract: the jitter RNG is seeded from the name, the trace
seed is derived from the name, and profile compilation draws only from
named :class:`~repro.common.rng.RngStream` substreams — so the same
sweep spec always yields byte-identical traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.common.errors import ProfileError
from repro.common.params import MAX_CPUS
from repro.common.rng import derive_seed
from repro.synthetic.profiles import (BUILTIN_PROFILES, PATTERNS,
                                      WorkloadProfile, compile_profile)
from repro.trace.stream import Trace

#: Families the sweep can draw from: the non-legacy built-in profiles.
SWEEP_FAMILIES: Tuple[str, ...] = ("server", "bursty_mp", "gang_diurnal")

#: Probability fields scaled by the sweep's intensity axis.
_ACTIVITY_FIELDS = ("syscall_prob", "file_io_prob", "network_prob",
                    "pipe_prob", "signal_prob", "fork_prob")

#: Probability fields jittered (but not intensity-scaled).
_JITTER_PROB_FIELDS = ("io_write_frac", "fault_copy_prob",
                       "fault_steady_prob", "frame_reuse_prob",
                       "sharing_degree", "buffer_switch_prob")

_PROB_CAP = 0.95


@dataclass(frozen=True)
class SweepSpec:
    """Parameter ranges of one sweep (the LITMUS-RT ``mktasks`` shape):
    a grid of (family, cpus, intensity, pattern) points."""

    families: Tuple[str, ...] = SWEEP_FAMILIES
    num_cpus: Tuple[int, ...] = (4,)
    intensities: Tuple[float, ...] = (0.6, 1.0)
    patterns: Tuple[str, ...] = PATTERNS

    def validate(self) -> None:
        for family in self.families:
            _base_profile(family)
        for pattern in self.patterns:
            if pattern not in PATTERNS:
                raise ProfileError(f"unknown sweep pattern {pattern!r}; "
                                   f"choose from {PATTERNS}")
        for cpus in self.num_cpus:
            if not 1 <= cpus <= MAX_CPUS:
                raise ProfileError(
                    f"sweep num_cpus {cpus} outside [1, {MAX_CPUS}]")
        for level in self.intensities:
            if not 0.05 <= level <= 1.0:
                raise ProfileError(
                    f"sweep intensity {level} outside [0.05, 1.0]")

    def points(self) -> List[Tuple[str, int, float, str]]:
        """The cartesian parameter grid, in deterministic order."""
        return [(family, cpus, level, pattern)
                for family in self.families
                for cpus in self.num_cpus
                for level in self.intensities
                for pattern in self.patterns]


class GeneratedWorkload:
    """One seeded workload: a jittered profile plus its trace seed."""

    __slots__ = ("name", "profile", "seed")

    def __init__(self, name: str, profile: WorkloadProfile,
                 seed: int) -> None:
        self.name = name
        self.profile = profile
        self.seed = seed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeneratedWorkload({self.name!r})"

    def generate(self, scale: float = 1.0,
                 frame_policy: str = "default") -> Trace:
        """Compile this workload's trace (deterministic for the name)."""
        return compile_profile(self.profile, seed=self.seed, scale=scale,
                               frame_policy=frame_policy)


# ======================================================================
# Point derivation
# ======================================================================
def _base_profile(family: str) -> WorkloadProfile:
    base = BUILTIN_PROFILES.get(family)
    if base is None or base.legacy:
        raise ProfileError(
            f"unknown sweep family {family!r}; choose from "
            f"{list(SWEEP_FAMILIES)} (paper workloads are fixed-parameter "
            "and cannot be swept)")
    return base


def _clamp(value: float, lo: float = 0.0, hi: float = _PROB_CAP) -> float:
    return max(lo, min(hi, value))


def point_name(family: str, cpus: int, level: float, pattern: str,
               seed: int, index: int) -> str:
    """The canonical self-describing name of one generated workload."""
    return (f"gen:{family}:c{cpus}:i{int(round(level * 100)):03d}"
            f":{pattern}:{seed}:{index}")


def _make_workload(family: str, cpus: int, level: float, pattern: str,
                   seed: int, index: int) -> GeneratedWorkload:
    """Jitter the family's base profile, seeded purely by the name.

    Draws happen in a fixed field order so the name -> profile map never
    shifts when unrelated code changes.
    """
    name = point_name(family, cpus, level, pattern, seed, index)
    base = _base_profile(family)
    rng = random.Random(derive_seed(seed, name))
    changes: dict = {
        "name": name,
        "num_cpus": cpus,
        "pattern": pattern,
        "rounds": max(8, int(base.rounds * rng.uniform(0.75, 1.25))),
        "app_refs": max(32, int(base.app_refs * rng.uniform(0.7, 1.3))),
        "kmem_refs": max(32, int(base.kmem_refs * rng.uniform(0.7, 1.3))),
        "kmem_jump_prob": _clamp(base.kmem_jump_prob
                                 * rng.uniform(0.7, 1.3)),
    }
    for fieldname in _ACTIVITY_FIELDS:
        jittered = getattr(base, fieldname) * rng.uniform(0.7, 1.3)
        changes[fieldname] = _clamp(jittered * level)
    for fieldname in _JITTER_PROB_FIELDS:
        changes[fieldname] = _clamp(getattr(base, fieldname)
                                    * rng.uniform(0.75, 1.25))
    # Off-peak points spend more rounds idle, like a lightly loaded box.
    changes["idle_prob"] = _clamp(
        base.idle_prob * rng.uniform(0.8, 1.2) + (1.0 - level) * 0.25)
    lo, hi = base.idle_spins
    stretch = rng.uniform(0.8, 1.3)
    changes["idle_spins"] = (max(1, int(lo * stretch)),
                             max(2, int(hi * stretch)))
    changes["io_weights"] = tuple(
        w * rng.uniform(0.6, 1.4) for w in base.io_weights)
    changes["fault_target"] = max(1, base.fault_target
                                  + rng.choice((-1, 0, 0, 1)))
    profile = base.replaced(**changes)
    return GeneratedWorkload(name, profile, derive_seed(seed, f"trace:{name}"))


def from_name(name: str) -> GeneratedWorkload:
    """Rebuild a generated workload from its self-describing name."""
    parts = name.split(":")
    if len(parts) != 7 or parts[0] != "gen":
        raise ProfileError(
            f"{name!r} is not a generated-workload name "
            "(expected gen:<family>:c<cpus>:i<level>:<pattern>:<seed>:<n>)")
    _, family, cpus_s, level_s, pattern, seed_s, index_s = parts
    try:
        if not cpus_s.startswith("c") or not level_s.startswith("i"):
            raise ValueError
        cpus = int(cpus_s[1:])
        level = int(level_s[1:]) / 100.0
        seed = int(seed_s)
        index = int(index_s)
    except ValueError:
        raise ProfileError(f"malformed generated-workload name {name!r}") \
            from None
    if pattern not in PATTERNS:
        raise ProfileError(f"{name!r}: unknown pattern {pattern!r}")
    workload = _make_workload(family, cpus, level, pattern, seed, index)
    if workload.name != name:
        raise ProfileError(f"{name!r} does not round-trip "
                           f"(canonical: {workload.name!r})")
    return workload


# ======================================================================
# Sampling
# ======================================================================
def sample(count: int, seed: int = 0,
           families: Optional[Iterable[str]] = None,
           num_cpus: Tuple[int, ...] = (4,),
           intensities: Tuple[float, ...] = (0.6, 1.0),
           patterns: Tuple[str, ...] = PATTERNS,
           ) -> List[GeneratedWorkload]:
    """Exactly *count* workloads, round-robin over the parameter grid.

    Coverage-first ordering: the first ``len(grid)`` samples each come
    from a distinct (family, cpus, intensity, pattern) point; further
    samples revisit points with fresh indices.  Used by the conformance
    fuzzer and the CI workload matrix.
    """
    spec = SweepSpec(families=tuple(families) if families else SWEEP_FAMILIES,
                     num_cpus=num_cpus, intensities=intensities,
                     patterns=patterns)
    spec.validate()
    points = spec.points()
    return [_make_workload(*points[i % len(points)], seed, i // len(points))
            for i in range(count)]
