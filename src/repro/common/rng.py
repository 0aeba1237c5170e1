"""Deterministic random-number streams for the synthetic workload generator.

Every stochastic decision in the generator draws from a named substream so
that adding a new consumer never perturbs existing ones, and the same
(workload, seed) pair always yields byte-identical traces.  Substreams are
derived by hashing the parent seed with the stream name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def derive_seed(seed: int, name: str) -> int:
    """Derive a child seed from *seed* and a stream *name*, stably."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A named, seeded random stream with convenience draws."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._rng = random.Random(derive_seed(seed, name))

    def substream(self, name: str) -> "RngStream":
        """Return an independent child stream."""
        return RngStream(derive_seed(self.seed, self.name), name)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return self._rng.randint(lo, hi)

    def chance(self, p: float) -> bool:
        """Bernoulli draw with probability *p*."""
        return self._rng.random() < p

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(seq)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choice from *items* with the given relative *weights*."""
        return self._rng.choices(items, weights=weights, k=1)[0]

    def geometric(self, mean: float) -> int:
        """Geometric draw (>= 1) with the given mean."""
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        u = self._rng.random()
        # Inverse-CDF; clamp to avoid log(0).
        import math

        return max(1, int(math.log(max(u, 1e-12)) / math.log(1.0 - p)) + 1)

    def shuffle(self, seq: list) -> None:
        """Shuffle *seq* in place."""
        self._rng.shuffle(seq)
