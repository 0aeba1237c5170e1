"""Synchronization bookkeeping: locks and barriers.

The traces carry the synchronization events of the original workload; per
section 2.2 the simulator must "make sure that their mutual exclusion
functionality is maintained".  :class:`LockTable` serializes critical
sections (a processor reaching LOCK_ACQ on a held lock spins until the
holder releases), and :class:`BarrierManager` blocks arrivals until each
episode is complete, releasing all participants at the same instant — the
gang-scheduling barrier behaviour responsible for most coherence misses in
the parallel workloads (Table 5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError


class LockTable:
    """Global spin-lock state."""

    def __init__(self) -> None:
        #: lock address -> holding CPU.
        self._holder: Dict[int, int] = {}
        #: lock address -> time of the most recent release.
        self._released_at: Dict[int, int] = {}
        self.acquisitions = 0
        self.contended_acquisitions = 0

    def holder(self, addr: int) -> Optional[int]:
        """CPU currently holding the lock at *addr*, or None."""
        return self._holder.get(addr)

    def try_acquire(self, addr: int, cpu: int, t: int) -> Tuple[bool, int]:
        """Attempt to take the lock at time *t*.

        Returns ``(True, grant_time)`` on success — ``grant_time`` reflects
        the hand-off delay after a recent release — or ``(False, 0)`` when
        another CPU holds the lock.
        """
        current = self._holder.get(addr)
        if current is not None and current != cpu:
            return False, 0
        if current == cpu:
            raise SimulationError(f"cpu {cpu} re-acquired lock {addr:#x}")
        grant = max(t, self._released_at.get(addr, 0))
        self._holder[addr] = cpu
        self.acquisitions += 1
        return True, grant

    def release(self, addr: int, cpu: int, t: int) -> None:
        """Release the lock; raises when *cpu* does not hold it."""
        if self._holder.get(addr) != cpu:
            raise SimulationError(
                f"cpu {cpu} released lock {addr:#x} it does not hold")
        del self._holder[addr]
        self._released_at[addr] = t

    def note_contention(self) -> None:
        self.contended_acquisitions += 1


class BarrierEpisode:
    """Arrivals collected for one barrier episode."""

    __slots__ = ("participants", "arrivals")

    def __init__(self, participants: int) -> None:
        self.participants = participants
        #: (cpu, arrival_time) pairs.
        self.arrivals: List[Tuple[int, int]] = []


class BarrierManager:
    """Counts barrier arrivals and computes release times."""

    def __init__(self, release_cycles: int) -> None:
        self.release_cycles = release_cycles
        self._episodes: Dict[int, BarrierEpisode] = {}
        self.episodes_completed = 0

    def arrive(self, addr: int, participants: int, cpu: int,
               t: int) -> Optional[Tuple[int, List[int]]]:
        """Record an arrival.

        Returns None while the episode is incomplete.  When the last
        participant arrives, returns ``(release_time, waiting_cpus)`` where
        ``waiting_cpus`` excludes the final arriver.
        """
        episode = self._episodes.get(addr)
        if episode is None:
            episode = self._episodes[addr] = BarrierEpisode(participants)
        if episode.participants != participants:
            raise SimulationError(
                f"barrier {addr:#x}: inconsistent participant counts")
        if any(c == cpu for c, _t in episode.arrivals):
            raise SimulationError(
                f"cpu {cpu} arrived twice at barrier {addr:#x}")
        episode.arrivals.append((cpu, t))
        if len(episode.arrivals) < participants:
            return None
        release = max(at for _c, at in episode.arrivals) + self.release_cycles
        waiters = [c for c, _t in episode.arrivals if c != cpu]
        del self._episodes[addr]
        self.episodes_completed += 1
        return release, waiters
