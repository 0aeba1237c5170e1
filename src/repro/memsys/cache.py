"""Cache arrays: one LRU set-associative model for every associativity.

The paper's machine is direct-mapped everywhere; the machine axis adds
``assoc``-way caches.  Both are the same model: ``num_sets`` sets of
``assoc`` frames with true-LRU replacement, where direct-mapped is simply
the 1-way point (each frame is its own set, so the only possible victim
is the line already there).  Timing lives in the hierarchy/coherence
layers; this module only answers presence questions and performs fills,
evictions and invalidations.  An L2 (:class:`CoherentCache`) also keeps
the bus's presence directory, which the coherence controller's snoops
read instead of probing every CPU; the one :meth:`Cache.fill` updates it
for any cache that has one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.params import CacheParams
from repro.memsys.states import INVALID, LineState


class Cache:
    """Tag-only cache (used for L1I and L1D).

    The frame arrays are flat and set-major: way ``w`` of set ``s`` lives
    at index ``s * assoc + w``, so at ``assoc == 1`` frame ``i`` is set
    ``i`` and the arrays are indexed exactly as a direct-mapped tag array.

    ``where`` maps every resident line address to its frame and is kept
    in step with ``tags`` by every mutation method, so a lookup is one
    dict probe whatever the associativity.  The simulator's inline hit
    paths bind it once and test ``line in where`` directly; like ``tags``
    it is mutated in place only, so a bound reference never goes stale.

    Recency is a canonical rank per frame: within a set the resident
    lines hold ranks ``0 .. k-1``, most recently used first, and every
    empty frame holds ``assoc``.  The ranks are a function of the set's
    recency order alone, so two caches that saw the same order hold the
    same ranks however many no-op promotions either made.  The victim is
    the set's maximum-rank frame: its first empty way, else its least
    recently used way.  :meth:`promote` makes a frame rank 0; promoting a
    rank-0 frame changes nothing, so the hit paths promote only a frame
    whose rank is non-zero, and on a direct-mapped cache, whose resident
    frames all hold rank 0, they never promote.  :meth:`present` is a
    pure query (the conformance checker probes it freely).

    :attr:`removals` counts every line that leaves the cache, by
    eviction or invalidation: a span of lines found resident is still
    resident while the count has not moved.

    ``holders`` is the presence directory a cache reports its fills to,
    or None (an L1): line address -> bitmask of the caches whose
    :attr:`where` holds the line, this cache contributing ``bit``.
    """

    __slots__ = ("params", "line_bytes", "num_lines", "num_sets", "assoc",
                 "tags", "where", "ranks", "fills",
                 "evictions", "removals", "holders", "bit")

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self.line_bytes = params.line_bytes
        self.num_lines = params.num_lines
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        #: Line-aligned address held by each frame, or -1 when empty.
        self.tags: List[int] = [-1] * self.num_lines
        #: Resident line address -> frame index.
        self.where: Dict[int, int] = {}
        #: Recency rank per frame: 0 is its set's MRU line, ``assoc`` an
        #: empty frame.
        self.ranks: List[int] = [self.assoc] * self.num_lines
        self.fills = 0
        self.evictions = 0
        #: Lines removed so far, evicted by :meth:`fill` or dropped.
        self.removals = 0
        #: Presence directory and this cache's bit in it (see above).
        self.holders: Optional[Dict[int, int]] = None
        self.bit = 0

    def line_addr(self, addr: int) -> int:
        """Line-aligned address containing *addr*."""
        return addr - (addr % self.line_bytes)

    def set_index(self, addr: int) -> int:
        """Set index of *addr*."""
        return (addr // self.line_bytes) % self.num_sets

    def present(self, addr: int) -> bool:
        """True when the line containing *addr* is cached."""
        return addr - addr % self.line_bytes in self.where

    def touch(self, addr: int) -> None:
        """Promote the line containing *addr* to most recently used."""
        idx = self.where.get(addr - addr % self.line_bytes)
        if idx is not None and self.ranks[idx]:
            self.promote(idx)

    def promote(self, idx: int) -> None:
        """Make frame *idx* its set's most recently used: every line of
        the set used more recently than it moves one rank down."""
        ranks = self.ranks
        rank = ranks[idx]
        first = idx - idx % self.assoc
        for way in range(first, first + self.assoc):
            if ranks[way] < rank:
                ranks[way] += 1
        ranks[idx] = 0

    def fill(self, addr: int) -> int:
        """Install the line containing *addr* in its set's least recently
        used frame, leaving the frame's MESI state (if any) to the caller,
        and keep the presence directory (if any) in step.

        Returns the line address evicted to make room, or -1 when the set
        had an empty way or already held the line (which is promoted).

        The maximum-rank frame is the set's first empty way, else its LRU
        way; it becomes rank 0 as :meth:`promote` would make it, without
        the call.  A 1-way set has one frame: nothing to search or
        reorder.
        """
        line = addr - addr % self.line_bytes
        where = self.where
        idx = where.get(line)
        if idx is not None:
            if self.ranks[idx]:
                self.promote(idx)
            return -1
        assoc = self.assoc
        idx = (line // self.line_bytes) % self.num_sets * assoc
        ranks = self.ranks
        if assoc > 1:
            first = idx
            ways = ranks[first:first + assoc]
            top = max(ways)
            idx += ways.index(top)
            for way in range(first, first + assoc):
                if ranks[way] < top:
                    ranks[way] += 1
        ranks[idx] = 0
        tags = self.tags
        old = tags[idx]
        if old != -1:
            del where[old]
            self.evictions += 1
            self.removals += 1
        where[line] = idx
        tags[idx] = line
        self.fills += 1
        holders = self.holders
        if holders is not None:
            bit = self.bit
            holders[line] = holders.get(line, 0) | bit
            if old != -1:
                mask = holders[old] & ~bit
                if mask:
                    holders[old] = mask
                else:
                    del holders[old]
        return old

    def _drop(self, idx: int) -> None:
        """Empty frame *idx* (already removed from :attr:`where`): every
        line of its set used less recently than it moves one rank up."""
        self.tags[idx] = -1
        ranks = self.ranks
        rank = ranks[idx]
        assoc = self.assoc
        first = idx - idx % assoc
        for way in range(first, first + assoc):
            if rank < ranks[way] < assoc:
                ranks[way] -= 1
        ranks[idx] = assoc
        self.removals += 1

    def resident_lines(self) -> List[int]:
        """All line addresses currently cached, in frame order."""
        return [t for t in self.tags if t != -1]


class CoherentCache(Cache):
    """Cache with a MESI state per frame (the L2).

    ``holders`` is the presence directory (snoop filter) of the bus the
    cache sits on.  Residency changes only in :meth:`Cache.fill` and
    :meth:`_drop`, so those two methods keep it exact.  A standalone
    cache owns a private directory and bit 1;
    :meth:`~repro.memsys.coherence.CoherenceController.attach` hands it
    the controller's shared directory and bit ``1 << cpu``.
    """

    __slots__ = ("states",)

    def __init__(self, params: CacheParams) -> None:
        super().__init__(params)
        self.states: List[LineState] = [INVALID] * self.num_lines
        self.holders = {}
        self.bit = 1

    def state_of(self, addr: int) -> LineState:
        """MESI state of the line containing *addr* (INVALID if absent)."""
        idx = self.where.get(addr - addr % self.line_bytes)
        if idx is None:
            return INVALID
        return self.states[idx]

    def set_state(self, addr: int, state: LineState) -> None:
        """Set the MESI state of a resident line (INVALID drops it)."""
        line = addr - addr % self.line_bytes
        idx = self.where.get(line)
        if idx is None:
            raise KeyError(f"line {line:#x} not resident")
        if state == INVALID:
            del self.where[line]
            self._drop(idx)
        else:
            self.states[idx] = state

    def _forget(self, line: int) -> None:
        """Clear this cache's bit in *line*'s directory entry."""
        mask = self.holders[line] & ~self.bit
        if mask:
            self.holders[line] = mask
        else:
            del self.holders[line]

    def _drop(self, idx: int) -> None:
        self._forget(self.tags[idx])
        super()._drop(idx)
        self.states[idx] = INVALID


def holder_cpus(mask: int) -> List[int]:
    """CPU ids whose bits are set in a presence-directory *mask*,
    ascending."""
    cpus = []
    while mask:
        low = mask & -mask
        cpus.append(low.bit_length() - 1)
        mask ^= low
    return cpus
