"""Miss-hot-spot detection and prefetch insertion (section 6).

The paper measures the data misses of every basic block, picks the 12 most
active *miss hot spots* (5 loops and 7 sequences), and hand-inserts
software prefetches: loop unrolling + software pipelining for the loops,
prefetches hoisted as early as possible for the sequences — limited by
when the address operands become available.

:func:`find_hotspots` reproduces the measurement; :class:`HotspotPrefetcher`
reproduces the insertion as a trace transformation: for each read issued
by a hot basic block, a PREFETCH record is inserted ``lead`` records
earlier in the same CPU's stream (clamped by the operand-availability
horizon, drawn per insertion).  Prefetches of a line already prefetched a
few records back are skipped, which keeps the instruction overhead to a
few percent — the paper measured 3.2 %.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.common.rng import RngStream
from repro.common.types import Op
from repro.sim.metrics import SystemMetrics
from repro.trace.columns import NUM_COLUMNS, StreamColumns
from repro.trace.record import DEFAULT_ACCESS_BYTES
from repro.trace.stream import Trace


def find_hotspots(metrics: SystemMetrics, count: int = 12) -> List[int]:
    """The *count* basic blocks with the most OS data misses."""
    return metrics.hottest_pcs(count)


class HotspotPrefetcher:
    """Insert prefetches covering the reads of hot basic blocks."""

    def __init__(self, hot_pcs: Sequence[int], lead: int = 24,
                 min_lead: int = 6, line_bytes: int = 16,
                 seed: int = 7) -> None:
        self.hot_pcs = set(hot_pcs)
        self.lead = lead
        self.min_lead = min_lead
        self.line_bytes = line_bytes
        self.rng = RngStream(seed, "hotspot-prefetch")
        self.inserted = 0
        self.skipped_duplicates = 0

    def apply(self, trace: Trace) -> Trace:
        """Return a copy of *trace* with hot-spot prefetches inserted."""
        columns = [self._rewrite_stream(cols) for cols in trace.columns]
        return Trace(columns, blockops=trace.blockops, symbols=trace.symbols,
                     metadata={**trace.metadata, "hotspot_prefetch": 1})

    def _rewrite_stream(self, cols: StreamColumns) -> StreamColumns:
        # The hot reads, outside block operations (those are handled by
        # their scheme); each gets an insertion point, in stream order so
        # the horizon draws follow the stream.
        hot = np.flatnonzero((cols.ops == Op.READ) & (cols.blockops == 0)
                             & np.isin(cols.pcs, list(self.hot_pcs)))
        at: List[int] = []
        rows: List[tuple] = []
        recent: Dict[int, int] = {}
        for i, addr, mode, dclass, pc in zip(
                hot.tolist(), cols.addrs[hot].tolist(),
                cols.modes[hot].tolist(), cols.dclasses[hot].tolist(),
                cols.pcs[hot].tolist()):
            line = addr - addr % self.line_bytes
            last = recent.get(line)
            if last is not None and i - last < self.lead:
                self.skipped_duplicates += 1
                continue
            recent[line] = i
            # Operand availability limits how far back the prefetch can
            # be hoisted (paper: "the unavailability of the operands...
            # limits how far back the prefetches can be pushed").
            horizon = self.rng.randint(self.min_lead, self.lead)
            at.append(max(0, i - horizon))
            rows.append((Op.PREFETCH, addr, mode, dclass, pc, 1, 0,
                         DEFAULT_ACCESS_BYTES, i - at[-1]))
        self.inserted += len(rows)
        inserts = np.array(rows, dtype=np.int64).reshape(-1, NUM_COLUMNS)
        # Prefetches sharing an insertion point keep their draw order.
        matrix = np.insert(cols.to_matrix(), np.array(at, dtype=np.intp),
                           inserts, axis=0)
        return StreamColumns.from_matrix(matrix)

