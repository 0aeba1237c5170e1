"""Deferred copying of sub-page blocks (section 4.2.1, Table 4).

Copy-on-write already defers page-sized copies; the VMP machine's
mechanism (Cheriton et al.) extends deferral to arbitrary block sizes.
The paper evaluates it by (1) finding all copies of blocks smaller than a
page, (2) finding the *read-only* ones — neither source nor destination
written after the operation — whose copy would therefore never be
performed, and (3) simulating the deferral to count the misses saved.
The outcome (0.1-0.4 % of misses) argues against supporting the scheme.

Ordering across CPUs is approximated by normalized stream position (the
streams progress at comparable rates); the paper's own criterion ("never
written in our traces after the block operation") has the same
end-of-trace horizon.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Set, Tuple

import numpy as np

from repro.common.types import Op
from repro.trace.blockop import BlockOpDescriptor
from repro.trace.columns import FIELDS, StreamColumns
from repro.trace.stream import Trace

_ADDR = FIELDS.index("addr")


class DeferredAnalysis(NamedTuple):
    """Outcome of the small-block-copy analysis."""

    #: Copies of blocks smaller than a page / all block copies.
    small_copy_fraction: float
    #: Read-only small copies / small copies.
    read_only_fraction: float
    #: Ids of the read-only small copies (deferral candidates).
    read_only_ids: Set[int]
    total_copies: int
    small_copies: int


def _locate_spans(trace: Trace) -> Dict[int, Tuple[int, float]]:
    """Map op id -> (cpu, normalized end position of the op)."""
    spans: Dict[int, Tuple[int, float]] = {}
    for cpu, cols in enumerate(trace.columns):
        length = max(1, len(cols))
        ends = np.flatnonzero(cols.ops == Op.BLOCK_END)
        for idx, op_id in zip(ends.tolist(), cols.blockops[ends].tolist()):
            spans[op_id] = (cpu, idx / length)
    return spans


def _page_index(ops: List[BlockOpDescriptor], page_bytes: int
                ) -> Dict[int, List[Tuple[int, int, int]]]:
    """Page -> [(op_id, lo, hi)] for both ranges of each op."""
    index: Dict[int, List[Tuple[int, int, int]]] = {}
    for desc in ops:
        ranges = [(desc.dst, desc.dst + desc.size)]
        if desc.is_copy:
            ranges.append((desc.src, desc.src + desc.size))
        for lo, hi in ranges:
            page = lo - lo % page_bytes
            while page < hi:
                index.setdefault(page, []).append((desc.op_id, lo, hi))
                page += page_bytes
    return index


def analyze_deferred(trace: Trace, page_bytes: int = 4096) -> DeferredAnalysis:
    """Classify small block copies and find the read-only ones."""
    copies = [d for d in trace.blockops if d.is_copy]
    small = [d for d in copies if d.size < page_bytes]
    spans = _locate_spans(trace)
    index = _page_index(small, page_bytes)
    written: Set[int] = set()
    pages = np.array(sorted(index), dtype=np.int64)
    for cols in trace.columns:
        length = max(1, len(cols))
        rows = np.flatnonzero(cols.ops == Op.WRITE)
        addrs = cols.addrs[rows]
        # Only writes into a page some small copy touches can matter.
        near = np.isin(addrs - addrs % page_bytes, pages)
        for idx, addr, blockop in zip(rows[near].tolist(),
                                      addrs[near].tolist(),
                                      cols.blockops[rows[near]].tolist()):
            pos = idx / length
            for op_id, lo, hi in index[addr - addr % page_bytes]:
                if blockop == op_id or op_id in written:
                    continue
                if lo <= addr < hi and pos > spans[op_id][1]:
                    written.add(op_id)
    read_only = {d.op_id for d in small} - written
    return DeferredAnalysis(
        small_copy_fraction=len(small) / len(copies) if copies else 0.0,
        read_only_fraction=len(read_only) / len(small) if small else 0.0,
        read_only_ids=read_only,
        total_copies=len(copies),
        small_copies=len(small),
    )


def apply_deferred(trace: Trace, read_only_ids: Set[int]) -> Trace:
    """Defer the given read-only copies.

    Their word-level records disappear (the copy never happens) and later
    reads of the destination range are remapped to the source — the
    remapping hardware of the VMP scheme.
    """
    remap: List[Tuple[int, int, int, float]] = []  # lo, hi, delta, end
    spans = _locate_spans(trace)
    for op_id in read_only_ids:
        desc = trace.blockops.get(op_id)
        remap.append((desc.dst, desc.dst + desc.size, desc.src - desc.dst,
                      spans[op_id][1]))
    columns = []
    for cols in trace.columns:
        matrix = cols.to_matrix()
        reads = np.flatnonzero(cols.ops == Op.READ)
        addrs = cols.addrs[reads]
        pos = reads / max(1, len(cols))
        # A read takes the first remap that covers it.
        moved = np.zeros(len(reads), dtype=bool)
        for lo, hi, delta, end in remap:
            hit = ~moved & (lo <= addrs) & (addrs < hi) & (pos > end)
            matrix[reads[hit], _ADDR] += delta
            moved |= hit
        # The copy is deferred away.
        kept = ~np.isin(cols.blockops, list(read_only_ids))
        columns.append(StreamColumns.from_matrix(matrix[kept]))
    return Trace(columns, blockops=trace.blockops, symbols=trace.symbols,
                 metadata={**trace.metadata, "deferred_copy": 1})


def deferred_miss_saving(trace: Trace, config, base) -> float:
    """Fraction of all data misses eliminated by deferred copying.

    Compares total (OS + user) primary-cache read misses of the original
    and the deferred trace under *config* — Table 4 row 3.  *base* is the
    original trace's metrics under *config* (a sweep's Base cell); the
    deferred trace is simulated here.
    """
    from repro.sim.system import simulate

    analysis = analyze_deferred(trace)
    if not analysis.read_only_ids:
        return 0.0
    deferred = simulate(apply_deferred(trace, analysis.read_only_ids), config)
    saved = base.total_data_misses() - deferred.total_data_misses()
    total = base.total_data_misses()
    return saved / total if total else 0.0
