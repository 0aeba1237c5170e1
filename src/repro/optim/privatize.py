"""Data privatization and relocation (section 5.1).

Two kernel-source changes, modelled as trace transformations:

* **Privatization** — each infrequently-communicated event counter is
  split into one sub-counter per processor, each on its own cache line in
  a private region.  Updates go to the updating CPU's replica; the rare
  reader (the pager) reads all replicas and sums them, so a READ by the
  pager's basic block expands into ``num_cpus`` reads.

* **Relocation** — variables responsible for obvious false sharing are
  moved to their own cache lines: the per-CPU ``cpievents`` entries are
  spread within the synchronization page (keeping them under the update
  protocol's page), and the per-CPU timer accounting slots are spread in
  the private region.

The transformation is pure: it returns a new :class:`Trace` with fresh
column arrays and leaves the input untouched.  Data-class annotations are
preserved so Table 5's breakdown still attributes any residual misses
correctly.
"""

from __future__ import annotations

import numpy as np

from repro.synthetic import layout as lay
from repro.common.types import DataClass, Op
from repro.synthetic.layout import KERNEL_PC
from repro.trace.columns import FIELDS, StreamColumns
from repro.trace.stream import Trace

#: Bytes reserved per privatized counter replica (its own L2 line).
REPLICA_STRIDE = 64

#: Relocated cpievents entries: one 64-byte slot each, still in SYNC_PAGE.
CPIEVENTS_RELOC = lay.SYNC_PAGE + 0x800

#: Relocated per-CPU timer accounting slots.
TIMER_RELOC = lay.PRIVATE_BASE + 0x1000

_ADDR = FIELDS.index("addr")


def replica_addr(counter_index: int, cpu: int, num_cpus: int) -> int:
    """Address of CPU *cpu*'s replica of counter *counter_index*."""
    return (lay.PRIVATE_BASE
            + (counter_index * num_cpus + cpu) * REPLICA_STRIDE)


class PrivatizeRelocate:
    """The section 5.1 transformation."""

    def __init__(self, num_cpus: int = 4) -> None:
        self.num_cpus = num_cpus
        #: Counter addresses, ascending; a counter's index is its place.
        self._counters = lay.COUNTER_BASE + 4 * np.arange(
            len(lay.INFREQ_COUNTERS), dtype=np.int64)
        #: Basic blocks whose counter READs are aggregate reads (the
        #: pager); everything else is the read half of a local update.
        self._aggregate_pcs = {KERNEL_PC["pte_scan_loop"]}
        cpi = lay.SYNC_PAGE + 64 + len(lay.KERNEL_LOCKS) * 16 + 4
        self._cpievents_base = cpi
        self._cpievents_end = cpi + 64
        self._timer_slots_base = lay.TIMER_BASE + 64
        self._timer_slots_end = lay.TIMER_BASE + 64 + 4 * 16

    # ------------------------------------------------------------------
    def apply(self, trace: Trace) -> Trace:
        """Return a privatized/relocated copy of *trace*."""
        columns = [self._rewrite(cpu, cols)
                   for cpu, cols in enumerate(trace.columns)]
        return Trace(columns, blockops=trace.blockops, symbols=trace.symbols,
                     metadata={**trace.metadata, "privatized": 1})

    # ------------------------------------------------------------------
    def _rewrite(self, cpu: int, cols: StreamColumns) -> StreamColumns:
        n = self.num_cpus
        addrs = cols.addrs
        data = (cols.ops == Op.READ) | (cols.ops == Op.WRITE)
        counters = data & (cols.dclasses == DataClass.INFREQ_COMM)
        # Counter references: the counter's replica for this CPU.
        keys = self._counters
        index = np.minimum(np.searchsorted(keys, addrs), len(keys) - 1)
        replicated = counters & (keys[index] == addrs)
        new_addrs = addrs.copy()
        new_addrs[replicated] = replica_addr(index[replicated], cpu, n)
        # Slotted per-CPU variables: each slot to its own line.  Any
        # INFREQ_COMM reference stays a counter reference, replicated
        # or not.
        for base, end, new_base in (
                (self._cpievents_base, self._cpievents_end, CPIEVENTS_RELOC),
                (self._timer_slots_base, self._timer_slots_end,
                 TIMER_RELOC)):
            moved = data & ~counters & (addrs >= base) & (addrs < end)
            slot_no, offset = np.divmod(addrs[moved] - base, 16)
            new_addrs[moved] = new_base + slot_no * REPLICA_STRIDE + offset
        # The pager now reads every CPU's replica and sums them: each of
        # its counter reads becomes one read per CPU, in CPU order.
        aggregate = (replicated & (cols.ops == Op.READ)
                     & np.isin(cols.pcs, list(self._aggregate_pcs)))
        matrix = cols.to_matrix()
        matrix[:, _ADDR] = new_addrs
        if aggregate.any():
            reps = np.where(aggregate, n, 1)
            matrix = np.repeat(matrix, reps, axis=0)
            first = (np.cumsum(reps) - reps)[aggregate]
            for reader in range(n):
                matrix[first + reader, _ADDR] = replica_addr(
                    index[aggregate], reader, n)
        return StreamColumns.from_matrix(matrix)


def privatize_and_relocate(trace: Trace, num_cpus: int = 4) -> Trace:
    """Convenience wrapper around :class:`PrivatizeRelocate`."""
    return PrivatizeRelocate(num_cpus).apply(trace)
