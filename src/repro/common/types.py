"""Core enumerations shared by the trace, memory-system and simulator layers.

These types mirror the vocabulary of the paper:

* :class:`Mode` — whether a reference executes in user code, the operating
  system, or idle time (Table 1 splits execution time this way).
* :class:`Op` — the kind of trace record.  Besides plain reads and writes
  the trace carries the synchronization and block-operation markers that
  section 2.2 of the paper injects ("escape" references in the original).
* :class:`DataClass` — which kernel data structure an address belongs to.
  Section 5 classifies coherence misses by these classes (barriers,
  infrequently-communicated counters, frequently-shared variables, locks).
* :class:`MissKind` — the miss taxonomy of Table 2 and section 4.1.3
  (block-operation, coherence, other; displacement and reuse subtypes).
* :class:`Scheme` — the block-operation handling schemes of section 4.2.
* :class:`BlockOpKind` — copy versus zero-fill block operations.
* :class:`AdaptivePolicy` — the per-line adaptive update/invalidate
  hybrids (``repro.memsys.adaptive``) generalizing the paper's
  ``BCoh_RelUp`` selective-update scheme.
"""

from __future__ import annotations

import enum


class Mode(enum.IntEnum):
    """Execution mode of a reference."""

    USER = 0
    OS = 1
    IDLE = 2


class Op(enum.IntEnum):
    """Type of a trace record."""

    READ = 0
    WRITE = 1
    #: Software prefetch of one cache line (Alpha-style, non-binding).
    PREFETCH = 2
    #: Acquire a spin lock at ``addr`` (read-modify-write on the lock line).
    LOCK_ACQ = 3
    #: Release a spin lock at ``addr`` (write to the lock line).
    LOCK_REL = 4
    #: Arrive at the barrier at ``addr``; blocks until all participants do.
    BARRIER = 5
    #: Marks the start of a block operation; ``arg`` is the BlockOp id.
    BLOCK_START = 6
    #: Marks the end of a block operation; ``arg`` is the BlockOp id.
    BLOCK_END = 7


class DataClass(enum.IntEnum):
    """Kernel (or user) data structure class of an address.

    The synthetic kernel assigns a class to every statically allocated
    structure; the analysis layer uses the classes to break coherence misses
    down as in Table 5 and to drive the privatization/update optimizations
    of section 5.
    """

    NONE = 0
    USER_DATA = 1
    USER_STACK = 2
    #: Barrier words used by gang scheduling (Table 5 "Barriers").
    BARRIER_VAR = 3
    #: Spin locks (Table 5 "Locks").
    LOCK_VAR = 4
    #: Event counters updated by every CPU, read rarely (e.g. vmmeter).
    INFREQ_COMM = 5
    #: Frequently-shared variables (resource-table pointers, freelist.size).
    FREQ_SHARED = 6
    #: Page-table entry arrays walked by the VM hot-spot loops.
    PAGE_TABLE = 7
    #: The run queue and per-process scheduler state.
    SCHED = 8
    #: Process table entries.
    PROC_TABLE = 9
    #: Kernel buffer cache / I/O buffers (sources of block copies).
    BUFFER = 10
    #: Physical page frames (targets of page zero/copy).
    PAGE_FRAME = 11
    #: System call dispatch table (a hot-spot prefetch target, section 6).
    SYSCALL_TABLE = 12
    #: High-resolution timer and accounting structures.
    TIMER = 13
    #: Free page list linkage walked to find a free page.
    FREELIST = 14
    #: Per-CPU private kernel data (after privatization).
    PRIVATE = 15
    #: Anything else in the kernel's static or dynamic data.
    OTHER_KERNEL = 16


class MissKind(enum.IntEnum):
    """Classification of a primary-data-cache read miss (Table 2, §4.1.3)."""

    #: Miss on a word of the source block while a block operation runs.
    BLOCK_OP = 0
    #: Line was invalidated by another processor's write.
    COHERENCE = 1
    #: Everything else — dominated by direct-mapped conflicts.
    OTHER = 2


class BlockOpKind(enum.IntEnum):
    """What a block operation does."""

    COPY = 0
    ZERO = 1


class Scheme(enum.IntEnum):
    """Block-operation handling scheme (section 4.2)."""

    #: Plain cached loads/stores (the Base machine).
    BASE = 0
    #: Software prefetch of the source block into L1/L2 (Blk_Pref).
    PREF = 1
    #: Loads and stores bypass both caches via line registers (Blk_Bypass).
    BYPASS = 2
    #: Bypass with an 8-line prefetch buffer; writes cached (Blk_ByPref).
    BYPREF = 3
    #: DMA-like transfer on the bus, processor stalled (Blk_Dma).
    DMA = 4


class AdaptivePolicy(enum.IntEnum):
    """Per-line adaptive update/invalidate policy of a hybrid scheme.

    Selected by :attr:`~repro.sim.config.SystemConfig.adaptive`;
    ``None`` there means the plain protocol (invalidate, or update
    everywhere for ``pure_update``) with no adaptive layer attached.
    """

    #: Competitive update-N-then-invalidate: each remote copy receives
    #: at most N consecutive broadcast updates without a bus-visible
    #: local re-reference, then is dropped from the broadcast set.
    UPDATE_N = 0
    #: Sharing-degree switching: update while the number of remote
    #: sharers stays within a threshold, switch the line to invalidate
    #: mode (for the rest of its sharing epoch) when it exceeds it.
    DEGREE = 1
    #: Static per-page hybrid: unbounded updates on the configured pages
    #: (the paper's BCoh_RelUp as the N=infinity special case),
    #: invalidate everywhere else.
    STATIC = 2


#: Fast Mode lookup used by the simulator hot path.  ``Mode(value)`` runs
#: the whole enum ``__call__`` machinery on every trace record; this table
#: is a single dict probe.  Because :class:`Mode` is an ``IntEnum``, its
#: members hash and compare equal to their integer values, so the table
#: resolves both plain ints and already-normalized members to the member.
MODE_BY_VALUE = {int(m): m for m in Mode}

#: Same trick for record opcodes (trace loaders may hand the simulator
#: plain ints; everything downstream expects :class:`Op` members).
OP_BY_VALUE = {int(o): o for o in Op}

#: And for data classes, which npz columns also store as plain ints.
DCLASS_BY_VALUE = {int(d): d for d in DataClass}

#: Data classes whose coherence misses Table 5 groups under each heading.
COHERENCE_GROUPS = {
    "Barriers": (DataClass.BARRIER_VAR,),
    "Infreq. Com.": (DataClass.INFREQ_COMM,),
    "Freq. Shared": (DataClass.FREQ_SHARED,),
    "Locks": (DataClass.LOCK_VAR,),
}
