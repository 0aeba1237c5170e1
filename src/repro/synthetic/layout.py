"""Address-space layout of the synthetic kernel and its processes.

The trace substitution reproduces the *structure* of Concentrix's memory
use, not its literal addresses.  The layout places:

* OS code (basic-block addresses, including the 12 miss-hot-spot blocks of
  section 6),
* a synchronization page holding the gang-scheduling barrier words, the
  kernel spin locks, and the frequently-shared producer-consumer core —
  exactly the 384 bytes that section 5.2 maps to the Firefly update
  protocol (they are statically allocated, so one page holds them all),
* the infrequently-communicated event counters (vmmeter et al.), packed
  several to a cache line as a naively parallelized uniprocessor kernel
  would — the false sharing that section 5.1's relocation removes,
* the big kernel arrays (page tables, process table, buffer cache,
  syscall table, timers, free-page list), and
* per-process user segments and a physical page-frame pool.

Everything is registered in a :class:`~repro.trace.annotations.SymbolMap`
so analyses can attribute any address to its structure.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.types import DataClass
from repro.trace.annotations import SymbolMap

#: Page size of the synthetic kernel.
PAGE = 4096

# ----------------------------------------------------------------------
# OS code segment: one pc per named basic block.
# ----------------------------------------------------------------------
OS_CODE_BASE = 0x0010_0000

#: Basic blocks of the synthetic kernel.  The first twelve are the miss
#: hot spots of section 6 — five loops and seven sequences.
KERNEL_BLOCKS = [
    # -- the 12 hot spots (section 6) --
    "pte_init_loop",      # loop: initialize page-table entries
    "pte_copy_loop",      # loop: copy page-table entries (fork)
    "pte_scan_loop",      # loop: scan PTEs (pageout / unmap)
    "pte_unmap_loop",     # loop: invalidate PTEs on exit
    "freelist_walk",      # loop: walk the free-page list
    "resume_seq",         # sequence: resume a process
    "timer_seq",          # sequence: timer / system accounting
    "trap_syscall_seq",   # sequence: execute the trap system call
    "ctxsw_seq",          # sequence: context switch
    "sched_seq",          # sequence: schedule a process
    "intr_seq",           # sequence: cross-processor interrupt dispatch
    "exit_seq",           # sequence: process teardown
    # -- other kernel code --
    "fault_entry", "fault_exit", "fork_entry", "exec_entry", "io_entry",
    "io_copyloop", "bcopy", "bzero", "lock_code", "barrier_code",
    "counter_code", "idle_loop", "syscall_entry", "pipe_code",
    "namei_code", "select_code", "pageout_code",
] + [f"kmisc_{i:02d}" for i in range(40)]

#: Bytes of code per basic block (keeps pcs on distinct I-cache lines).
BLOCK_CODE_BYTES = 256

#: pc of each named kernel basic block.
KERNEL_PC: Dict[str, int] = {
    name: OS_CODE_BASE + i * BLOCK_CODE_BYTES
    for i, name in enumerate(KERNEL_BLOCKS)
}

#: The 12 hot-spot basic blocks, by name (order matters: 5 loops then
#: 7 sequences, as in section 6).
HOTSPOT_BLOCKS = KERNEL_BLOCKS[:12]

#: User code region (per-process pc bases are derived from this).
USER_CODE_BASE = 0x0018_0000


def user_pc(pid: int, block: int) -> int:
    """pc of basic block *block* of process *pid*'s code."""
    return USER_CODE_BASE + (pid % 64) * 1024 + (block % 16) * 64


# ----------------------------------------------------------------------
# Kernel static data.
# ----------------------------------------------------------------------
SYNC_PAGE = 0x0020_0000          # barriers + locks + shared core (one page)
COUNTER_BASE = 0x0020_1000       # vmmeter-style event counters
SCHED_BASE = 0x0020_2000         # run queue & scheduler state
TIMER_BASE = 0x0020_3000         # high-resolution timer & accounting
SYSCALL_TABLE = 0x0020_4000      # system-call dispatch table (1 KB)
PROC_TABLE = 0x0021_0000         # process table, 256 B per entry
PAGE_TABLE = 0x0030_0000         # page-table entry arrays
FREELIST_BASE = 0x0040_0000      # free-page list nodes
KMEM_BASE = 0x0050_0000          # kmem pools: vnodes, name cache, cblocks
KMEM_BYTES = 256 * 1024
MBUF_POOL = 0x0070_0000          # network mbufs and pipe buffers
NUM_MBUFS = 64
MBUF_BYTES = 2048
NIC_RING = 0x0078_0000           # network interface receive/transmit ring
NUM_NIC_SLOTS = 32
NIC_SLOT_BYTES = 2048
BUFFER_CACHE = 0x0080_0000       # file-system buffer cache
FRAME_POOL = 0x0100_0000         # physical page frames
PRIVATE_BASE = 0x0060_0000       # per-CPU privatized counter replicas

NUM_PROCS = 64
PROC_ENTRY_BYTES = 256
NUM_PTES_PER_PROC = 1024         # 4 KB of PTEs per process
PTE_BYTES = 4
NUM_FREELIST_NODES = 512
FREELIST_NODE_BYTES = 16
NUM_BUFFERS = 128
BUFFER_BYTES = PAGE
NUM_FRAMES = 2048

#: Number of distinct gang-scheduling barrier words (48 bytes total).
NUM_BARRIERS = 12
#: Kernel spin locks, most-active first (the 10 hottest get updates).
KERNEL_LOCKS = [
    "sched_lock", "memalloc_lock", "timer_lock", "accounting_lock",
    "proc_lock", "callout_lock", "buffer_lock", "vm_lock", "file_lock",
    "network_lock", "tty_lock", "inode_lock",
]
#: Frequently-shared variables with (partly) producer-consumer behaviour;
#: 176 bytes total (section 5.2).
FREQ_SHARED_VARS = [
    ("freelist_size", 4),
    ("cpievents", 64),           # per-CPU cross-interrupt info array
    ("runq_length", 4),
    ("sched_hint", 4),
    ("resource_ptrs", 64),       # system resource table pointers
    ("pageout_target", 4),
    ("load_average", 8),
    ("ipc_mailbox", 24),
]
#: Infrequently-communicated counters (updated often by every CPU, read
#: rarely by the pager/accounting).  Packed four to a 16-byte line.
INFREQ_COUNTERS = [
    "v_intr", "v_xcall", "v_pgfault", "v_syscall", "v_swtch", "v_trap",
    "v_fork", "v_exec", "v_read", "v_write", "v_pageins", "v_pageouts",
    "v_idle", "v_sched", "v_lock_wait", "v_io_done",
]

USER_BASE = 0x4000_0000
USER_SEGMENT_BYTES = 0x0100_0000


class KernelLayout:
    """Concrete addresses for every kernel structure, plus the symbol map."""

    def __init__(self) -> None:
        self.symbols = SymbolMap()
        self.barrier_addrs: List[int] = []
        self.lock_addr: Dict[str, int] = {}
        self.freq_shared_addr: Dict[str, int] = {}
        self.counter_addr: Dict[str, int] = {}
        self._build_sync_page()
        self._build_counters()
        self._build_big_structures()

    # -- construction ---------------------------------------------------
    def _build_sync_page(self) -> None:
        addr = SYNC_PAGE
        for i in range(NUM_BARRIERS):
            self.barrier_addrs.append(addr)
            addr += 4
        self.symbols.add("gang_barriers", SYNC_PAGE, addr - SYNC_PAGE,
                         DataClass.BARRIER_VAR)
        # One lock per 16-byte line (already relocated in the layout; the
        # paper's relocation pass separates synchronization variables).
        addr = SYNC_PAGE + 64
        for name in KERNEL_LOCKS:
            self.lock_addr[name] = addr
            self.symbols.add(name, addr, 16, DataClass.LOCK_VAR)
            addr += 16
        # The frequently-shared core: 176 bytes, contiguous.
        addr = SYNC_PAGE + 64 + len(KERNEL_LOCKS) * 16
        for name, size in FREQ_SHARED_VARS:
            self.freq_shared_addr[name] = addr
            self.symbols.add(name, addr, size, DataClass.FREQ_SHARED)
            addr += size

    def _build_counters(self) -> None:
        # Four 4-byte counters per 16-byte line: false sharing by design,
        # as in a kernel whose uniprocessor counters were marked shared.
        addr = COUNTER_BASE
        for name in INFREQ_COUNTERS:
            self.counter_addr[name] = addr
            self.symbols.add(name, addr, 4, DataClass.INFREQ_COMM)
            addr += 4

    def _build_big_structures(self) -> None:
        self.symbols.add("runqueue", SCHED_BASE, 512, DataClass.SCHED)
        self.symbols.add("hrtimer", TIMER_BASE, 256, DataClass.TIMER)
        self.symbols.add("syscall_table", SYSCALL_TABLE, 1024,
                         DataClass.SYSCALL_TABLE)
        self.symbols.add("proc_table", PROC_TABLE,
                         NUM_PROCS * PROC_ENTRY_BYTES, DataClass.PROC_TABLE)
        self.symbols.add("page_tables", PAGE_TABLE,
                         NUM_PROCS * NUM_PTES_PER_PROC * PTE_BYTES,
                         DataClass.PAGE_TABLE)
        self.symbols.add("freelist", FREELIST_BASE,
                         NUM_FREELIST_NODES * FREELIST_NODE_BYTES,
                         DataClass.FREELIST)
        self.symbols.add("kmem_pools", KMEM_BASE, KMEM_BYTES,
                         DataClass.OTHER_KERNEL)
        self.symbols.add("mbuf_pool", MBUF_POOL, NUM_MBUFS * MBUF_BYTES,
                         DataClass.BUFFER)
        self.symbols.add("nic_ring", NIC_RING, NUM_NIC_SLOTS * NIC_SLOT_BYTES,
                         DataClass.BUFFER)
        self.symbols.add("buffer_cache", BUFFER_CACHE,
                         NUM_BUFFERS * BUFFER_BYTES, DataClass.BUFFER)
        self.symbols.add("frame_pool", FRAME_POOL, NUM_FRAMES * PAGE,
                         DataClass.PAGE_FRAME)

    # -- accessors --------------------------------------------------------
    def barrier(self, index: int) -> int:
        """Address of gang barrier *index*."""
        return self.barrier_addrs[index % NUM_BARRIERS]

    def lock(self, name: str) -> int:
        return self.lock_addr[name]

    def counter(self, name: str) -> int:
        return self.counter_addr[name]

    def freq_shared(self, name: str) -> int:
        return self.freq_shared_addr[name]

    def proc_entry(self, pid: int) -> int:
        return PROC_TABLE + (pid % NUM_PROCS) * PROC_ENTRY_BYTES

    def pte(self, pid: int, index: int) -> int:
        base = PAGE_TABLE + (pid % NUM_PROCS) * NUM_PTES_PER_PROC * PTE_BYTES
        return base + (index % NUM_PTES_PER_PROC) * PTE_BYTES

    def freelist_node(self, index: int) -> int:
        return FREELIST_BASE + (index % NUM_FREELIST_NODES) * FREELIST_NODE_BYTES

    def buffer(self, index: int) -> int:
        return BUFFER_CACHE + (index % NUM_BUFFERS) * BUFFER_BYTES

    def mbuf(self, index: int) -> int:
        return MBUF_POOL + (index % NUM_MBUFS) * MBUF_BYTES

    def nic_slot(self, index: int) -> int:
        return NIC_RING + (index % NUM_NIC_SLOTS) * NIC_SLOT_BYTES

    def frame(self, index: int) -> int:
        return FRAME_POOL + (index % NUM_FRAMES) * PAGE

    def user_segment(self, pid: int) -> int:
        # Stagger segments so different processes' arrays do not all map
        # to the same primary-cache sets (segment size is a multiple of
        # the cache size).
        return (USER_BASE + (pid % NUM_PROCS) * USER_SEGMENT_BYTES
                + (pid % 8) * 0x12C0)
