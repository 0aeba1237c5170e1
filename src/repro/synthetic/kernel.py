"""The synthetic kernel: mutable state plus low-level emission helpers.

A :class:`Kernel` owns the address-space layout, the trace builder, the
deterministic random streams, and the dynamic state a real kernel would
keep: which process runs on each CPU, which page frames are allocated,
which buffers hold which files.  The OS *services* built on these helpers
live in :mod:`repro.synthetic.services`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.rng import RngStream
from repro.common.types import DataClass, Mode
from repro.synthetic import layout as lay
from repro.synthetic.layout import KERNEL_PC, KernelLayout, PAGE
from repro.common.types import Op
from repro.trace.record import DEFAULT_ACCESS_BYTES
from repro.trace.stream import TraceBuilder

# Field values as plain ints, for the rows the emitters append.
_READ = int(Op.READ)
_WRITE = int(Op.WRITE)
_IDLE = int(Mode.IDLE)
_SCHED = int(DataClass.SCHED)
_WORD = DEFAULT_ACCESS_BYTES


class Process:
    """A synthetic process: identity plus its resident pages."""

    __slots__ = ("pid", "parent", "frames", "next_pte", "user_pos")

    def __init__(self, pid: int, parent: Optional[int] = None) -> None:
        self.pid = pid
        self.parent = parent
        #: Physical frames backing this process, in fault order.
        self.frames: List[int] = []
        self.next_pte = 0
        #: Progress cursor into the process's user data (for apps).
        self.user_pos = 0


class Kernel:
    """Synthetic-kernel state shared by all service emitters."""

    def __init__(self, num_cpus: int, rng: RngStream,
                 metadata: Optional[Dict[str, object]] = None,
                 frame_policy: str = "default") -> None:
        if frame_policy not in ("default", "colored"):
            raise ValueError(f"unknown frame policy {frame_policy!r}")
        #: Physical frame allocation policy: "default" (LIFO free list +
        #: jittered round-robin) or "colored" (cache-color aware placement
        #: in the spirit of Kessler & Hill — the section 7 extension).
        self.frame_policy = frame_policy
        self.layout = KernelLayout()
        self.builder = TraceBuilder(num_cpus, symbols=self.layout.symbols,
                                    metadata=metadata)
        self.rng = rng
        self.num_cpus = num_cpus
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._next_frame = 0
        #: Probability that an allocation reuses a recently freed frame.
        self.frame_reuse_prob = 0.8
        #: LIFO free-frame stack: recently freed frames are reallocated
        #: first, as a real page allocator's free list behaves.  This is
        #: what makes destination blocks warm in the caches (Table 3).
        self._free_frames: List[int] = []
        #: Per-color allocation cursors for the "colored" policy.
        self._color_cursor: Dict[int, int] = {}
        #: Episode counters per participant count (distinct barrier words
        #: serve full-gang and partial-gang episodes so each word always
        #: sees a consistent participant count).
        self._barrier_round: Dict[int, int] = {}
        #: Current process on each CPU (None = idle).
        self.running: List[Optional[int]] = [None] * num_cpus
        #: Per-CPU current file buffer (sticky across sequential I/O).
        self.file_buffer: List[int] = [cpu % 4 for cpu in range(num_cpus)]
        #: Per-CPU hot object sets in the kmem pools (see :meth:`kmem_walk`).
        self._kmem_hot: List[List[int]] = [[] for _ in range(num_cpus)]
        #: Globally hot kmem objects (root vnodes, tty structs): shared by
        #: all CPUs, so writes to them invalidate remote copies — the
        #: "Other" coherence misses of Table 5.
        self._kmem_global: List[int] = [obj * 8192 for obj in range(12)]

    # ------------------------------------------------------------------
    # Process and frame management
    # ------------------------------------------------------------------
    def spawn(self, parent: Optional[int] = None) -> Process:
        """Create a process (assigning the next pid)."""
        proc = Process(self._next_pid, parent)
        self.processes[proc.pid] = proc
        self._next_pid += 1
        return proc

    #: Cache colors for the "colored" policy: one per L2-sized stripe of
    #: page-aligned frames (256 KB / 4 KB pages = 64 colors).
    NUM_COLORS = 64

    def alloc_frame(self, color: Optional[int] = None) -> int:
        """Allocate a physical page frame.

        Under the default policy, recently freed frames are reused first
        (LIFO free list); otherwise a fresh frame is taken round-robin
        with jitter.  The jitter spreads frames across cache sets the way
        a real allocator's free list would, producing the *random
        conflicts* of section 6 rather than pathological same-set
        collisions.

        Under the "colored" policy (section 7's page-placement
        extension), a *color* — the frame's position within an L2-sized
        stripe — may be requested; the allocator then prefers a free
        frame of that color and otherwise carves a fresh one, so that a
        process's pages spread evenly over the cache and copy sources
        and destinations never collide.
        """
        if self.frame_policy == "colored" and color is not None:
            color %= self.NUM_COLORS
            for i in range(len(self._free_frames) - 1, -1, -1):
                frame = self._free_frames[i]
                if (frame // lay.PAGE) % self.NUM_COLORS == color:
                    del self._free_frames[i]
                    return frame
            base = self._color_cursor.get(color, 0)
            self._color_cursor[color] = base + 1
            index = (color + base * self.NUM_COLORS) % lay.NUM_FRAMES
            return self.layout.frame(index)
        if self._free_frames and self.rng.chance(self.frame_reuse_prob):
            return self._free_frames.pop()
        self._next_frame = (self._next_frame
                            + 1 + self.rng.randint(0, 5)) % lay.NUM_FRAMES
        return self.layout.frame(self._next_frame)

    def frame_color(self, addr: int) -> int:
        """Cache color of the page containing *addr*."""
        return (addr // lay.PAGE) % self.NUM_COLORS

    def free_frames(self, frames: List[int]) -> None:
        """Return frames to the LIFO free list."""
        self._free_frames.extend(frames)
        if len(self._free_frames) > 64:
            del self._free_frames[:-64]

    def next_barrier(self, participants: Optional[int] = None) -> int:
        """Barrier word for the next gang-scheduling episode.

        Full-gang episodes rotate over the first eight barrier words;
        partial gangs (when a serial job occupies a CPU) use the rest.
        """
        parties = participants if participants is not None else self.num_cpus
        count = self._barrier_round.get(parties, 0)
        self._barrier_round[parties] = count + 1
        if parties == self.num_cpus:
            index = count % 8
        else:
            index = 8 + count % (lay.NUM_BARRIERS - 8)
        return self.layout.barrier(index)

    # ------------------------------------------------------------------
    # Low-level emission helpers (all OS mode unless noted)
    # ------------------------------------------------------------------
    def read(self, cpu: int, addr: int, dclass: DataClass, block: str,
             icount: int = 2, mode: Mode = Mode.OS) -> None:
        self.builder.emit_row(cpu, (_READ, addr, mode, dclass,
                                    KERNEL_PC[block], icount, 0, _WORD, 0))

    def write(self, cpu: int, addr: int, dclass: DataClass, block: str,
              icount: int = 2, mode: Mode = Mode.OS) -> None:
        self.builder.emit_row(cpu, (_WRITE, addr, mode, dclass,
                                    KERNEL_PC[block], icount, 0, _WORD, 0))

    def bump_counter(self, cpu: int, name: str, block: str = "counter_code") -> None:
        """Increment an infrequently-communicated event counter."""
        addr = self.layout.counter(name)
        self.read(cpu, addr, DataClass.INFREQ_COMM, block, icount=1)
        self.write(cpu, addr, DataClass.INFREQ_COMM, block, icount=1)

    def read_all_counters(self, cpu: int, block: str = "counter_code") -> None:
        """The pager/accounting path: read every event counter."""
        for name in lay.INFREQ_COUNTERS:
            self.read(cpu, self.layout.counter(name), DataClass.INFREQ_COMM,
                      block, icount=1)

    def lock(self, cpu: int, name: str) -> None:
        from repro.trace.record import lock_acquire
        self.builder.emit(cpu, lock_acquire(self.layout.lock(name),
                                            pc=KERNEL_PC["lock_code"]))

    def unlock(self, cpu: int, name: str) -> None:
        from repro.trace.record import lock_release
        self.builder.emit(cpu, lock_release(self.layout.lock(name),
                                            pc=KERNEL_PC["lock_code"]))

    def touch_freq_shared(self, cpu: int, name: str, write: bool,
                          block: str) -> None:
        addr = self.layout.freq_shared(name)
        if write:
            self.write(cpu, addr, DataClass.FREQ_SHARED, block, icount=1)
        else:
            self.read(cpu, addr, DataClass.FREQ_SHARED, block, icount=1)

    def pte_loop(self, cpu: int, pid: int, start: int, count: int,
                 block: str, writes: bool) -> None:
        """Loop over *count* page-table entries (a section-6 hot spot)."""
        for i in range(count):
            addr = self.layout.pte(pid, start + i)
            self.read(cpu, addr, DataClass.PAGE_TABLE, block, icount=3)
            if writes:
                self.write(cpu, addr, DataClass.PAGE_TABLE, block, icount=1)

    def freelist_walk(self, cpu: int, steps: int) -> None:
        """Walk the free-page list to find a frame (hot-spot loop).

        Emits only the list traversal; the caller performs the actual
        allocation (possibly color-aware) via :meth:`alloc_frame`.
        """
        start = self.rng.randint(0, lay.NUM_FREELIST_NODES - 1)
        for i in range(steps):
            self.read(cpu, self.layout.freelist_node(start + i * 7),
                      DataClass.FREELIST, "freelist_walk", icount=3)
        self.touch_freq_shared(cpu, "freelist_size", write=True,
                               block="freelist_walk")

    def readahead_touch(self, cpu: int, base: int, size: int,
                        fraction: float = 0.6,
                        dclass: DataClass = DataClass.BUFFER) -> None:
        """Touch part of a buffer before it is copied.

        Models the buffer-cache work (readahead completion, checksums,
        uiomove bookkeeping) that leaves much of a source block already
        cached when the copy loop starts — Table 3 row 1.
        """
        line = self.layout  # noqa: F841 - kept for symmetry/debugging
        step = 16
        span = int(size * fraction) // step * step
        start = base + (size - span) // 2 // step * step
        for off in range(0, span, step):
            self.read(cpu, start + off, dclass, "io_entry", icount=1)

    def block_copy(self, cpu: int, src: int, dst: int, size: int,
                   src_dclass: DataClass = DataClass.BUFFER,
                   dst_dclass: DataClass = DataClass.PAGE_FRAME,
                   block: str = "bcopy") -> None:
        self.builder.emit_block_copy(cpu, src=src, dst=dst, size=size,
                                     pc=KERNEL_PC[block],
                                     src_dclass=src_dclass,
                                     dst_dclass=dst_dclass)

    def block_zero(self, cpu: int, dst: int, size: int,
                   block: str = "bzero") -> None:
        self.builder.emit_block_zero(cpu, dst=dst, size=size,
                                     pc=KERNEL_PC[block])

    def barrier_all(self, addr: int, participants: int,
                    cpus: Optional[List[int]] = None) -> None:
        """Emit one barrier arrival per participating CPU."""
        from repro.trace.record import barrier
        cpus = cpus if cpus is not None else list(range(self.num_cpus))
        for cpu in cpus:
            self.builder.emit(cpu, barrier(addr, participants,
                                           pc=KERNEL_PC["barrier_code"]))

    def kmem_walk(self, cpu: int, refs: int, block: str = "namei_code",
                  jump_prob: float = 0.1, write_prob: float = 0.14) -> None:
        """Background kernel data traffic: vnodes, name cache, cblocks.

        Visits kmem objects the way path-name translation and descriptor
        lookups do: a small per-CPU hot set of objects is revisited
        constantly (hits), while new objects are pulled in occasionally —
        the scattered references behind the *random conflict* misses of
        section 6.  Other CPUs write the same pools, so a slice of these
        misses is coherence ("Other" in Table 5).
        """
        hot = self._kmem_hot[cpu]
        emitted = 0
        while emitted < refs:
            if self.rng.chance(0.25):
                obj = self.rng.choice(self._kmem_global)
            elif not hot or self.rng.chance(jump_prob):
                obj = self.rng.randint(0, (lay.KMEM_BYTES - 64) // 32) * 32
                hot.append(obj)
                if len(hot) > 24:
                    hot.pop(0)
            else:
                obj = self.rng.choice(hot)
            # Read several fields of the object (a couple of cache
            # lines).  The access path depends on the object's pool, so
            # the misses spread over many basic blocks — only the hottest
            # few become section-6 hot spots.
            obj_block = f"kmisc_{(obj // 32) % 40:02d}"
            for field in range(min(7, refs - emitted)):
                addr = lay.KMEM_BASE + obj + (field % 8) * 4
                self.read(cpu, addr, DataClass.OTHER_KERNEL, obj_block,
                          icount=3)
                emitted += 1
            if self.rng.chance(write_prob):
                self.write(cpu, lay.KMEM_BASE + obj, DataClass.OTHER_KERNEL,
                           obj_block, icount=1)

    def idle(self, cpu: int, spins: int) -> None:
        """Idle loop: cheap private reads in IDLE mode."""
        row = (_READ, lay.SCHED_BASE + 256 + cpu * 16, _IDLE, _SCHED,
               KERNEL_PC["idle_loop"], 24, 0, _WORD, 0)
        for _ in range(spins):
            self.builder.emit_row(cpu, row)

    def build(self, validate: bool = True):
        """Finish trace construction."""
        return self.builder.build(validate=validate)
