"""Timing-free reference memory model: shadow data over version tokens.

The simulator models *time*, not data — caches carry tags and MESI states
but no bytes.  The oracle supplies the missing data dimension: every
architectural write is assigned a symbolic *version token*, and the oracle
tracks which token each word-aligned location currently holds in main
memory, in every CPU's cached copy (L1 and L2 merged — the L1 is
write-through and included in the L2, so the L2 line is the authority),
and in the bypass schemes' store-line registers.  The runtime checker
mirrors each data movement the protocol performs (line fills,
cache-to-cache supplies, write-backs, invalidations, Firefly updates,
bypass flushes, DMA transfers) into this model.

Why the model is exact rather than approximate: every memory-state
mutation in the simulator happens *synchronously* inside the trace record
that causes it (write-buffer entries are timestamps; each entry's
service runs when the entry is admitted).  Record commit order therefore doubles as
a per-location sequentially-consistent order, so after any read the
reader's copy must hold the globally latest token for that word — on any
trace, racy or not.  A divergence is a protocol bug, never a scheduling
artifact.  The one deferred-visibility path is the bypass store-line
register: a bypassed write commits at the register *flush* (see
:meth:`ReferenceMemory.flush_store_reg`), which is itself synchronous
inside the record that triggers it.

Tokens:

* ``(cpu, stream_pos)`` for an ordinary write — the position of the
  writing record in its CPU's stream.  Stream positions (not per-CPU
  counters) keep tokens comparable across schemes: Blk_Dma skips the
  word records of a block operation entirely, which would desynchronize
  any counter.
* The value of the corresponding *source* word for a block-copy
  destination write, and :data:`ZERO` for a block-zero write — value
  semantics, so the Base machine's word loop and the DMA engine agree on
  the final contents.
* :data:`INIT` for never-written locations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Granularity of the shadow memory (one 32-bit word).
WORD_BYTES = 4

#: Token of a location no write ever reached.
INIT = "init"
#: Token written by a block-zero operation.
ZERO = "zero"


def word_of(addr: int) -> int:
    """Word-align *addr* down to the oracle's granularity."""
    return addr - (addr % WORD_BYTES)


class ReferenceMemory:
    """Shadow memory: token-per-word state of memory, caches, registers."""

    def __init__(self, num_cpus: int, line_bytes: int) -> None:
        self.num_cpus = num_cpus
        #: L2 line size — the granularity of every coherence action.
        self.line_bytes = line_bytes
        #: Architecturally latest token per word (per-location SC order).
        self.latest: Dict[int, object] = {}
        #: Main-memory contents.
        self.mem: Dict[int, object] = {}
        #: Per-CPU cached copy (only words of resident L2 lines).
        self.copies: List[Dict[int, object]] = [dict() for _ in range(num_cpus)]
        #: Per-CPU bypass store-line register contents (Blk_Bypass).
        self.store_regs: List[Dict[int, object]] = [dict()
                                                    for _ in range(num_cpus)]
        #: In-flight line fill per CPU: (line, {word: token}).  A fill is
        #: staged when the bus supplies the data and committed when the
        #: L2 installs the line (after eviction side effects).
        self._staged: List[Optional[Tuple[int, Dict[int, object]]]] = \
            [None] * num_cpus

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def line_words(self, line: int) -> range:
        return range(line, line + self.line_bytes, WORD_BYTES)

    # ------------------------------------------------------------------
    # Value lookups
    # ------------------------------------------------------------------
    def latest_value(self, addr: int) -> object:
        return self.latest.get(word_of(addr), INIT)

    def mem_value(self, addr: int) -> object:
        return self.mem.get(word_of(addr), INIT)

    def copy_value(self, cpu: int, addr: int) -> object:
        return self.copies[cpu].get(word_of(addr), INIT)

    # ------------------------------------------------------------------
    # Architectural writes
    # ------------------------------------------------------------------
    def commit_write(self, addr: int, token: object) -> None:
        """Make *token* the architecturally latest value of the word."""
        self.latest[word_of(addr)] = token

    def set_copy(self, cpu: int, addr: int, token: object) -> None:
        self.copies[cpu][word_of(addr)] = token

    def set_store_reg(self, cpu: int, addr: int, token: object) -> None:
        self.store_regs[cpu][word_of(addr)] = token

    # ------------------------------------------------------------------
    # Line movement
    # ------------------------------------------------------------------
    def stage_from_memory(self, cpu: int, line: int) -> None:
        """Stage a fill of *line* into *cpu* with main-memory data."""
        self._staged[cpu] = (line, {w: self.mem.get(w, INIT)
                                    for w in self.line_words(line)})

    def stage_from_cpu(self, cpu: int, supplier: int, line: int, *,
                       writeback: bool) -> None:
        """Stage a cache-to-cache supply of *line* from *supplier*.

        With ``writeback`` (Illinois read supply from a dirty holder) the
        supplier also pushes the line to memory; an ownership transfer
        (read-for-ownership from a dirty holder) moves the data without
        updating memory.
        """
        src = self.copies[supplier]
        data = {w: src.get(w, INIT) for w in self.line_words(line)}
        if writeback:
            self.mem.update(data)
        self._staged[cpu] = (line, data)

    def commit_fill(self, cpu: int, line: int) -> bool:
        """Install the staged fill of *line*; False if none was staged."""
        staged = self._staged[cpu]
        if staged is None or staged[0] != line:
            return False
        self.copies[cpu].update(staged[1])
        self._staged[cpu] = None
        return True

    def staged_line(self, cpu: int) -> Optional[int]:
        staged = self._staged[cpu]
        return None if staged is None else staged[0]

    def drop_line(self, cpu: int, line: int) -> None:
        """Invalidate *cpu*'s copy of *line* (coherence or conflict)."""
        copies = self.copies[cpu]
        for w in self.line_words(line):
            copies.pop(w, None)

    def writeback_line(self, cpu: int, line: int) -> None:
        """Flush *cpu*'s copy of *line* to memory (copy stays valid)."""
        copies = self.copies[cpu]
        for w in self.line_words(line):
            if w in copies:
                self.mem[w] = copies[w]

    # ------------------------------------------------------------------
    # Firefly update
    # ------------------------------------------------------------------
    def firefly_update(self, addr: int, holders) -> None:
        """Broadcast the latest value of *addr*'s word to *holders*.

        The update writes through to memory and patches every remote
        holder's copy in place (the writer's own copy is set by the write
        machinery itself).
        """
        w = word_of(addr)
        tok = self.latest.get(w, INIT)
        self.mem[w] = tok
        for cpu in holders:
            self.copies[cpu][w] = tok

    # ------------------------------------------------------------------
    # Bypass store register
    # ------------------------------------------------------------------
    def flush_store_reg(self, cpu: int, line: int, reg_bytes: int) -> None:
        """Commit the store register's words of *line*.

        The flush is the *architectural commit point* of a bypassed
        write: until the register hits the bus (write-back plus remote
        invalidation) the write is globally invisible, and two CPUs'
        registers racing on one line serialize in flush order, not in
        word-write order.  Only words actually written are committed (the
        hardware merges at word granularity); unwritten words of the
        register line keep their memory contents.
        """
        regs = self.store_regs[cpu]
        for w in range(line, line + reg_bytes, WORD_BYTES):
            if w in regs:
                tok = regs.pop(w)
                self.latest[w] = tok
                self.mem[w] = tok

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def architectural_memory(self, exclude=()) -> Dict[int, object]:
        """Final per-word architectural contents, for cross-scheme diffs.

        *exclude* lists addresses whose words are dropped — callers use it
        for lock and barrier words, whose multi-writer races make their
        final value legitimately timing- (and therefore scheme-)
        dependent.
        """
        excluded = {word_of(a) for a in exclude}
        return {w: tok for w, tok in self.latest.items() if w not in excluded}
