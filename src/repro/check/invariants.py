"""Runtime conformance checker for the coherence protocol.

:func:`attach_checker` arms a freshly built
:class:`~repro.sim.system.MultiprocessorSystem` with a
:class:`ConformanceChecker` that follows every access through the memory
system and raises :class:`~repro.common.errors.ConformanceError` the
moment the protocol diverges from the reference model:

* **stale read** — a read observes a copy that is not the architecturally
  latest value of the word (checked against the
  :class:`~repro.check.oracle.ReferenceMemory`);
* **SWMR / single dirty owner** — more than one EXCLUSIVE/MODIFIED holder
  of a line, or an owned line with other copies outstanding;
* **inclusion** — an L1 line whose L2 line is not resident;
* **update-page legality** — a Firefly-update write must leave every
  pre-existing remote sharer resident (update, not invalidate);
* **write-buffer order** — FIFO entries must retire in non-decreasing
  completion order;
* **adaptive-policy conformance** — when a hybrid scheme's policy
  (:mod:`repro.memsys.adaptive`) is attached, every bus-level write
  decision is re-derived by an independent shadow model
  (:class:`_AdaptiveShadow`): a live update counter outside ``[0, N]``
  is ``adaptive-counter-range``, a broadcast update delivered to a copy
  whose budget is exhausted is ``update-past-budget``, and any other
  divergence between the policy's decision and the shadow's is
  ``adaptive-decision-mismatch``;
* **final diff** — after the run, every resident clean line must match
  memory, every dirty line must hold the latest values, every
  architecturally written value must still be reachable (no lost
  write-backs), and no shadow copy may outlive its line's residency.

Cost model: the checker is a :class:`~repro.memsys.sink.Probe`, so a
system without one pays a ``probe is not None`` test at each hook site
and nothing more.  Attached, it sees every access on the paths that run
without it: the processor's inline hits and clean writes call the same
hooks the hierarchy would (``tests/test_fastpath_equivalence.py`` pins
that a probe changes no hierarchy call).  The controller's hooks sit
exactly where the hardware moves data, so mutated protocol logic cannot
dodge the model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import ConformanceError
from repro.common.types import AdaptivePolicy
from repro.check.oracle import (INIT, ReferenceMemory, WORD_BYTES, ZERO,
                                word_of)
from repro.memsys.hierarchy import LEVEL_BUFFER, LEVEL_MEM, LEVEL_REGISTER
from repro.memsys.sink import Probe
from repro.memsys.states import LineState
from repro.trace.blockop import BlockOpDescriptor

#: Read sources that are architecturally non-coherent by design: the
#: bypass source line register and the Blk_ByPref prefetch buffer are not
#: snooped, so (per the paper's hardware) they may legitimately serve data
#: that a concurrent writer has since replaced.
_UNCHECKED_LEVELS = (LEVEL_REGISTER, LEVEL_BUFFER)


class _AdaptiveShadow:
    """Independent model of the attached adaptive update/invalidate policy.

    Rebuilt from the policy's
    :meth:`~repro.memsys.adaptive.BaseAdaptivePolicy.describe` parameters
    only — deliberately *not* from the policy classes themselves, so a
    mutated policy (:mod:`repro.check.mutants`) is judged against clean
    logic.  Residency and budget resets are fed by the same controller
    events the oracle sees (fills and invalidations); every bus-level
    write decision is re-derived here and compared against the policy's
    in :meth:`ConformanceChecker.adaptive_decision`.
    """

    def __init__(self, params: Dict[str, object]) -> None:
        self.kind = params["kind"]
        self.page_bytes = params["page_bytes"]
        self.n = params.get("n")
        self.threshold = params.get("threshold")
        self.pages = set(params.get("pages") or ())
        self._resident: Dict[int, Set[int]] = {}
        self._budget: Dict[Tuple[int, int], int] = {}
        self._invalidate_mode: Set[int] = set()

    # -- residency events (mirroring the policy's on_fill/on_invalidate)
    def on_fill(self, cpu: int, line: int) -> None:
        self._resident.setdefault(line, set()).add(cpu)
        self._budget.pop((cpu, line), None)

    def on_invalidate(self, cpu: int, line: int) -> None:
        self._budget.pop((cpu, line), None)
        holders = self._resident.get(line)
        if holders is None:
            return
        holders.discard(cpu)
        if not holders:
            del self._resident[line]
            self._invalidate_mode.discard(line)

    # -- the clean decision logic
    def expected(self, cpu: int, addr: int, line: int,
                 holders: List[int]) -> Tuple[bool, Tuple[int, ...],
                                              Tuple[int, ...]]:
        """The ``(update, to_update, to_invalidate)`` a clean policy would
        pick; pure — shadow state is advanced separately by :meth:`apply`.
        """
        if self.kind == AdaptivePolicy.UPDATE_N:
            n = self.n
            up = tuple(i for i in holders
                       if self._budget.get((i, line), n) > 0)
            if not up:
                return (False, (), tuple(holders))
            inv = tuple(i for i in holders
                        if self._budget.get((i, line), n) <= 0)
            return (True, up, inv)
        if self.kind == AdaptivePolicy.DEGREE:
            degree = len(holders)
            if degree == 0:
                return (False, (), ())
            if line in self._invalidate_mode or degree > self.threshold:
                return (False, (), tuple(holders))
            return (True, tuple(holders), ())
        page = addr - (addr % self.page_bytes)
        if page in self.pages:
            return (True, tuple(holders), ())
        return (False, (), tuple(holders))

    def apply(self, cpu: int, addr: int, line: int, holders: List[int],
              expected) -> None:
        """Advance shadow state past a verified decision."""
        update, to_update, _ = expected
        if self.kind == AdaptivePolicy.UPDATE_N:
            # The write is a bus-visible local re-reference by the writer.
            self._budget.pop((cpu, line), None)
            if update:
                n = self.n
                for i in to_update:
                    self._budget[(i, line)] = (
                        self._budget.get((i, line), n) - 1)
        elif self.kind == AdaptivePolicy.DEGREE:
            if not holders:
                self._invalidate_mode.discard(line)
            elif not update:
                self._invalidate_mode.add(line)


class ConformanceChecker(Probe):
    """Mirrors protocol data movement into the oracle and checks it."""

    def __init__(self, system) -> None:
        self.system = system
        self.controller = system.controller
        machine = system.config.machine
        self.l2_line_bytes = machine.l2.line_bytes
        self.l1_line_bytes = machine.l1d.line_bytes
        self.oracle = ReferenceMemory(system.trace.num_cpus,
                                      self.l2_line_bytes)
        #: Accesses the checker actually inspected (sanity/reporting).
        self.accesses_checked = 0
        #: Token of the write in flight (writes never nest).
        self._write_token: object = None
        #: Pre-write remote sharers of an update-page line, per CPU.
        self._update_sharers: Dict[int, Tuple[int, List[int]]] = {}
        #: Shadow model of the adaptive policy, when one is attached.
        adaptive = self.controller.adaptive
        self._shadow = (_AdaptiveShadow(adaptive.describe())
                        if adaptive is not None else None)

    # ------------------------------------------------------------------
    # Error helper
    # ------------------------------------------------------------------
    def _fail(self, kind: str, message: str, **details) -> None:
        raise ConformanceError(f"{kind}: {message}", kind=kind,
                               details=details)

    # ==================================================================
    # Probe hooks of the coherence controller / DMA engine / hierarchy
    # ==================================================================
    def invalidate(self, cpu: int, line: int, victims) -> None:
        """The *victims*' copies of *line* were invalidated."""
        for i in victims:
            self.oracle.drop_line(i, line)
            if self._shadow is not None:
                self._shadow.on_invalidate(i, line)

    def fill_from_memory(self, cpu: int, line: int) -> None:
        """Memory supplies *line* to *cpu* (staged until the L2 install)."""
        self.oracle.stage_from_memory(cpu, line)

    def fill_from_cache(self, cpu: int, line: int, holders: List[int]) -> None:
        """A holder supplies *line* cache-to-cache for a read.

        Called before the state transition, so a MODIFIED supplier is
        still visible; per Illinois it writes the line back while
        supplying it.
        """
        ports = self.controller.ports
        dirty = None
        for i in holders:
            if ports[i].l2.state_of(line) == LineState.MODIFIED:
                dirty = i
                break
        supplier = dirty if dirty is not None else holders[0]
        self.oracle.stage_from_cpu(cpu, supplier, line,
                                   writeback=dirty is not None)

    def fill_for_ownership(self, cpu: int, line: int,
                           dirty: Optional[int]) -> None:
        """Read-for-ownership supply: dirty holder or memory, no writeback."""
        if dirty is not None:
            self.oracle.stage_from_cpu(cpu, dirty, line, writeback=False)
        else:
            self.oracle.stage_from_memory(cpu, line)

    def l2_install(self, cpu: int, line: int, evicted: int,
                   evicted_dirty: bool) -> None:
        """*line* was installed in *cpu*'s L2, evicting *evicted*."""
        if evicted != -1:
            if evicted_dirty:
                self.oracle.writeback_line(cpu, evicted)
            self.oracle.drop_line(cpu, evicted)
        if not self.oracle.commit_fill(cpu, line):
            self._fail("unstaged-fill",
                       f"cpu {cpu} installed line {line:#x} that no bus "
                       f"transfer supplied", cpu=cpu, line=line)
        if self._shadow is not None:
            if evicted != -1:
                self._shadow.on_invalidate(cpu, evicted)
            self._shadow.on_fill(cpu, line)

    def update(self, cpu: int, addr: int, t: int, done: int,
               holders) -> None:
        """Firefly broadcast of *addr*'s word to the listed holders."""
        self.oracle.firefly_update(addr, holders)

    def adaptive_decision(self, cpu: int, addr: int, line: int,
                          decision) -> None:
        """The adaptive policy routed a bus-level write; re-derive it.

        Called from :meth:`~repro.memsys.coherence.CoherenceController.
        upgrade` / ``fetch_owned`` right after the policy decided, before
        the route executes.  The shadow recomputes the decision the clean
        logic would make from the controller's actual port states and its
        own replayed budget/epoch state.
        """
        shadow = self._shadow
        policy = self.controller.adaptive
        if shadow.kind == AdaptivePolicy.UPDATE_N:
            for (i, l), left in policy.counters():
                if not 0 <= left <= shadow.n:
                    self._fail(
                        "adaptive-counter-range",
                        f"update budget of cpu {i} line {l:#x} is {left}, "
                        f"outside [0, {shadow.n}]", cpu=i, line=l,
                        budget=left, n=shadow.n)
        ports = self.controller.ports
        holders = [i for i, p in enumerate(ports)
                   if i != cpu
                   and p.l2.state_of(line) != LineState.INVALID]
        expected = shadow.expected(cpu, addr, line, holders)
        exp_update, exp_up, exp_inv = expected
        if (shadow.kind == AdaptivePolicy.UPDATE_N and decision.update):
            past = sorted(set(decision.to_update) & set(exp_inv))
            if past:
                self._fail(
                    "update-past-budget",
                    f"write to {addr:#x} by cpu {cpu} broadcast an update "
                    f"to cpus {past} whose budgets are exhausted",
                    cpu=cpu, addr=addr, line=line, past=past)
        if (decision.update != exp_update
                or set(decision.to_update) != set(exp_up)
                or set(decision.to_invalidate) != set(exp_inv)):
            self._fail(
                "adaptive-decision-mismatch",
                f"write to {addr:#x} by cpu {cpu}: policy decided "
                f"(update={decision.update}, to_update="
                f"{sorted(decision.to_update)}, to_invalidate="
                f"{sorted(decision.to_invalidate)}) but the shadow "
                f"expects (update={exp_update}, to_update="
                f"{sorted(exp_up)}, to_invalidate={sorted(exp_inv)})",
                cpu=cpu, addr=addr, line=line)
        shadow.apply(cpu, addr, line, holders, expected)

    def writeback(self, cpu: int, line: int) -> None:
        """*cpu* flushed *line* to memory, keeping its copy."""
        self.oracle.writeback_line(cpu, line)

    def bypass_flush(self, cpu: int, line: int) -> None:
        """The bypass destination register flushed *line* to memory."""
        self.oracle.flush_store_reg(cpu, line, self.l1_line_bytes)

    def dma(self, cpu: int, desc: BlockOpDescriptor, result) -> None:
        """The DMA engine performed block operation *desc*.

        Runs after the source and destination snoops, so memory already
        holds any dirty source data — if it does not, a snoop was lost
        and the engine would have copied stale bytes.
        """
        o = self.oracle
        if desc.is_copy:
            for off in range(0, desc.size, WORD_BYTES):
                sw = word_of(desc.src + off)
                if o.mem.get(sw, INIT) != o.latest.get(sw, INIT):
                    self._fail(
                        "dma-stale-source",
                        f"DMA copy reads {sw:#x} from memory but the "
                        f"latest value was never written back",
                        cpu=cpu, addr=sw, mem=o.mem.get(sw, INIT),
                        latest=o.latest.get(sw, INIT))
        dst_words = []
        for off in range(0, desc.size, WORD_BYTES):
            dw = word_of(desc.dst + off)
            tok = (o.latest.get(word_of(desc.src + off), INIT)
                   if desc.is_copy else ZERO)
            o.latest[dw] = tok
            o.mem[dw] = tok
            dst_words.append(dw)
        # Snooping updated every cached destination copy in place.
        ports = self.controller.ports
        for i, port in enumerate(ports):
            copies = o.copies[i]
            for dw in dst_words:
                if port.l2.state_of(dw) != LineState.INVALID:
                    copies[dw] = o.latest[dw]

    # ==================================================================
    # Probe hooks of the per-CPU accesses
    # ==================================================================
    def read(self, cpu: int, addr: int, t: int, res) -> None:
        self.observe_read(cpu, addr, res.level)
        self.after_access(cpu, addr)

    def read_bypass(self, cpu: int, addr: int, t: int, res) -> None:
        """A read the bypass machinery served itself (a fallback through
        the cached path is reported as a plain :meth:`read`)."""
        if res.level == LEVEL_MEM:
            expected = self.oracle.latest_value(addr)
            got = self.oracle.mem_value(addr)
            if got != expected:
                self._fail("stale-bypass-read",
                           f"cpu {cpu} bypass-read {addr:#x} from memory "
                           f"and observed {got!r}, latest is {expected!r}",
                           cpu=cpu, addr=addr, got=got, expected=expected)
        else:
            self.observe_read(cpu, addr, res.level)
        self.after_access(cpu, addr)

    def write_begin(self, cpu: int, addr: int, t: int) -> None:
        """Commit the write architecturally, before the machinery runs.

        The commit must precede the drain: a Firefly broadcast during the
        drain reads the latest token.  The writer's own copy is patched in
        :meth:`write_end` — after the drain, whose ownership fetch fills
        the line with pre-write data.
        """
        token = self.write_token(cpu, addr)
        if self._must_update(addr):
            line = self.oracle.line_of(addr)
            ports = self.controller.ports
            sharers = [i for i, p in enumerate(ports)
                       if i != cpu
                       and p.l2.state_of(line) != LineState.INVALID]
            self._update_sharers[cpu] = (line, sharers)
        self.oracle.commit_write(addr, token)
        self._write_token = token

    def _must_update(self, addr: int) -> bool:
        """True when a write to *addr* must update, not invalidate, its
        sharers: everywhere under pure update, and on the static
        policy's pages (selective update)."""
        if self.controller.update_everywhere:
            return True
        shadow = self._shadow
        return (shadow is not None and shadow.kind == AdaptivePolicy.STATIC
                and addr - addr % shadow.page_bytes in shadow.pages)

    def write_end(self, cpu: int, addr: int, t: int, done: int,
                  stall: int) -> None:
        self.oracle.set_copy(cpu, addr, self._write_token)
        pre = self._update_sharers.pop(cpu, None)
        if pre is not None:
            line, sharers = pre
            ports = self.controller.ports
            for i in sharers:
                if ports[i].l2.state_of(line) == LineState.INVALID:
                    self._fail(
                        "update-invalidated-sharer",
                        f"Firefly write to {addr:#x} by cpu {cpu} "
                        f"invalidated sharer cpu {i} instead of updating "
                        f"it", cpu=cpu, addr=addr, sharer=i, line=line)
        self.after_access(cpu, addr)

    def write_bypass(self, cpu: int, addr: int, t: int, res) -> None:
        """A register-buffered write is globally invisible until the flush
        commits it (:meth:`bypass_flush`), so only its token is kept."""
        self.oracle.set_store_reg(cpu, addr, self.write_token(cpu, addr))
        self.after_access(cpu, addr)

    def finish(self) -> None:
        self.verify_final()

    # ==================================================================
    # Access-level checks
    # ==================================================================
    def write_token(self, cpu: int, addr: int) -> object:
        """Token for the write *cpu* is currently performing."""
        proc = self.system.processors[cpu]
        pos = proc.pos - 1
        rec = proc.record(pos)
        desc = proc._blk_desc
        if rec.blockop and desc is not None and desc.contains_dst(addr):
            if desc.is_copy:
                return self.oracle.latest_value(desc.src + (addr - desc.dst))
            return ZERO
        return (cpu, pos)

    def observe_read(self, cpu: int, addr: int, level: str) -> None:
        """A cached read completed; the copy must hold the latest value."""
        if level in _UNCHECKED_LEVELS:
            return
        expected = self.oracle.latest_value(addr)
        got = self.oracle.copy_value(cpu, addr)
        if got != expected:
            self._fail("stale-read",
                       f"cpu {cpu} read {addr:#x} and observed {got!r}, "
                       f"architecturally latest is {expected!r}",
                       cpu=cpu, addr=addr, got=got, expected=expected)

    def after_access(self, cpu: int, addr: int) -> None:
        """Structural invariants around the line just touched."""
        self.accesses_checked += 1
        self.check_line(self.oracle.line_of(addr))
        mem = self.system.memories[cpu]
        self._check_wb(cpu, mem.wb1)
        self._check_wb(cpu, mem.wb2)

    # ==================================================================
    # Structural invariants
    # ==================================================================
    def check_line(self, line: int) -> None:
        """SWMR, single dirty owner, and inclusion for one L2 line."""
        ports = self.controller.ports
        owned = present = 0
        for port in ports:
            state = port.l2.state_of(line)
            if state != LineState.INVALID:
                present += 1
                if state in (LineState.EXCLUSIVE, LineState.MODIFIED):
                    owned += 1
        if owned > 1:
            self._fail("multiple-owners",
                       f"line {line:#x} has {owned} EXCLUSIVE/MODIFIED "
                       f"holders", line=line, owners=owned)
        if owned == 1 and present > 1:
            self._fail("owned-and-shared",
                       f"line {line:#x} is owned while {present - 1} other "
                       f"copies are outstanding", line=line, present=present)
        l1_bytes = self.l1_line_bytes
        for cpu, port in enumerate(ports):
            if port.l2.state_of(line) != LineState.INVALID:
                continue
            for sub in range(line, line + self.l2_line_bytes, l1_bytes):
                if port.l1d.present(sub) or port.l1i.present(sub):
                    self._fail("inclusion",
                               f"cpu {cpu} holds L1 line {sub:#x} whose L2 "
                               f"line {line:#x} is not resident",
                               cpu=cpu, line=line, sub=sub)

    def _check_wb(self, cpu: int, wb) -> None:
        """FIFO drain order: completion times must be non-decreasing."""
        prev = None
        for end in wb._entries:
            if prev is not None and end < prev:
                self._fail("wb-order",
                           f"cpu {cpu} {wb.name} retires out of FIFO order "
                           f"({end} after {prev})", cpu=cpu, buffer=wb.name)
            prev = end

    # ==================================================================
    # End-of-run verification
    # ==================================================================
    def verify_final(self) -> None:
        """Diff the simulated hierarchy against the reference model."""
        o = self.oracle
        ports = self.controller.ports
        for cpu in range(o.num_cpus):
            staged = o.staged_line(cpu)
            if staged is not None:
                self._fail("dangling-fill",
                           f"cpu {cpu}: bus supplied line {staged:#x} but "
                           f"no L2 install followed", cpu=cpu, line=staged)
            if o.store_regs[cpu]:
                self._fail("unflushed-store-register",
                           f"cpu {cpu}: bypass register still holds "
                           f"{sorted(o.store_regs[cpu])} after the run",
                           cpu=cpu)
        lines = set()
        for port in ports:
            lines.update(port.l2.resident_lines())
        for line in lines:
            self.check_line(line)
        for cpu, port in enumerate(ports):
            copies = o.copies[cpu]
            for line in port.l2.resident_lines():
                state = port.l2.state_of(line)
                for w in o.line_words(line):
                    held = copies.get(w, INIT)
                    if state == LineState.MODIFIED:
                        want = o.latest.get(w, INIT)
                        if held != want:
                            self._fail(
                                "dirty-copy-stale",
                                f"cpu {cpu} holds {w:#x} MODIFIED with "
                                f"{held!r}, latest is {want!r}",
                                cpu=cpu, addr=w, got=held, expected=want)
                    else:
                        want = o.mem.get(w, INIT)
                        if held != want:
                            self._fail(
                                "clean-copy-diverged",
                                f"cpu {cpu} holds {w:#x} "
                                f"{LineState(state).name} with {held!r}, "
                                f"memory has {want!r} — a write-back was "
                                f"lost or a fill went stale",
                                cpu=cpu, addr=w, got=held, expected=want)
            for w in copies:
                if port.l2.state_of(w) == LineState.INVALID:
                    self._fail("ghost-copy",
                               f"cpu {cpu} shadow-holds {w:#x} but its line "
                               f"is not resident", cpu=cpu, addr=w)
        for w, tok in o.latest.items():
            if o.mem.get(w, INIT) == tok:
                continue
            line = o.line_of(w)
            for cpu, port in enumerate(ports):
                if (port.l2.state_of(line) == LineState.MODIFIED
                        and o.copies[cpu].get(w, INIT) == tok):
                    break
            else:
                self._fail("lost-write",
                           f"latest value {tok!r} of {w:#x} is neither in "
                           f"memory nor in any dirty line — the write was "
                           f"dropped", addr=w, token=tok)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def architectural_memory(self, exclude=()) -> Dict[int, object]:
        """Final architectural contents (see the oracle's docstring)."""
        return self.oracle.architectural_memory(exclude)


# ======================================================================
# Attachment
# ======================================================================
def attach_checker(system) -> ConformanceChecker:
    """Arm *system* with a conformance checker; returns it.

    Must run before :meth:`~repro.sim.system.MultiprocessorSystem.run`.
    """
    checker = ConformanceChecker(system)
    system.attach(checker)
    system.checker = checker
    return checker
