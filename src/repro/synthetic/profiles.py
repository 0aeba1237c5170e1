"""Declarative workload profiles.

The paper measures exactly four hand-built system-intensive workloads;
:mod:`repro.synthetic.workloads` hard-codes them as generator functions.
This module adds the layer the ROADMAP's "traffic diversity" axis needs:
a :class:`WorkloadProfile` is a *declarative spec* — CPU count, service
intensity mix, syscall/IO/fork rates, sharing degree, rounds, and an
intensity *pattern* (steady, bursty, diurnal) — that compiles down to the
same :class:`~repro.synthetic.kernel.Kernel` / ``services`` / ``apps``
primitives the paper workloads use, so every generated trace stays
compatible with every registered scheme, the conformance oracle, and the miss
tracer.

Three kinds of profile exist:

* **Paper profiles** — the four workloads of section 2.3, re-expressed as
  built-ins.  They carry a ``legacy`` tag and delegate to the original
  generator functions, so their traces are *bit-identical* to
  ``repro.synthetic.workloads.generate`` (regression-tested).
* **New built-in families** — workload mixes the paper never traced: a
  ``server`` family (network+FS-heavy, many short processes), a
  ``bursty_mp`` multiprogrammed mix, and a ``gang_diurnal`` gang-compute
  family with a diurnal intensity wave.
* **Custom profiles** — loaded from YAML/JSON specs
  (:func:`load_profile`) or produced by the seeded random sweep in
  :mod:`repro.synthetic.generator`.

Everything is deterministic: ``generate(name, seed, scale)`` draws every
stochastic decision from named :class:`~repro.common.rng.RngStream`
substreams, so the same (profile, seed, scale) triple always yields
byte-identical traces through :mod:`repro.trace.npzio`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.common.errors import ProfileError
from repro.common.params import MAX_CPUS
from repro.common.rng import RngStream
from repro.synthetic import apps, services
from repro.synthetic.kernel import Kernel, Process
from repro.synthetic.workloads import (WORKLOAD_ORDER, WORKLOADS,
                                       _current_buffer, _fault_if_needed)
from repro.trace.stream import Trace

#: Recognized intensity patterns.
PATTERNS = ("steady", "bursty", "diurnal")

#: Application chunk models a profile can schedule.
APP_CHUNKS = {
    "trfd": apps.trfd_chunk,
    "arc2d": apps.arc2d_chunk,
    "cc1": apps.cc1_chunk,
    "fsck": apps.fsck_chunk,
    "shell": apps.shell_chunk,
}

#: Rounds of one bursty phase (high then low, alternating).
BURST_ROUNDS = 4

#: Intensity floor: even the quietest diurnal/bursty round does a little
#: work, as a real machine's background load would.
MIN_LEVEL = 0.25

_PROB_FIELDS = (
    "syscall_prob", "file_io_prob", "io_write_frac", "network_prob",
    "pipe_prob", "signal_prob", "fork_prob", "fault_copy_prob",
    "fault_steady_prob", "frame_reuse_prob", "sharing_degree", "idle_prob",
    "buffer_switch_prob",
)

#: Field types a spec must match (bools are not numbers here); a spec
#: read from JSON or YAML can carry any value in any field.
_STR_FIELDS = ("name", "family", "legacy", "description", "pattern", "app")
_INT_FIELDS = ("num_cpus", "rounds", "app_refs", "kmem_refs",
               "barrier_phases", "fault_target", "timer_every",
               "pager_every")
_REAL_FIELDS = _PROB_FIELDS + ("kmem_jump_prob",)
_INT_TUPLE_FIELDS = ("io_sizes", "idle_spins")
_REAL_TUPLE_FIELDS = ("io_weights",)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


@dataclass(frozen=True)
class WorkloadProfile:
    """A declarative workload spec, compilable to a trace.

    All per-round service rates are probabilities per CPU per round; the
    intensity pattern modulates them round by round.  ``rounds`` is the
    round count at ``scale=1.0``.
    """

    name: str
    #: Workload family tag (``paper``, ``server``, ``multiprog``,
    #: ``gang``, or ``custom``) — used by the sweep generator and docs.
    family: str = "custom"
    #: Non-empty = delegate to this paper generator for bit-compatibility.
    legacy: str = ""
    description: str = ""
    num_cpus: int = 4
    rounds: int = 48
    pattern: str = "steady"
    # -- application mix --
    app: str = "shell"
    app_refs: int = 260
    kmem_refs: int = 250
    kmem_jump_prob: float = 0.3
    #: Barrier-separated gang phases per round (0 = no gang scheduling).
    barrier_phases: int = 0
    # -- per-round service rates --
    syscall_prob: float = 0.5
    file_io_prob: float = 0.2
    io_write_frac: float = 0.4
    io_sizes: Tuple[int, ...] = (64, 128, 256, 512, 1024, 4096)
    io_weights: Tuple[float, ...] = (0.24, 0.22, 0.2, 0.15, 0.11, 0.08)
    network_prob: float = 0.0
    pipe_prob: float = 0.0
    signal_prob: float = 0.0
    #: Short-process churn: fork+exec a child, maybe pipe to a grandchild,
    #: then exit the parent (the Shell lifecycle).
    fork_prob: float = 0.0
    # -- memory behaviour --
    fault_target: int = 2
    fault_copy_prob: float = 0.55
    fault_steady_prob: float = 0.02
    frame_reuse_prob: float = 0.8
    #: How hard CPUs ping-pong the frequently-shared core per round.
    sharing_degree: float = 0.5
    buffer_switch_prob: float = 0.3
    # -- schedule shape --
    idle_prob: float = 0.35
    idle_spins: Tuple[int, int] = (120, 320)
    timer_every: int = 2
    pager_every: int = 5

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the spec; raises :class:`ProfileError` with the field."""
        def bad(fieldname: str, why: str) -> ProfileError:
            return ProfileError(
                f"profile {self.name!r}: bad {fieldname}: {why}")

        if not self.name or not isinstance(self.name, str):
            raise ProfileError("profile needs a non-empty string name")
        self._validate_types(bad)
        if self.legacy and self.legacy not in WORKLOADS:
            raise bad("legacy", f"{self.legacy!r} is not a paper workload "
                                f"(choose from {WORKLOAD_ORDER})")
        if self.pattern not in PATTERNS:
            raise bad("pattern", f"{self.pattern!r} not in {PATTERNS}")
        if self.app not in APP_CHUNKS:
            raise bad("app", f"{self.app!r} not in {sorted(APP_CHUNKS)}")
        if not 1 <= self.num_cpus <= MAX_CPUS:
            raise bad("num_cpus", f"{self.num_cpus} outside [1, {MAX_CPUS}]")
        if self.rounds < 1:
            raise bad("rounds", f"{self.rounds} < 1")
        if not 0 <= self.barrier_phases <= 4:
            raise bad("barrier_phases", f"{self.barrier_phases} outside [0, 4]")
        for fieldname in _PROB_FIELDS:
            value = getattr(self, fieldname)
            if not 0.0 <= value <= 1.0:
                raise bad(fieldname, f"{value} is not a probability")
        for fieldname in ("app_refs", "kmem_refs", "fault_target"):
            if getattr(self, fieldname) < 1:
                raise bad(fieldname, f"{getattr(self, fieldname)} < 1")
        if not 0.0 <= self.kmem_jump_prob <= 1.0:
            raise bad("kmem_jump_prob", "not a probability")
        if (not self.io_sizes or len(self.io_sizes) != len(self.io_weights)
                or any(s < 4 for s in self.io_sizes)
                or any(w <= 0 for w in self.io_weights)):
            raise bad("io_sizes/io_weights",
                      "need equal-length, positive size/weight lists "
                      "with sizes >= 4 bytes")
        if len(self.idle_spins) != 2:
            raise bad("idle_spins", f"{self.idle_spins} is not a (lo, hi) pair")
        lo, hi = self.idle_spins
        if not 1 <= lo <= hi:
            raise bad("idle_spins", f"({lo}, {hi}) is not a valid range")
        if self.timer_every < 0 or self.pager_every < 0:
            raise bad("timer_every/pager_every", "must be >= 0")

    def _validate_types(self, bad) -> None:
        checks = [(_STR_FIELDS, lambda v: isinstance(v, str), "a string"),
                  (_INT_FIELDS, _is_int, "an integer"),
                  (_REAL_FIELDS, _is_real, "a number")]
        for fieldnames, ok, what in checks:
            for fieldname in fieldnames:
                value = getattr(self, fieldname)
                if not ok(value):
                    raise bad(fieldname, f"{value!r} is not {what}")
        for fieldnames, ok, what in [(_INT_TUPLE_FIELDS, _is_int, "integers"),
                                     (_REAL_TUPLE_FIELDS, _is_real, "numbers")]:
            for fieldname in fieldnames:
                value = getattr(self, fieldname)
                if not (isinstance(value, tuple) and all(map(ok, value))):
                    raise bad(fieldname, f"{value!r} is not a list of {what}")

    # ------------------------------------------------------------------
    # Spec serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON-able dict (tuples become lists)."""
        out: Dict[str, object] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def replaced(self, **changes) -> "WorkloadProfile":
        """A validated copy with *changes* applied."""
        profile = dataclasses.replace(self, **changes)
        profile.validate()
        return profile


_TUPLE_FIELDS = {"io_sizes", "io_weights", "idle_spins"}
_FIELD_NAMES = {f.name for f in dataclasses.fields(WorkloadProfile)}


def profile_from_dict(spec: Dict[str, object]) -> WorkloadProfile:
    """Build and validate a profile from a spec dict (YAML/JSON shape)."""
    if not isinstance(spec, dict):
        raise ProfileError(f"profile spec must be a mapping, got "
                           f"{type(spec).__name__}")
    # key=str: YAML keys need not be strings, nor comparable.
    unknown = sorted(set(spec) - _FIELD_NAMES, key=str)
    if unknown:
        raise ProfileError(f"unknown profile fields {unknown}; "
                           f"known fields: {sorted(_FIELD_NAMES)}")
    if "name" not in spec:
        raise ProfileError("profile spec needs a 'name'")
    kwargs = dict(spec)
    for key in _TUPLE_FIELDS & set(kwargs):
        value = kwargs[key]
        if not isinstance(value, (list, tuple)):
            raise ProfileError(f"profile field {key!r} must be a list")
        kwargs[key] = tuple(value)
    try:
        profile = WorkloadProfile(**kwargs)  # type: ignore[arg-type]
    except TypeError as err:
        raise ProfileError(f"bad profile spec: {err}") from None
    profile.validate()
    return profile


def load_profile(path: str) -> WorkloadProfile:
    """Load a profile spec from a ``.json`` / ``.yaml`` / ``.yml`` file."""
    with open(path) as fp:
        text = fp.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:  # pragma: no cover - env without PyYAML
            raise ProfileError(
                f"{path}: loading YAML profiles needs PyYAML; "
                "install it or use a .json spec") from None
        spec = yaml.safe_load(text)
    else:
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as err:
            raise ProfileError(f"{path}: not valid JSON: {err}") from None
    try:
        return profile_from_dict(spec)
    except ProfileError as err:
        raise ProfileError(f"{path}: {err}") from None


def save_profile(profile: WorkloadProfile, path: str) -> None:
    """Write *profile* as a JSON (or, by extension, YAML) spec file."""
    spec = profile.to_dict()
    with open(path, "w") as fp:
        if path.endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError:  # pragma: no cover - env without PyYAML
                raise ProfileError(
                    f"{path}: writing YAML profiles needs PyYAML; "
                    "use a .json path") from None
            yaml.safe_dump(spec, fp, sort_keys=False)
        else:
            json.dump(spec, fp, indent=2)
            fp.write("\n")


# ======================================================================
# Intensity patterns
# ======================================================================
def intensity(pattern: str, round_no: int, rounds: int) -> float:
    """Activity multiplier of *round_no* under *pattern*, in [MIN_LEVEL, 1].

    ``steady`` is constant full intensity; ``bursty`` alternates
    full/quiet phases every :data:`BURST_ROUNDS` rounds; ``diurnal`` is
    one sinusoidal day over the whole run.  Pure function of its
    arguments, so generation stays deterministic.
    """
    if pattern == "steady":
        return 1.0
    if pattern == "bursty":
        return 1.0 if (round_no // BURST_ROUNDS) % 2 == 0 else MIN_LEVEL
    if pattern == "diurnal":
        phase = 2.0 * math.pi * round_no / max(1, rounds)
        return MIN_LEVEL + (1.0 - MIN_LEVEL) * 0.5 * (1.0 - math.cos(phase))
    raise ProfileError(f"unknown intensity pattern {pattern!r}; "
                       f"choose from {PATTERNS}")


# ======================================================================
# Compiler: profile -> trace
# ======================================================================
def _shared_round(k: Kernel, rng: RngStream, round_no: int,
                  degree: float) -> None:
    """Producer-consumer traffic on the shared core, CPU-count-generic.

    The per-round analogue of the paper workloads' ``_shared_touches``,
    with the read/write ping-pong volume scaled by ``degree``.
    """
    ncpu = k.num_cpus
    writer = round_no % ncpu
    k.touch_freq_shared(writer, "load_average", write=True, block="sched_seq")
    if rng.chance(degree):
        k.touch_freq_shared(writer, "sched_hint", write=True,
                            block="sched_seq")
    for cpu in range(ncpu):
        if cpu != writer and rng.chance(0.4 + 0.6 * degree):
            k.touch_freq_shared(cpu, "load_average", write=False,
                                block="sched_seq")
            if rng.chance(0.5 * degree):
                k.touch_freq_shared(cpu, "runq_length",
                                    write=rng.chance(0.3), block="sched_seq")
        k.bump_counter(cpu, rng.choice(
            ["v_trap", "v_sched", "v_io_done", "v_lock_wait", "v_idle"]))
        if rng.chance(0.4 * degree):
            k.bump_counter(cpu, rng.choice(
                ["v_pageins", "v_pageouts", "v_intr", "v_swtch", "v_syscall"]))
        if rng.chance(0.6 * degree):
            k.touch_freq_shared(cpu, rng.choice(
                ["resource_ptrs", "ipc_mailbox", "freelist_size"]),
                write=rng.chance(0.4), block="sched_seq")


def _interrupt_round(k: Kernel, round_no: int, timer_every: int,
                     pager_every: int) -> None:
    """Timer ticks and pager scans, CPU-count-generic."""
    ncpu = k.num_cpus
    if timer_every and round_no % timer_every == 0:
        services.timer_interrupt(k, round_no % ncpu)
        if ncpu > 1:
            services.timer_interrupt(k, (round_no + ncpu // 2) % ncpu)
    if pager_every and round_no % pager_every == pager_every - 1:
        services.pager_scan(k, (round_no // pager_every) % ncpu)


def _process_churn(k: Kernel, rng: RngStream, cpu: int, proc: Process,
                   pipe_chance: float) -> Process:
    """One short-process lifecycle: fork+exec, optional grandchild pipe,
    parent exit.  Returns the new foreground process for *cpu*."""
    child = services.fork(k, cpu, proc, copy_pages=1,
                          page_size=rng.chance(0.3))
    services.exec_image(k, cpu, child,
                        arg_bytes=rng.choice([128, 256, 512]),
                        zero_pages=1 if rng.chance(0.4) else 0)
    if rng.chance(pipe_chance):
        grandchild = services.fork(k, cpu, child, copy_pages=1,
                                   page_size=False)
        services.pipe_transfer(k, cpu, child, grandchild,
                               size=rng.choice([128, 256, 512]))
        services.process_exit(k, cpu, grandchild)
    services.context_switch(k, cpu, proc, child)
    services.process_exit(k, cpu, proc)
    return child


def compile_profile(profile: WorkloadProfile, seed: int = 1996,
                    scale: float = 1.0,
                    frame_policy: str = "default") -> Trace:
    """Compile *profile* into a validated trace.

    Paper (``legacy``) profiles delegate to the original generator so
    their traces stay bit-identical; everything else runs the generic
    round loop over the same kernel/service/app primitives.
    """
    profile.validate()
    if profile.legacy:
        return WORKLOADS[profile.legacy](seed, scale, frame_policy)
    p = profile
    k = Kernel(p.num_cpus, RngStream(seed, p.name),
               metadata={"workload": p.name, "seed": seed, "scale": scale,
                         "frame_policy": frame_policy, "family": p.family,
                         "pattern": p.pattern, "profile": p.to_dict()},
               frame_policy=frame_policy)
    k.frame_reuse_prob = p.frame_reuse_prob
    rng = k.rng.substream("schedule")
    ncpu = p.num_cpus
    app_fn = APP_CHUNKS[p.app]
    jobs: List[Process] = [k.spawn() for _ in range(ncpu)]
    rounds = max(4, int(p.rounds * scale))
    for r in range(rounds):
        level = intensity(p.pattern, r, rounds)
        for cpu in range(ncpu):
            # Quiet rounds push CPUs toward the idle loop, the way a real
            # multiprogrammed machine's run queues drain off-peak.
            if rng.chance(min(0.95, p.idle_prob + (1.0 - level) * 0.5)):
                k.idle(cpu, spins=rng.randint(*p.idle_spins))
                continue
            proc = jobs[cpu]
            if rng.chance(p.syscall_prob * level):
                services.syscall(k, cpu, proc, nr=rng.randint(0, 200))
            if rng.chance(p.sharing_degree):
                k.touch_freq_shared(cpu, rng.choice(
                    ["resource_ptrs", "ipc_mailbox", "runq_length",
                     "load_average"]), write=rng.chance(0.45),
                    block="sched_seq")
            _fault_if_needed(k, cpu, proc, target=p.fault_target,
                             copy_prob=p.fault_copy_prob,
                             steady_prob=p.fault_steady_prob)
            app_fn(k, cpu, proc, refs=max(32, int(p.app_refs * level)))
            k.kmem_walk(cpu, refs=max(32, int(p.kmem_refs * level)),
                        jump_prob=p.kmem_jump_prob)
            if rng.chance(p.fork_prob * level):
                jobs[cpu] = _process_churn(k, rng, cpu, proc,
                                           pipe_chance=0.35)
            if rng.chance(p.file_io_prob * level):
                size = rng.weighted_choice(p.io_sizes, p.io_weights)
                services.file_io(
                    k, cpu, jobs[cpu], size=size,
                    is_write=rng.chance(p.io_write_frac),
                    buf=_current_buffer(k, cpu, p.buffer_switch_prob))
            if rng.chance(p.network_prob * level):
                size = rng.choice([128, 256, 512, 1024])
                if rng.chance(0.5):
                    services.network_receive(k, cpu, jobs[cpu], size)
                else:
                    services.network_send(k, cpu, jobs[cpu], size)
            if rng.chance(p.pipe_prob * level):
                services.pipe_transfer(k, cpu, jobs[cpu], jobs[cpu],
                                       size=rng.choice([128, 256, 512]))
            if rng.chance(p.signal_prob * level):
                services.signal_delivery(k, cpu, jobs[cpu])
        for _phase in range(p.barrier_phases):
            for cpu in range(ncpu):
                app_fn(k, cpu, jobs[cpu],
                       refs=max(32, int(p.app_refs * level) // 2))
            k.barrier_all(k.next_barrier(), ncpu)
        _shared_round(k, rng, r, p.sharing_degree)
        _interrupt_round(k, r, p.timer_every, p.pager_every)
    return k.build()


# ======================================================================
# Built-in profiles and the generate() front door
# ======================================================================
def _paper_profile(name: str, description: str) -> WorkloadProfile:
    return WorkloadProfile(name=name, family="paper", legacy=name,
                           description=description)


#: Built-in profiles: the four paper workloads (bit-compatible
#: delegation) plus the new families the paper never measured.
BUILTIN_PROFILES: Dict[str, WorkloadProfile] = {
    "TRFD_4": _paper_profile(
        "TRFD_4", "4 x 4-process TRFD, gang-scheduled, barrier-intensive"),
    "TRFD+Make": _paper_profile(
        "TRFD+Make", "one TRFD instance plus four parallel compilations"),
    "ARC2D+Fsck": _paper_profile(
        "ARC2D+Fsck", "gang-scheduled fluid dynamics plus a filesystem "
                      "check"),
    "Shell": _paper_profile(
        "Shell", "heavily multiprogrammed shell script, 21 background "
                 "jobs"),
    "server": WorkloadProfile(
        name="server", family="server",
        description="network+FS-heavy server mix: many short processes, "
                    "high syscall and sharing rates, small I/O sizes",
        app="shell", rounds=56, pattern="steady",
        app_refs=220, kmem_refs=300, kmem_jump_prob=0.32,
        syscall_prob=0.8, file_io_prob=0.45, io_write_frac=0.35,
        io_sizes=(64, 128, 256, 512, 1024, 2048),
        io_weights=(0.3, 0.24, 0.18, 0.12, 0.1, 0.06),
        network_prob=0.5, pipe_prob=0.12, signal_prob=0.08, fork_prob=0.22,
        fault_target=2, fault_copy_prob=0.6, fault_steady_prob=0.03,
        frame_reuse_prob=0.45, sharing_degree=0.7, buffer_switch_prob=0.4,
        idle_prob=0.18, idle_spins=(80, 200), pager_every=4),
    "bursty_mp": WorkloadProfile(
        name="bursty_mp", family="multiprog",
        description="bursty multiprogrammed compile-farm mix: compiler "
                    "chunks, temp-file I/O, fork churn, alternating "
                    "load phases",
        app="cc1", rounds=52, pattern="bursty",
        app_refs=340, kmem_refs=220, kmem_jump_prob=0.28,
        syscall_prob=0.55, file_io_prob=0.3, io_write_frac=0.45,
        io_sizes=(256, 512, 1024, 2048, 4096),
        io_weights=(0.2, 0.2, 0.22, 0.22, 0.16),
        pipe_prob=0.08, signal_prob=0.04, fork_prob=0.1,
        fault_target=2, fault_copy_prob=0.6, fault_steady_prob=0.012,
        sharing_degree=0.5, idle_prob=0.3, idle_spins=(200, 420)),
    "gang_diurnal": WorkloadProfile(
        name="gang_diurnal", family="gang",
        description="gang-scheduled stencil compute under a diurnal "
                    "intensity wave, with checkpoint file I/O",
        app="arc2d", rounds=48, pattern="diurnal", barrier_phases=2,
        app_refs=360, kmem_refs=240, kmem_jump_prob=0.3,
        syscall_prob=0.3, file_io_prob=0.18, io_write_frac=0.5,
        io_sizes=(512, 1024, 2048, 4096),
        io_weights=(0.2, 0.25, 0.25, 0.3),
        fault_target=2, fault_copy_prob=0.5, fault_steady_prob=0.02,
        sharing_degree=0.55, idle_prob=0.25, idle_spins=(90, 170),
        pager_every=4),
}

#: Paper order first, then the new families.
PROFILE_ORDER = list(WORKLOAD_ORDER) + ["server", "bursty_mp",
                                        "gang_diurnal"]

#: Profiles registered at runtime (``--profile-spec`` files, sweeps).
_RUNTIME_PROFILES: Dict[str, WorkloadProfile] = {}


def register_profile(profile: WorkloadProfile) -> WorkloadProfile:
    """Register *profile* for by-name generation in this process."""
    profile.validate()
    if profile.name in BUILTIN_PROFILES:
        raise ProfileError(
            f"cannot shadow built-in profile {profile.name!r}")
    _RUNTIME_PROFILES[profile.name] = profile
    return profile


def available_profiles() -> List[str]:
    """Names resolvable by :func:`generate`, built-ins first."""
    return PROFILE_ORDER + sorted(
        set(_RUNTIME_PROFILES) - set(PROFILE_ORDER))


def get_profile(name: str) -> WorkloadProfile:
    """Resolve *name* to a profile.

    Accepts built-in names, runtime-registered names, and the
    self-describing ``gen:...`` names minted by
    :mod:`repro.synthetic.generator` (which are reconstructed from the
    name alone, so they work across worker processes).
    """
    if name in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name]
    if name in _RUNTIME_PROFILES:
        return _RUNTIME_PROFILES[name]
    if name.startswith("gen:"):
        from repro.synthetic import generator
        return generator.from_name(name).profile
    raise KeyError(f"unknown workload profile {name!r}; choose from "
                   f"{available_profiles()} or a 'gen:' sweep name")


def generate(name: Union[str, WorkloadProfile], seed: int = 1996,
             scale: float = 1.0, frame_policy: str = "default") -> Trace:
    """Generate a trace from a profile name or profile object.

    The drop-in successor of ``repro.synthetic.workloads.generate``: the
    four paper names produce bit-identical traces (their profiles
    delegate to the original generators), and every other built-in,
    registered, or ``gen:`` profile compiles through
    :func:`compile_profile`.
    """
    profile = get_profile(name) if isinstance(name, str) else name
    return compile_profile(profile, seed=seed, scale=scale,
                           frame_policy=frame_policy)
