"""System configurations: the eight machines of Figure 3.

A :class:`SystemConfig` selects the machine geometry, the block-operation
scheme, and which software optimizations are applied.  The optimizations
map to the paper's bar names:

=============  =========================================================
Name           Meaning
=============  =========================================================
Base           plain machine of section 2.4
Blk_Pref       software prefetch of block-op source data
Blk_Bypass     block ops bypass both caches via line registers
Blk_ByPref     bypass + 8-line prefetch buffer, destination writes cached
Blk_Dma        DMA-like block ops on the bus, processor stalled
BCoh_Reloc     Blk_Dma + data privatization and relocation
BCoh_RelUp     BCoh_Reloc + Firefly update on the 384-byte variable core
BCPref         BCoh_RelUp + prefetching at the 12 hottest miss spots
=============  =========================================================

``privatize`` and ``hotspot_prefetch`` are *trace transformations* applied
by the experiment runner before simulation (they model kernel source
changes); ``selective_update`` runs Firefly update on the selected pages
through the static hybrid policy of :mod:`repro.memsys.adaptive`;
``scheme`` changes how the processor executes block-op records.

Beyond the paper's eight, :func:`hybrid_configs` registers the three
adaptive update/invalidate schemes built on :mod:`repro.memsys.adaptive`:

=============  =========================================================
Hyb_UpdN       BCoh_Reloc + competitive update-N-then-invalidate (N=4)
Hyb_Deg        BCoh_Reloc + sharing-degree update->invalidate switching
Hyb_Static     BCoh_Reloc + unbounded updates on the selected pages
               (BCoh_RelUp under its hybrid-family name)
=============  =========================================================

A simulation is identified by :attr:`SystemConfig.behaviour`, the
configuration without its display name: ``Hyb_Static`` and
``BCoh_RelUp`` have one behaviour, so a sweep simulates it once.

:func:`all_configs` merges both maps; the CLI, the experiment runner
and the conformance fuzzer all resolve scheme names through it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.common.params import BASE_MACHINE, MachineParams
from repro.common.types import AdaptivePolicy, Scheme


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """One simulated system."""

    name: str
    machine: MachineParams = BASE_MACHINE
    scheme: Scheme = Scheme.BASE
    #: Apply the privatization/relocation trace transform (section 5.1).
    privatize: bool = False
    #: Run Firefly update on the selected variable core (section 5.2),
    #: through :attr:`AdaptivePolicy.STATIC` fed with the selected pages.
    selective_update: bool = False
    #: Run Firefly update on *every* OS/user variable — the pure-update
    #: comparison point of section 5.2 ("the resulting number of
    #: operating system data misses is only 1-3% higher than in a pure
    #: update protocol, while it saves 31-52% of the update traffic").
    pure_update: bool = False
    #: Insert prefetches at the hottest miss spots (section 6).
    hotspot_prefetch: bool = False
    #: Per-line adaptive update/invalidate policy
    #: (:mod:`repro.memsys.adaptive`); ``None`` means no adaptive layer.
    #: ``selective_update`` without a policy gets
    #: :attr:`AdaptivePolicy.STATIC`, whose pages are the selected ones.
    adaptive: Optional[AdaptivePolicy] = None
    #: Update budget per remote copy for :attr:`AdaptivePolicy.UPDATE_N`
    #: (0 degenerates to the pure invalidation protocol).
    adaptive_n: int = 4
    #: Maximum sharing degree still updated by
    #: :attr:`AdaptivePolicy.DEGREE` before the line switches to
    #: invalidate mode for its sharing epoch.
    degree_threshold: int = 2
    #: Software-pipelining depth, in L1 lines, for Blk_Pref.
    pref_lead_lines: int = 8
    #: Pipelining depth for Blk_ByPref; must stay below the 8-line
    #: prefetch buffer's capacity or the lookahead insert evicts the very
    #: line about to be read.
    bypref_lead_lines: int = 6
    #: Records of lead given to each inserted hot-spot prefetch.
    hotspot_lead_records: int = 24

    def __post_init__(self) -> None:
        if self.selective_update and self.adaptive is None:
            object.__setattr__(self, "adaptive", AdaptivePolicy.STATIC)

    @property
    def behaviour(self) -> "SystemConfig":
        """This configuration without its name: what a simulation of it
        depends on, so two names with one behaviour simulate once."""
        return dataclasses.replace(self, name="")


def standard_configs(machine: MachineParams = BASE_MACHINE) -> Dict[str, SystemConfig]:
    """The eight systems of Figure 3, in the paper's order."""
    return {
        "Base": SystemConfig("Base", machine),
        "Blk_Pref": SystemConfig("Blk_Pref", machine, Scheme.PREF),
        "Blk_Bypass": SystemConfig("Blk_Bypass", machine, Scheme.BYPASS),
        "Blk_ByPref": SystemConfig("Blk_ByPref", machine, Scheme.BYPREF),
        "Blk_Dma": SystemConfig("Blk_Dma", machine, Scheme.DMA),
        "BCoh_Reloc": SystemConfig("BCoh_Reloc", machine, Scheme.DMA,
                                   privatize=True),
        "BCoh_RelUp": SystemConfig("BCoh_RelUp", machine, Scheme.DMA,
                                   privatize=True, selective_update=True),
        "BCPref": SystemConfig("BCPref", machine, Scheme.DMA, privatize=True,
                               selective_update=True, hotspot_prefetch=True),
    }


def hybrid_configs(machine: MachineParams = BASE_MACHINE) -> Dict[str, SystemConfig]:
    """The three adaptive hybrid schemes, stacked on ``BCoh_Reloc``.

    All three keep the DMA block-op scheme and the privatization
    transform, so their only delta against ``BCoh_Reloc``/``BCoh_RelUp``
    is the write-coherence policy — the comparison the hybrid table
    isolates.  ``Hyb_Static`` is ``BCoh_RelUp`` field for field: the
    runner derives the same update-page core and both run it on the
    static policy.
    """
    return {
        "Hyb_UpdN": SystemConfig("Hyb_UpdN", machine, Scheme.DMA,
                                 privatize=True,
                                 adaptive=AdaptivePolicy.UPDATE_N,
                                 adaptive_n=4),
        "Hyb_Deg": SystemConfig("Hyb_Deg", machine, Scheme.DMA,
                                privatize=True,
                                adaptive=AdaptivePolicy.DEGREE,
                                degree_threshold=2),
        "Hyb_Static": SystemConfig("Hyb_Static", machine, Scheme.DMA,
                                   privatize=True, selective_update=True,
                                   adaptive=AdaptivePolicy.STATIC),
    }


def all_configs(machine: MachineParams = BASE_MACHINE) -> Dict[str, SystemConfig]:
    """Every registered scheme: the paper's eight plus the hybrids."""
    configs = standard_configs(machine)
    configs.update(hybrid_configs(machine))
    return configs


def resolve_config(name: str,
                   machine: MachineParams = BASE_MACHINE) -> SystemConfig:
    """Resolve *name* — a registered scheme or a knob-parameterized one.

    Beyond the eleven :func:`all_configs` names, two parameterized forms
    sweep the adaptive knobs per machine point without growing the
    registry (whose exact contents tests pin):

    * ``Hyb_UpdN@N<k>`` — competitive update with an update budget of
      ``k`` per remote copy (``Hyb_UpdN@N4`` == ``Hyb_UpdN``).
    * ``Hyb_Deg@T<k>`` — sharing-degree switching with threshold ``k``
      (``Hyb_Deg@T2`` == ``Hyb_Deg``).

    The default-knob spellings resolve to the *canonical* names so they
    share simulation-cache identity with the registered configs.
    Raises :class:`KeyError` with the available names otherwise.
    """
    configs = all_configs(machine)
    if name in configs:
        return configs[name]
    base, sep, knob = name.partition("@")
    if sep and base in ("Hyb_UpdN", "Hyb_Deg"):
        prefix = "N" if base == "Hyb_UpdN" else "T"
        if knob.startswith(prefix) and knob[len(prefix):].isdigit():
            value = int(knob[len(prefix):])
            config = configs[base]
            if base == "Hyb_UpdN":
                if value == config.adaptive_n:
                    return config
                return dataclasses.replace(config, name=name,
                                           adaptive_n=value)
            if value < 1:
                raise KeyError(f"{name!r}: degree threshold must be >= 1")
            if value == config.degree_threshold:
                return config
            return dataclasses.replace(config, name=name,
                                       degree_threshold=value)
    raise KeyError(
        f"unknown config {name!r}; choose from {list(configs)} or a "
        f"parameterized 'Hyb_UpdN@N<k>' / 'Hyb_Deg@T<k>'")
