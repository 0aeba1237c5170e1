"""Property tests for the adaptive hybrid schemes (Hypothesis).

Three families of properties pin the design contracts of
:mod:`repro.memsys.adaptive` over randomized adversarial traces (the
conformance fuzzer's generator, which hammers the shared words and the
Firefly update page):

* ``Hyb_UpdN`` with N = 0 is *metric-identical* to the pure invalidation
  protocol (``BCoh_Reloc``'s coherence behavior) — with no budget, every
  decision routes to the unmodified invalidate path.
* ``Hyb_Static`` is ``BCoh_RelUp`` under another name: both run the
  static policy on the selected pages, so simulated apart they give
  equal full ``snapshot()`` dumps (which is what lets a sweep simulate
  them once).
* Policy state and metrics are deterministic: the same trace simulated
  twice yields identical counters, residency snapshots, and metrics.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.check import fuzz
from repro.sim.config import all_configs
from repro.sim.system import MultiprocessorSystem, simulate

CONFIGS = all_configs()
SEEDS = st.integers(min_value=0, max_value=10_000)


def _snapshot(metrics):
    """Everything a scheme comparison reports, as one comparable tuple."""
    tb = metrics.os_time()
    return (metrics.makespan, tb.total, tb.exec_cycles, tb.imiss, tb.dread,
            tb.dwrite, tb.pref, metrics.os_read_misses(),
            metrics.data_miss_rate(), metrics.bus_utilization())


def _run(trace, config, update_pages=None):
    return _snapshot(simulate(trace, config, update_pages=update_pages,
                              check=True))


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, race_free=st.booleans())
def test_updn_zero_budget_is_pure_invalidate(seed, race_free):
    """N=0 exhausts every budget up front: no update is ever broadcast,
    so the hybrid must degenerate to the invalidation protocol exactly."""
    trace = fuzz.build_trace(fuzz.generate_case(seed, race_free=race_free))
    zero = dataclasses.replace(CONFIGS["Hyb_UpdN"], adaptive_n=0)
    assert _run(trace, zero) == _run(trace, CONFIGS["BCoh_Reloc"])


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, race_free=st.booleans())
def test_static_on_sync_pages_is_bcoh_relup(seed, race_free):
    """Hyb_Static and BCoh_RelUp, each simulated on its own with the
    sync pages configured, give bit-identical full snapshots."""
    assert CONFIGS["Hyb_Static"].behaviour == CONFIGS["BCoh_RelUp"].behaviour
    trace = fuzz.build_trace(fuzz.generate_case(seed, race_free=race_free))
    pages = [fuzz.UPDATE_PAGE]
    static = simulate(trace, CONFIGS["Hyb_Static"], update_pages=pages,
                      check=True)
    relup = simulate(trace, CONFIGS["BCoh_RelUp"], update_pages=pages,
                     check=True)
    assert static.snapshot() == relup.snapshot()


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, scheme=st.sampled_from(["Hyb_UpdN", "Hyb_Deg",
                                           "Hyb_Static"]))
def test_adaptive_state_is_deterministic(seed, scheme):
    """Rerunning a trace reproduces the exact policy state and metrics:
    budgets, residency, epoch modes, and every reported number."""
    trace = fuzz.build_trace(fuzz.generate_case(seed, race_free=True))
    pages = [fuzz.UPDATE_PAGE]

    def one_run():
        system = MultiprocessorSystem(trace, CONFIGS[scheme],
                                      update_pages=pages)
        metrics = system.run()
        policy = system.controller.adaptive
        return (policy.state_snapshot(), policy.describe(),
                policy.update_writes, policy.invalidate_writes,
                policy.budget_drops, _snapshot(metrics))

    assert one_run() == one_run()
