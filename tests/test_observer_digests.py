"""Golden digests of what the observers see.

Pins the exact output of the three observers — the miss tracer, the
timeline recorder and the conformance checker — on the paper workloads
at ``scale=0.05, seed=1996`` under seven schemes, plus one generated
server trace on an 8-CPU set-associative machine.  Each cell runs once
with all three attached and hashes:

* ``events`` — the tracer's event tuples;
* ``profile`` — ``MissProfile(tracer).render()`` with its ``site_kinds``
  and ``line_misses``;
* ``timeline`` — the first 2000 :class:`TimelineRecorder` events;
* ``memory`` — the checker's ``architectural_memory()``.

The simulator is deterministic, so any drift is a behaviour change of
an observer (or of the run it observes), not noise.  If a change is
*supposed* to move these, print the new values with
``PYTHONPATH=src python tests/test_observer_digests.py`` and update
GOLDEN in the same commit, explaining why.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.analysis.tables import MACHINE_POINTS, machine_point
from repro.experiments.runner import ExperimentRunner
from repro.obs import MissProfile
from repro.obs.tracer import attach_tracer
from repro.sim.config import resolve_config
from repro.sim.system import MultiprocessorSystem
from repro.sim.timeline import TimelineRecorder
from repro.synthetic.workloads import WORKLOAD_ORDER

SCALE = 0.05
SEED = 1996
SERVER = "gen:server:c8:i060:steady:0:0"
TIMELINE_LIMIT = 2000

PAPER_SCHEMES = ("Base", "Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma",
                 "BCoh_RelUp", "Hyb_UpdN")

#: (workload, machine point label, scheme).
CELLS = ([(w, "4cpu-1way-8B", s) for w in WORKLOAD_ORDER
          for s in PAPER_SCHEMES]
         + [(SERVER, "8cpu-2way-16B", s) for s in ("Base", "Hyb_Deg")])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@lru_cache(maxsize=None)
def _runner(label: str) -> ExperimentRunner:
    point = {name: rest for name, *rest in MACHINE_POINTS}[label]
    return ExperimentRunner(scale=SCALE, seed=SEED,
                            machine=machine_point(*point))


def observed_system(workload: str, label: str, scheme: str):
    """The system the sweep would simulate for this cell, unrun."""
    runner = _runner(label)
    config = resolve_config(scheme, runner.machine)
    if config.hotspot_prefetch:
        trace = runner.prefetched_trace(workload)
    elif config.privatize:
        trace = runner.privatized_trace(workload)
    else:
        trace = runner.trace(workload)
    pages = (runner.update_selection(workload).pages
             if config.selective_update else ())
    hot = runner.hotspots(workload) if config.hotspot_prefetch else ()
    return MultiprocessorSystem(trace, config, update_pages=pages,
                                hotspot_pcs=hot, check=False)


def observer_digest(workload: str, label: str, scheme: str) -> dict:
    """Run one cell under all three observers; digest their outputs."""
    system = observed_system(workload, label, scheme)
    from repro.check.invariants import attach_checker
    checker = attach_checker(system)
    tracer = attach_tracer(system)
    timeline = TimelineRecorder(system, limit=TIMELINE_LIMIT)
    timeline.run()
    profile = MissProfile(tracer)
    events = [(e.name, e.cat, e.ph, e.ts, e.dur, e.lane, e.args)
              for e in tracer.events]
    memory = sorted(checker.architectural_memory().items())
    return {
        "events": _sha(repr(events)),
        "profile": _sha(repr((profile.render(),
                              sorted((pc, sorted(c.items()))
                                     for pc, c in profile.site_kinds.items()),
                              sorted(profile.line_misses.items())))),
        "timeline": _sha(repr(timeline.events)),
        "memory": _sha(repr(memory)),
    }


#: Recorded at scale=0.05, seed=1996.
GOLDEN = {
    ('TRFD_4', '4cpu-1way-8B', 'Base'): {
        'events': '2418b1a402ae0a22',
        'profile': '071bfc3fa1c3fdf2',
        'timeline': 'a068ff86b92614ad',
        'memory': 'bdb588794f56cd12',
    },
    ('TRFD_4', '4cpu-1way-8B', 'Blk_Pref'): {
        'events': '367a30f7eda4dcc9',
        'profile': 'e8e93dab5acd6812',
        'timeline': 'a068ff86b92614ad',
        'memory': 'bdb588794f56cd12',
    },
    ('TRFD_4', '4cpu-1way-8B', 'Blk_Bypass'): {
        'events': 'b7fe5fa37edbb169',
        'profile': '94bd6754da2eeb9d',
        'timeline': '3f90c6aae262cf63',
        'memory': 'bdb588794f56cd12',
    },
    ('TRFD_4', '4cpu-1way-8B', 'Blk_ByPref'): {
        'events': '821562e8b9e5c28a',
        'profile': 'fe3c5cff124201b4',
        'timeline': 'a068ff86b92614ad',
        'memory': 'c33d0d3ff77a08f3',
    },
    ('TRFD_4', '4cpu-1way-8B', 'Blk_Dma'): {
        'events': '2dcc035ef58c9e89',
        'profile': '553594f9e02ea266',
        'timeline': 'fcb963cb56df5fda',
        'memory': 'c33d0d3ff77a08f3',
    },
    ('TRFD_4', '4cpu-1way-8B', 'BCoh_RelUp'): {
        'events': '91f5ed2bf5f4e9b7',
        'profile': '4e3caaf6952f12b8',
        'timeline': '9851259eab4c23e6',
        'memory': 'f4335c76540eecff',
    },
    ('TRFD_4', '4cpu-1way-8B', 'Hyb_UpdN'): {
        'events': '7e5a82772368f40f',
        'profile': '161a450f46a0d314',
        'timeline': '7ece30f61640d230',
        'memory': 'f4335c76540eecff',
    },
    ('TRFD+Make', '4cpu-1way-8B', 'Base'): {
        'events': 'd9f3c89cd25411c3',
        'profile': 'a4196a56cdd5a0ca',
        'timeline': '9e2e27d8c6e6e977',
        'memory': 'a9a8e3777826f29e',
    },
    ('TRFD+Make', '4cpu-1way-8B', 'Blk_Pref'): {
        'events': 'c0b9a9b1a26cb4d1',
        'profile': '1d3627c045cbbcee',
        'timeline': '9e2e27d8c6e6e977',
        'memory': 'ee28e39846e761de',
    },
    ('TRFD+Make', '4cpu-1way-8B', 'Blk_Bypass'): {
        'events': '45ae117ba2c8dbd1',
        'profile': '06f7e5126b56f51f',
        'timeline': '86d5017df5c6ccca',
        'memory': '64f94422877bfa86',
    },
    ('TRFD+Make', '4cpu-1way-8B', 'Blk_ByPref'): {
        'events': 'b3bc9d289c02ab4d',
        'profile': '479a256b8055075b',
        'timeline': '9e2e27d8c6e6e977',
        'memory': '85146771f02f3267',
    },
    ('TRFD+Make', '4cpu-1way-8B', 'Blk_Dma'): {
        'events': 'eb22141408d2bf48',
        'profile': '4884a45838ac1760',
        'timeline': '489d591f0d9fd2e5',
        'memory': '3896635632de0316',
    },
    ('TRFD+Make', '4cpu-1way-8B', 'BCoh_RelUp'): {
        'events': 'd207028440d6623f',
        'profile': '397085020795bba0',
        'timeline': '1bec1b5a0b9bf82c',
        'memory': '2aae75924352badb',
    },
    ('TRFD+Make', '4cpu-1way-8B', 'Hyb_UpdN'): {
        'events': '645783a7a45910a8',
        'profile': '57a026d9540609c6',
        'timeline': '4a43d6f4410a2e8f',
        'memory': '2aae75924352badb',
    },
    ('ARC2D+Fsck', '4cpu-1way-8B', 'Base'): {
        'events': '78c93ed72b2f693b',
        'profile': 'a9209627fd6d6110',
        'timeline': '04c76a7fc194379d',
        'memory': 'd47369e71baa4cdf',
    },
    ('ARC2D+Fsck', '4cpu-1way-8B', 'Blk_Pref'): {
        'events': '79557b117cbef7f8',
        'profile': '44991992364a5791',
        'timeline': '04c76a7fc194379d',
        'memory': '107762a5b8ec1885',
    },
    ('ARC2D+Fsck', '4cpu-1way-8B', 'Blk_Bypass'): {
        'events': '881c245536013eee',
        'profile': 'c290ec5a42939f60',
        'timeline': '36c848ccc10472ec',
        'memory': '71710c596ba73489',
    },
    ('ARC2D+Fsck', '4cpu-1way-8B', 'Blk_ByPref'): {
        'events': '33d4a72fc43de622',
        'profile': 'd3a4b8e4c5cb9d4c',
        'timeline': '04c76a7fc194379d',
        'memory': '68b9692827440c31',
    },
    ('ARC2D+Fsck', '4cpu-1way-8B', 'Blk_Dma'): {
        'events': '584ff753b0766e6a',
        'profile': '88014fe97a7360e1',
        'timeline': '985492b3d7286a30',
        'memory': '71710c596ba73489',
    },
    ('ARC2D+Fsck', '4cpu-1way-8B', 'BCoh_RelUp'): {
        'events': 'f77c7895aeea1681',
        'profile': '5b21b0a622db462e',
        'timeline': 'fef3cf7b7d6983cf',
        'memory': '289a7213b59ae622',
    },
    ('ARC2D+Fsck', '4cpu-1way-8B', 'Hyb_UpdN'): {
        'events': '7a60525bc220d351',
        'profile': 'd5a88fc46a955c85',
        'timeline': 'e1b778cd69217e21',
        'memory': '289a7213b59ae622',
    },
    ('Shell', '4cpu-1way-8B', 'Base'): {
        'events': '83e8419918abce45',
        'profile': '600fabf79c806537',
        'timeline': '92b05380fd16dffc',
        'memory': 'fce2b1e882d80c0f',
    },
    ('Shell', '4cpu-1way-8B', 'Blk_Pref'): {
        'events': 'f7dd8ed9d40a7eb7',
        'profile': 'a83a204a1e0336c4',
        'timeline': '92b05380fd16dffc',
        'memory': '8cef82ddeaab7895',
    },
    ('Shell', '4cpu-1way-8B', 'Blk_Bypass'): {
        'events': '27b4acf8002ebd62',
        'profile': 'eb14e80f22d17129',
        'timeline': '45b9d8c615475707',
        'memory': 'a23526375796aea0',
    },
    ('Shell', '4cpu-1way-8B', 'Blk_ByPref'): {
        'events': '8bf749da5cb5820d',
        'profile': '011eed04e4b60be4',
        'timeline': '92b05380fd16dffc',
        'memory': '8cef82ddeaab7895',
    },
    ('Shell', '4cpu-1way-8B', 'Blk_Dma'): {
        'events': '46d80ba5327b205f',
        'profile': '279ae77b69647e3d',
        'timeline': '1fad22b4721f0347',
        'memory': '6170e815ef6fe987',
    },
    ('Shell', '4cpu-1way-8B', 'BCoh_RelUp'): {
        'events': 'c60f23dd746a90f2',
        'profile': '93e12268cc376f7f',
        'timeline': '8ecbe1f3d4d277cc',
        'memory': 'ec079fd6ccca6d93',
    },
    ('Shell', '4cpu-1way-8B', 'Hyb_UpdN'): {
        'events': '7ae692c5ec743b5c',
        'profile': 'c5db2a178b751b7e',
        'timeline': 'bb6ef986b133266a',
        'memory': '13a08db12ca2b833',
    },
    ('gen:server:c8:i060:steady:0:0', '8cpu-2way-16B', 'Base'): {
        'events': '252e2a35a192abd5',
        'profile': '42c2bda350ccc434',
        'timeline': 'c32801b5ebbb6220',
        'memory': '1d607d572830c0ba',
    },
    ('gen:server:c8:i060:steady:0:0', '8cpu-2way-16B', 'Hyb_Deg'): {
        'events': 'ddda7681617c0a91',
        'profile': 'e297e2d5cd366ddc',
        'timeline': '45d7c5499f4f8c94',
        'memory': '9569679ed948abd9',
    },
}


@pytest.mark.parametrize("workload,label,scheme", CELLS,
                         ids=[f"{w}-{s}" for w, _, s in CELLS])
def test_observer_outputs_pinned(workload, label, scheme):
    assert observer_digest(workload, label, scheme) == \
        GOLDEN[(workload, label, scheme)]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import pprint
    pprint.pprint({cell: observer_digest(*cell) for cell in CELLS},
                  sort_dicts=False, width=76)
