"""Golden digests of generated and derived traces.

Pins the exact bytes of every trace the experiments simulate: the raw
trace of each paper workload at ``scale=0.05, seed=1996``, its
privatized/relocated form (section 5.1), the privatized form with
hot-spot prefetches for a fixed set of hot basic blocks (section 6),
and its deferred-copy form (section 4.2.1), plus one generated server
trace.  Each CPU's ``(N, 9)`` column matrix, the block-op table, the
symbol table and the metadata are hashed separately, so a failure names
the part that moved.  The generator and the passes are deterministic:
any drift is a behaviour change, not noise.

If a change is *supposed* to alter a trace, print the new values with
``PYTHONPATH=src python tests/test_trace_digests.py`` and update
GOLDEN in the same commit, explaining why.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.optim.deferred import analyze_deferred, apply_deferred
from repro.optim.hotspots import HotspotPrefetcher
from repro.optim.privatize import privatize_and_relocate
from repro.synthetic.layout import HOTSPOT_BLOCKS, KERNEL_PC
from repro.synthetic.profiles import generate
from repro.synthetic.workloads import WORKLOAD_ORDER

SCALE = 0.05
SEED = 1996
SERVER = "gen:server:c8:i060:steady:0:0"

#: Hot basic blocks for the prefetched traces (no profiling run needed).
HOT_PCS = [KERNEL_PC[block] for block in HOTSPOT_BLOCKS]


def _sha(array: np.ndarray) -> str:
    data = np.ascontiguousarray(array, dtype="<i8")
    digest = hashlib.sha256(repr(data.shape).encode())
    digest.update(data.tobytes())
    return digest.hexdigest()[:16]


def trace_digest(trace) -> dict:
    """Per-part digests of *trace*: each CPU stream, block ops, symbols."""
    blockops = np.array([(d.op_id, int(d.kind), d.src, d.dst, d.size, d.pc)
                         for d in trace.blockops],
                        dtype=np.int64).reshape(-1, 6)
    symbols = hashlib.sha256()
    for sym in trace.symbols:
        symbols.update(f"{sym.name} {sym.base} {sym.size} "
                       f"{int(sym.dclass)};".encode())
    return {
        "cpus": tuple(_sha(cols.to_matrix())
                      for cols in trace.columns),
        "blockops": _sha(blockops),
        "symbols": symbols.hexdigest()[:16],
        "metadata": hashlib.sha256(json.dumps(
            trace.metadata, sort_keys=True).encode()).hexdigest()[:16],
    }


def derived_traces(workload: str) -> dict:
    """The raw trace of *workload* and the three pass outputs."""
    raw = generate(workload, seed=SEED, scale=SCALE)
    privatized = privatize_and_relocate(raw, raw.num_cpus)
    prefetched = HotspotPrefetcher(HOT_PCS).apply(privatized)
    deferred = apply_deferred(raw, analyze_deferred(raw).read_only_ids)
    return {"raw": raw, "privatized": privatized, "prefetched": prefetched,
            "deferred": deferred}


#: Recorded at scale=0.05, seed=1996.
GOLDEN = {'TRFD_4': {'raw': {'cpus': ('08a2614ceb4b8c64',
                             'afab1e08137e3658',
                             '947c1297e478992d',
                             '02bd157cce13857e'),
                    'blockops': 'a9dcfc14d57b332f',
                    'symbols': '19f96f0775fa2614',
                    'metadata': '7a250ef1879790a4'},
            'privatized': {'cpus': ('eef198a002f04eb5',
                                    '9a2e9860a8bed241',
                                    '158cc399207d6f18',
                                    'a5b2e3956c0c652b'),
                           'blockops': 'a9dcfc14d57b332f',
                           'symbols': '19f96f0775fa2614',
                           'metadata': '8e415470b1bda4e8'},
            'prefetched': {'cpus': ('60b2a519e4e89a57',
                                    '0f7a5c4022d551bc',
                                    'b9ba91fdcac34932',
                                    'eea516243fb170f7'),
                           'blockops': 'a9dcfc14d57b332f',
                           'symbols': '19f96f0775fa2614',
                           'metadata': '37015eed9e8d518b'},
            'deferred': {'cpus': ('08a2614ceb4b8c64',
                                  'afab1e08137e3658',
                                  '947c1297e478992d',
                                  '02bd157cce13857e'),
                         'blockops': 'a9dcfc14d57b332f',
                         'symbols': '19f96f0775fa2614',
                         'metadata': 'fa334525e91557b9'}},
 'TRFD+Make': {'raw': {'cpus': ('86d46b604a1770e2',
                                '6904c55ea131a98d',
                                'd839553d8b130227',
                                '2fcae5d3492abe38'),
                       'blockops': 'd2f5c123289d4fd4',
                       'symbols': '19f96f0775fa2614',
                       'metadata': '58b1c09f99e02cd0'},
               'privatized': {'cpus': ('39dd02630b19cecb',
                                       'fc871a217014665f',
                                       'c47c8a39cafd6cf2',
                                       'bed87e91b9288163'),
                              'blockops': 'd2f5c123289d4fd4',
                              'symbols': '19f96f0775fa2614',
                              'metadata': 'cdbb2680c095b36a'},
               'prefetched': {'cpus': ('2f9cf720f9654a85',
                                       'a914c61aeb15720f',
                                       'b77bb2ffe0e8bb9a',
                                       'eb6fe65d95d68578'),
                              'blockops': 'd2f5c123289d4fd4',
                              'symbols': '19f96f0775fa2614',
                              'metadata': '083db45c7cd70ab9'},
               'deferred': {'cpus': ('a5ee03945deb6b1b',
                                     '6904c55ea131a98d',
                                     '1209377a967985b3',
                                     'c4c90b6f744be58f'),
                            'blockops': 'd2f5c123289d4fd4',
                            'symbols': '19f96f0775fa2614',
                            'metadata': '17a962f03be2490b'}},
 'ARC2D+Fsck': {'raw': {'cpus': ('50e87bd5f7548a28',
                                 '62821d8849f6ea90',
                                 'db9e2a8176823288',
                                 'fb303807df16efed'),
                        'blockops': 'ab67bd08a32a952c',
                        'symbols': '19f96f0775fa2614',
                        'metadata': '3c5b9d21d08cfa03'},
                'privatized': {'cpus': ('ae5f065ad9eab25f',
                                        '230ac3a6828166de',
                                        '272f020ffdb73de4',
                                        '5c1e79f9860329d3'),
                               'blockops': 'ab67bd08a32a952c',
                               'symbols': '19f96f0775fa2614',
                               'metadata': '70887bc307871bcc'},
                'prefetched': {'cpus': ('a139979fec658d64',
                                        'a581d7698c254fa0',
                                        'f6fd481a2e4e9015',
                                        '85d9fc1c362dac9c'),
                               'blockops': 'ab67bd08a32a952c',
                               'symbols': '19f96f0775fa2614',
                               'metadata': 'b6ed8a9f25719132'},
                'deferred': {'cpus': ('50e87bd5f7548a28',
                                      '62821d8849f6ea90',
                                      'db9e2a8176823288',
                                      '2eb2534adf1c0783'),
                             'blockops': 'ab67bd08a32a952c',
                             'symbols': '19f96f0775fa2614',
                             'metadata': '12c97d1a642f882a'}},
 'Shell': {'raw': {'cpus': ('fc7e770c8c4554e8',
                            'fd4362d857c488d2',
                            '5ceacec281802f1f',
                            'a05548ced98dfd86'),
                   'blockops': '4bea01c2b5c98f10',
                   'symbols': '19f96f0775fa2614',
                   'metadata': 'ae00795d856a5ec0'},
           'privatized': {'cpus': ('9f73a5dced74b239',
                                   'aa1b024cee5e4ff2',
                                   '4a62d6ff0a16cba7',
                                   '026f9c0f3775fe7a'),
                          'blockops': '4bea01c2b5c98f10',
                          'symbols': '19f96f0775fa2614',
                          'metadata': '1132acf47346746a'},
           'prefetched': {'cpus': ('ed830d6cda658680',
                                   'f80ad6741f8cb565',
                                   '5237e04f4a72d4b1',
                                   '23562b334f3e10c7'),
                          'blockops': '4bea01c2b5c98f10',
                          'symbols': '19f96f0775fa2614',
                          'metadata': '7ea7fb3d6ca09f88'},
           'deferred': {'cpus': ('f46f2bc0f8545c09',
                                 '8971e3631ae26662',
                                 '5ceacec281802f1f',
                                 'a05548ced98dfd86'),
                        'blockops': '4bea01c2b5c98f10',
                        'symbols': '19f96f0775fa2614',
                        'metadata': 'e227318c64f87282'}},
 'gen:server:c8:i060:steady:0:0': {'raw': {'cpus': ('feeb62435da490f1',
                                                    '5c54482033b7ab85',
                                                    'a3b8d65cf75c1c23',
                                                    'c0c159e55cd2750e',
                                                    'd6a17ddcc0630b42',
                                                    '97b87ef6b82985cf',
                                                    'cb47c5b132f24c3c',
                                                    '6c664eb4a5a36873'),
                                           'blockops': '452ebd7b3fc07d03',
                                           'symbols': '19f96f0775fa2614',
                                           'metadata': '336f1252b1ead38d'}}}


@pytest.mark.parametrize("workload", WORKLOAD_ORDER)
def test_paper_workload_digests(workload):
    traces = derived_traces(workload)
    for stage, trace in traces.items():
        assert trace_digest(trace) == GOLDEN[workload][stage], stage


def test_generated_server_digest():
    trace = generate(SERVER, seed=SEED, scale=SCALE)
    assert trace_digest(trace) == GOLDEN[SERVER]["raw"]


if __name__ == "__main__":  # pragma: no cover - recording helper
    import pprint
    golden = {w: {stage: trace_digest(t)
                  for stage, t in derived_traces(w).items()}
              for w in WORKLOAD_ORDER}
    golden[SERVER] = {"raw": trace_digest(
        generate(SERVER, seed=SEED, scale=SCALE))}
    pprint.pprint(golden, width=76, sort_dicts=False)
