"""repro — reproduction of Xia & Torrellas, "Improving the Data Cache
Performance of Multiprocessor Operating Systems" (HPCA 1996).

Public API tour:

* :mod:`repro.synthetic` — generate the four system-intensive workload
  traces (``generate("TRFD_4")`` ...).
* :mod:`repro.sim` — simulate a trace on a configured machine
  (``simulate(trace, standard_configs()["Blk_Dma"])``).
* :mod:`repro.optim` — the paper's software optimizations as trace
  transformations and analyses.
* :mod:`repro.analysis` — builders for every table and figure.
* :mod:`repro.experiments` — the cached experiment runner and the
  report builder behind ``repro report``, which regenerates every table
  and figure.
"""

from repro.common import BASE_MACHINE, MachineParams, Mode, Scheme
from repro.sim import (SystemConfig, all_configs, hybrid_configs, simulate,
                       standard_configs)
from repro.synthetic import WORKLOAD_ORDER, generate

__version__ = "1.0.0"

__all__ = [
    "BASE_MACHINE",
    "MachineParams",
    "Mode",
    "Scheme",
    "SystemConfig",
    "WORKLOAD_ORDER",
    "__version__",
    "all_configs",
    "generate",
    "hybrid_configs",
    "simulate",
    "standard_configs",
]
