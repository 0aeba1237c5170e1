"""The paper's published numbers, as structured data.

Every cell of Tables 1-5 and the headline ranges of Figures 2-5, keyed
exactly like the builders in :mod:`repro.analysis.tables` produce them.
These values drive:

* the calibration report (``repro calibrate`` /
  :func:`repro.analysis.compare.calibration_report`), which prints
  measured-vs-paper for every cell;
* the agreement scoring of :mod:`repro.analysis.compare`.

Source: Xia & Torrellas, HPCA 1996, Tables 1-5 and Figures 2-3.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Workloads in the paper's column order.
WORKLOADS = ["TRFD_4", "TRFD+Make", "ARC2D+Fsck", "Shell"]

#: Table 1 — characteristics of the workloads studied.
TABLE1: Dict[str, List[float]] = {
    "User Time (%)": [49.9, 38.2, 42.7, 23.8],
    "Idle Time (%)": [8.0, 8.2, 11.5, 29.2],
    "OS Time (%)": [42.1, 53.6, 45.8, 47.0],
    "Stall Time Due to OS D-Accesses (% of Total Time)":
        [14.0, 14.9, 11.3, 13.3],
    "D-Miss Rate in Primary Cache (%)": [3.5, 4.7, 3.8, 3.2],
    "OS D-Reads / Total D-Reads (%)": [40.4, 53.6, 44.5, 61.3],
    "OS D-Misses / Total D-Misses (%)": [53.4, 69.1, 66.0, 65.9],
}

#: Table 2 — breakdown of operating system data misses.
TABLE2: Dict[str, List[float]] = {
    "Block Op. (%)": [43.7, 43.9, 44.0, 27.6],
    "Coherence (%)": [14.8, 11.3, 12.9, 6.2],
    "Other (%)": [41.5, 44.8, 43.1, 66.2],
}

#: Table 3 — characteristics of the block operations.
TABLE3: Dict[str, List[float]] = {
    "Src lines already cached (%)": [62.9, 71.1, 61.4, 41.0],
    "Dst lines already in secondary cache and Dirty or Excl. (%)":
        [19.6, 20.4, 40.6, 2.6],
    "Dst lines already in secondary cache and Shared (%)":
        [0.5, 0.6, 1.0, 0.1],
    "Blocks of size = 4 Kbytes (%)": [91.5, 70.3, 30.8, 29.1],
    "Blocks of size < 4 Kbytes and >= 1 Kbyte (%)": [1.9, 5.2, 24.4, 3.6],
    "Blocks of size < 1 Kbyte (%)": [6.6, 24.5, 44.8, 67.3],
    "Inside displacement misses / total data misses (%)":
        [6.8, 5.5, 4.1, 1.3],
    "Outside displacement misses / total data misses (%)":
        [12.3, 9.3, 15.8, 10.1],
    "Inside reuses / total data misses (%)": [42.7, 24.3, 39.2, 1.4],
    "Outside reuses / total data misses (%)": [0.8, 3.0, 1.5, 1.4],
}

#: Table 4 — copies of blocks smaller than a page.
TABLE4: Dict[str, List[float]] = {
    "Small Block Copies / Block Copies (%)": [11.0, 40.7, 76.1, 83.5],
    "Read-Only Small Block Copies / Small Block Copies (%)":
        [14.0, 43.9, 25.0, 8.7],
    "Misses Eliminated by Deferred Copy / Total Data Misses (%)":
        [0.1, 0.4, 0.3, 0.1],
}

#: Table 5 — breakdown of coherence misses in the operating system.
TABLE5: Dict[str, List[float]] = {
    "Barriers (%)": [45.6, 35.0, 41.2, 4.8],
    "Infreq. Com. (%)": [22.1, 19.9, 22.5, 25.5],
    "Freq. Shared (%)": [12.6, 10.1, 14.3, 24.7],
    "Locks (%)": [7.9, 13.5, 1.9, 19.0],
    "Other (%)": [11.8, 21.5, 20.1, 26.0],
}

ALL_TABLES: Dict[str, Dict[str, List[float]]] = {
    "table1": TABLE1,
    "table2": TABLE2,
    "table3": TABLE3,
    "table4": TABLE4,
    "table5": TABLE5,
}

#: Figure 2 — normalized OS misses per system (from the printed bar
#: values), keyed system -> per-workload values.
FIGURE2: Dict[str, List[float]] = {
    "Base": [1.00, 1.00, 1.00, 1.00],
    "Blk_Pref": [0.66, 0.64, 0.63, 0.73],
    "Blk_Bypass": [1.39, 1.18, 1.16, 0.91],
    "Blk_ByPref": [0.62, 0.62, 0.65, 0.73],
    "Blk_Dma": [0.49, 0.45, 0.63, 0.39],
}

#: Figure 3 — normalized OS execution time per system.
FIGURE3: Dict[str, List[float]] = {
    "Base": [1.00, 1.00, 1.00, 1.00],
    "Blk_Pref": [0.95, 0.96, 0.96, 0.96],
    "Blk_Bypass": [1.16, 1.17, 0.98, 1.07],
    "Blk_ByPref": [0.96, 0.96, 0.97, 0.96],
    "Blk_Dma": [0.83, 0.89, 0.86, 0.89],
    "BCoh_Reloc": [0.83, 0.88, 0.85, 0.88],
    "BCoh_RelUp": [0.81, 0.86, 0.83, 0.87],
    "BCPref": [0.79, 0.82, 0.81, 0.86],
}

#: The adaptive hybrid schemes (:func:`repro.sim.config.hybrid_configs`),
#: beyond the paper's eight.  They have no published targets — the
#: calibration report skips them, and ``results/hybrid_comparison.txt``
#: (built by ``repro sweep``) measures them against the paper's own
#: schemes on the generated workload families instead.
HYBRID_SCHEMES: List[str] = ["Hyb_UpdN", "Hyb_Deg", "Hyb_Static"]

#: Figure 5 — fraction of OS misses remaining under BCPref.
FIGURE5_BCPREF: List[float] = [0.23, 0.21, 0.27, 0.28]

#: Section 6 — hot-spot share of the remaining misses (12 hot spots).
HOTSPOT_COVERAGE: List[float] = [0.29, 0.44, 0.22, 0.51]


def as_pairs(table: str) -> List[Tuple[str, str, float]]:
    """Flatten a table into ``(row, workload, value)`` triples."""
    out = []
    for row, values in ALL_TABLES[table].items():
        for workload, value in zip(WORKLOADS, values):
            out.append((row, workload, value))
    return out
