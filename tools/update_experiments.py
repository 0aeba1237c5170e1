"""Refresh the measured values in EXPERIMENTS.md from results/full_report.txt.

The EXPERIMENTS tables show `paper / measured` cells; this script re-parses
the freshly generated report and rewrites the measured halves so the two
files can never drift apart.
"""
import re

from repro.analysis import targets

report = open("results/full_report.txt").read()

def parse_table(name, row_labels):
    block = report.split(f"### {name}")[1].split("###")[0]
    out = {}
    for label in row_labels:
        for line in block.splitlines():
            if line.startswith(label):
                vals = line[len(label):].split()
                out[label] = [float(v) for v in vals[:4]]
                break
        else:
            raise KeyError((name, label))
    return out

def parse_figure_totals(name, systems):
    block = report.split(f"### {name}")[1].split("###")[0]
    totals = {s: [] for s in systems}
    for line in block.splitlines():
        parts = line.split()
        if parts and parts[0] in totals:
            totals[parts[0]].append(float(parts[-1]))
    return totals

def replace_row(md, heading, pattern, row):
    """Substitute *row* for the line matching *pattern*, inside the
    ``## <heading>`` section only: Tables 2 and 5 share row labels."""
    start = re.search(r"^## " + re.escape(heading) + r"\b", md, re.MULTILINE)
    if start is None:
        raise KeyError(f"section not found in EXPERIMENTS.md: {heading}")
    end = re.compile(r"^## ", re.MULTILINE).search(md, start.end())
    stop = end.start() if end else len(md)
    section, count = pattern.subn(lambda _m: row, md[start.start():stop])
    if not count:
        raise KeyError(f"row not found in EXPERIMENTS.md {heading}: "
                       f"{pattern.pattern}")
    return md[:start.start()] + section + md[stop:]

# Label maps: EXPERIMENTS.md row label -> report row label (per table).
MAPS = {
    "table1": {
        "User time %": "User Time (%)",
        "Idle time %": "Idle Time (%)",
        "OS time %": "OS Time (%)",
        "OS D-stall, % of total": "Stall Time Due to OS D-Accesses (% of Total Time)",
        "D-miss rate %": "D-Miss Rate in Primary Cache (%)",
        "OS share of D-reads %": "OS D-Reads / Total D-Reads (%)",
        "OS share of D-misses %": "OS D-Misses / Total D-Misses (%)",
    },
    "table2": {
        "Block op %": "Block Op. (%)",
        "Coherence %": "Coherence (%)",
        "Other %": "Other (%)",
    },
    "table3": {
        "Src lines cached %": "Src lines already cached (%)",
        "Dst in L2 Dirty/Excl %": "Dst lines already in secondary cache and Dirty or Excl. (%)",
        "Dst in L2 Shared %": "Dst lines already in secondary cache and Shared (%)",
        "Page-sized blocks %": "Blocks of size = 4 Kbytes (%)",
        "1 KB-4 KB blocks %": "Blocks of size < 4 Kbytes and >= 1 Kbyte (%)",
        "< 1 KB blocks %": "Blocks of size < 1 Kbyte (%)",
        "Inside displacement / total misses %": "Inside displacement misses / total data misses (%)",
        "Outside displacement %": "Outside displacement misses / total data misses (%)",
        "Inside reuses %": "Inside reuses / total data misses (%)",
        "Outside reuses %": "Outside reuses / total data misses (%)",
    },
    "table4": {
        "Small copies / copies %": "Small Block Copies / Block Copies (%)",
        "Read-only / small copies %": "Read-Only Small Block Copies / Small Block Copies (%)",
        "Misses eliminated %": "Misses Eliminated by Deferred Copy / Total Data Misses (%)",
    },
    "table5": {
        "Barriers %": "Barriers (%)",
        "Infreq. communicated %": "Infreq. Com. (%)",
        "Freq. shared %": "Freq. Shared (%)",
        "Locks %": "Locks (%)",
        "Other %": "Other (%)",
    },
}

md = open("EXPERIMENTS.md").read()

for table, label_map in MAPS.items():
    measured = parse_table(table, list(label_map.values()))
    paper = targets.ALL_TABLES[table]
    for md_label, report_label in label_map.items():
        paper_vals = paper[report_label]
        meas_vals = measured[report_label]
        cells = " | ".join(f"{p:.1f} / {m:.1f}"
                           for p, m in zip(paper_vals, meas_vals))
        new_row = f"| {md_label} | {cells} |"
        pattern = re.compile(r"^\| " + re.escape(md_label) + r" \|.*$",
                             re.MULTILINE)
        md = replace_row(md, f"Table {table[-1]}", pattern, new_row)

# Figure 2 and 3 tables: rows "| System | paper range | v v v v |"
for fig, systems, ranges in (
    ("figure2", ["Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma"],
     {"Blk_Pref": "0.62-0.73", "Blk_Bypass": "0.91-1.39",
      "Blk_ByPref": "0.39-0.73", "Blk_Dma": "0.45-0.63"}),
    ("figure3", ["Blk_Pref", "Blk_Bypass", "Blk_ByPref", "Blk_Dma",
                 "BCoh_Reloc", "BCoh_RelUp", "BCPref"],
     {"Blk_Pref": "0.95-0.96", "Blk_Bypass": "0.98-1.17",
      "Blk_ByPref": "0.96-0.98", "Blk_Dma": "0.83-0.89",
      "BCoh_Reloc": "0.81-0.88", "BCoh_RelUp": "0.78-0.87",
      "BCPref": "0.78-0.83"}),
):
    totals = parse_figure_totals(fig, systems + ["Base"])
    for system in systems:
        vals = totals[system]
        row = (f"| {system} | {ranges[system]} | "
               + " | ".join(f"{v:.2f}" for v in vals) + " |")
        pattern = re.compile(r"^\| " + re.escape(system) + r" \| "
                             + re.escape(ranges[system]) + r" \|.*$",
                             re.MULTILINE)
        md = replace_row(md, f"Figure {fig[-1]}", pattern, row)

open("EXPERIMENTS.md", "w").write(md)

# Headline recomputation helpers printed for manual prose updates.
f5 = parse_figure_totals("figure5", ["BCPref", "BCoh_RelUp"])
f3 = parse_figure_totals("figure3", ["BCPref"])
remaining = f5["BCPref"]
print("figure5 BCPref remaining:", remaining,
      "avg eliminated:", 1 - sum(remaining) / 4)
print("figure3 BCPref time:", f3["BCPref"],
      "avg speedup:", 1 - sum(f3["BCPref"]) / 4)
print("EXPERIMENTS.md tables refreshed")
