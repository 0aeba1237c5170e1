"""``tools/update_experiments.py`` rewrites each EXPERIMENTS.md row from
its own table: Tables 2 and 5 both have an "Other %" row, and each must
carry its own table's values.  The committed EXPERIMENTS.md must already
match the committed report (the first run changes nothing), and so must
a second run."""

import os
import shutil
import subprocess
import sys

from repro.analysis import targets

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _measured(report, table, label):
    block = report.split(f"### {table}")[1].split("###")[0]
    line = next(l for l in block.splitlines() if l.startswith(label))
    return [float(v) for v in line[len(label):].split()[:4]]


def _expected_row(report, table, label):
    cells = " | ".join(
        f"{p:.1f} / {m:.1f}"
        for p, m in zip(targets.ALL_TABLES[table][label],
                        _measured(report, table, label)))
    return f"| Other % | {cells} |"


def _section_row(md, heading, prefix):
    section = md.split(f"\n## {heading} ")[1].split("\n## ")[0]
    return next(l for l in section.splitlines() if l.startswith(prefix))


def _run_tool(cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    subprocess.run([sys.executable,
                    os.path.join(REPO, "tools", "update_experiments.py")],
                   cwd=cwd, env=env, check=True, capture_output=True)


def test_shared_row_labels_stay_in_their_own_table(tmp_path):
    (tmp_path / "results").mkdir()
    shutil.copy(os.path.join(REPO, "results", "full_report.txt"),
                tmp_path / "results" / "full_report.txt")
    shutil.copy(os.path.join(REPO, "EXPERIMENTS.md"),
                tmp_path / "EXPERIMENTS.md")
    report = (tmp_path / "results" / "full_report.txt").read_text()

    _run_tool(tmp_path)
    once = (tmp_path / "EXPERIMENTS.md").read_text()
    with open(os.path.join(REPO, "EXPERIMENTS.md")) as fp:
        assert once == fp.read(), (
            "EXPERIMENTS.md drifted from results/full_report.txt; run "
            "tools/update_experiments.py from the repo root")
    for table, heading in (("table2", "Table 2"), ("table5", "Table 5")):
        assert (_section_row(once, heading, "| Other % |")
                == _expected_row(report, table, "Other (%)")), heading

    _run_tool(tmp_path)
    assert (tmp_path / "EXPERIMENTS.md").read_text() == once
