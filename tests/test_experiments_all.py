"""Tests for the report builder behind ``repro report``
(repro.experiments.all)."""

import re
import time as real_time

import pytest

from repro.cli import main
from repro.experiments import all as all_mod
from repro.experiments.all import (ARTIFACT_ORDER, EXTRA_ARTIFACTS,
                                   artifact_cells, build_report, make_runner)


def test_artifact_order_covers_everything():
    assert len(ARTIFACT_ORDER) == 12
    assert {n for n in ARTIFACT_ORDER if n.startswith("table")} == {
        "table1", "table2", "table3", "table4", "table5"}
    assert {n for n in ARTIFACT_ORDER if n.startswith("figure")} == {
        f"figure{i}" for i in range(1, 8)}
    assert EXTRA_ARTIFACTS == ["machines"]


def test_run_all_selected_artifacts():
    report = build_report(make_runner(scale=0.05, seed=3), only=["table2"],
                          verbose=False)
    assert "### table2" in report
    assert "Block Op. (%)" in report
    assert "figure3" not in report


def test_run_all_renders_identically_at_any_worker_count():
    def report(workers):
        return build_report(make_runner(scale=0.05, seed=1996,
                                        workers=workers),
                            only=["table2", "figure3"], verbose=False)
    assert report(1) == report(2)


def test_run_all_unknown_artifact():
    with pytest.raises(KeyError, match="unknown artifact"):
        build_report(make_runner(scale=0.05), only=["table9"],
                     verbose=False)


class BackwardsWallClock:
    """A ``time`` stand-in whose wall clock steps backwards on every
    read (a hostile NTP adjustment), with everything else real — the
    same hostile clock the ledger regression test uses."""

    def __init__(self):
        self._wall = 1_000_000.0

    def time(self):
        self._wall -= 100.0
        return self._wall

    def __getattr__(self, name):  # monotonic, sleep, strftime, ...
        return getattr(real_time, name)


def test_artifact_elapsed_survives_backwards_wall_clock(
        monkeypatch, capsys):
    monkeypatch.setattr(all_mod, "time", BackwardsWallClock())
    report = build_report(make_runner(scale=0.05, seed=3), only=["table2"],
                          verbose=True)
    assert "### table2" in report
    timings = re.findall(r"\[table2 built in (-?[\d.]+)s\]",
                         capsys.readouterr().err)
    assert timings, "verbose run should report per-artifact build times"
    assert all(float(t) >= 0 for t in timings)


def test_main_writes_output(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["report", "--scale", "0.05", "--seed", "3",
                 "--only", "table2", "--no-cache", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert "### table2" in text
    captured = capsys.readouterr()
    assert "### table2" in captured.out
