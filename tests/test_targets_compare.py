"""Tests for paper targets and the comparison machinery."""

import pytest

from repro.analysis import targets
from repro.analysis.compare import (
    CellComparison,
    ComparisonReport,
    compare_tables,
    render_comparison,
)
from repro.experiments.runner import ExperimentRunner


class TestTargets:
    def test_tables_have_four_workload_columns(self):
        for name, table in targets.ALL_TABLES.items():
            for row, values in table.items():
                assert len(values) == 4, (name, row)

    def test_table2_rows_partition(self):
        for i in range(4):
            total = sum(values[i] for values in targets.TABLE2.values())
            assert total == pytest.approx(100.0, abs=0.1)

    def test_table5_rows_partition(self):
        for i in range(4):
            total = sum(values[i] for values in targets.TABLE5.values())
            assert total == pytest.approx(100.0, abs=0.2)

    def test_table3_size_rows_partition(self):
        size_rows = [
            "Blocks of size = 4 Kbytes (%)",
            "Blocks of size < 4 Kbytes and >= 1 Kbyte (%)",
            "Blocks of size < 1 Kbyte (%)",
        ]
        for i in range(4):
            total = sum(targets.TABLE3[row][i] for row in size_rows)
            assert total == pytest.approx(100.0, abs=0.1)

    def test_paper_value_lookup(self):
        assert ("Block Op. (%)", "Shell", 27.6) in targets.as_pairs("table2")
        assert ("Idle Time (%)", "TRFD_4", 8.0) in targets.as_pairs("table1")

    def test_rows_order_matches_builders(self):
        from repro.analysis.tables import (
            TABLE1_ROWS, TABLE2_ROWS, TABLE3_ROWS, TABLE4_ROWS, TABLE5_ROWS)
        assert list(targets.TABLE1) == TABLE1_ROWS
        assert list(targets.TABLE2) == TABLE2_ROWS
        assert list(targets.TABLE3) == TABLE3_ROWS
        assert list(targets.TABLE4) == TABLE4_ROWS
        assert list(targets.TABLE5) == TABLE5_ROWS

    def test_as_pairs_count(self):
        pairs = targets.as_pairs("table2")
        assert len(pairs) == 12
        assert ("Block Op. (%)", "Shell", 27.6) in pairs

    def test_figure3_base_is_unit(self):
        assert targets.FIGURE3["Base"] == [1.0, 1.0, 1.0, 1.0]


class TestCellComparison:
    def test_ratio(self):
        cell = CellComparison("t", "r", "w", paper=40.0, measured=50.0)
        assert cell.ratio == pytest.approx(1.25)
        assert cell.within(2.0)
        assert not cell.within(1.2)

    def test_small_paper_values_compared_absolutely(self):
        cell = CellComparison("t", "r", "w", paper=0.5, measured=3.0)
        assert cell.ratio is None
        assert cell.within(2.0)          # within 5 points
        cell = CellComparison("t", "r", "w", paper=0.5, measured=9.0)
        assert not cell.within(2.0)

    def test_report_agreement(self):
        cells = [CellComparison("t", "r", "w", 40.0, 50.0),
                 CellComparison("t", "r2", "w", 40.0, 200.0)]
        report = ComparisonReport(cells)
        assert report.agreement(2.0) == 0.5
        assert report.worst(1)[0].row == "r2"

    def test_empty_report(self):
        assert ComparisonReport([]).agreement() == 0.0


class TestCompareTables:
    @pytest.fixture(scope="class")
    def report(self):
        runner = ExperimentRunner(scale=0.08, seed=17)
        return compare_tables(runner, which=["table2", "table5"])

    def test_cells_cover_requested_tables(self, report):
        assert len(report.for_table("table2")) == 12
        assert len(report.for_table("table5")) == 20
        assert report.for_table("table1") == []

    def test_render(self, report):
        out = render_comparison(report)
        assert "### table2" in out
        assert "agreement within" in out
        assert "largest deviations" in out
