"""Tests for result aggregation and reporting (repro.analysis)."""

import pytest

from repro.analysis import (
    PolicySweep,
    Table,
    compare_policies,
    format_markdown,
    format_text,
)
from repro.errors import ConfigError
from repro.exec.registry import bp, ugpu


class TestTable:
    def test_add_and_column(self):
        table = Table("t", ("a", "b"))
        table.add(1, 2).add(3, 4)
        assert table.column("b") == [2, 4]

    def test_row_arity_checked(self):
        with pytest.raises(ConfigError):
            Table("t", ("a", "b")).add(1)

    def test_unknown_column(self):
        with pytest.raises(ConfigError):
            Table("t", ("a",)).column("z")

    def test_text_rendering(self):
        table = Table("title", ("name", "value"))
        table.add("alpha", 10)
        text = format_text(table)
        assert "== title ==" in text
        assert "alpha" in text and "10" in text

    def test_markdown_rendering(self):
        table = Table("title", ("name", "value"))
        table.add("alpha", 10)
        md = format_markdown(table)
        assert md.startswith("### title")
        assert "| alpha | 10 |" in md
        assert "| --- | --- |" in md


class TestPolicySweep:
    def test_sweep_collects_results(self):
        sweep = PolicySweep("BP", bp, total_cycles=10_000_000)
        summary = sweep.run([("PVC", "DXTC"), ("LBM", "CP")])
        assert summary.policy == "BP"
        assert len(summary.stp_values) == 2
        assert all(s > 0 for s in summary.stp_values)
        assert len(sweep.results) == 2

    def test_summary_before_run_rejected(self):
        with pytest.raises(ConfigError):
            PolicySweep("BP", bp).summary()

    def test_gain_computation(self):
        workloads = [("PVC", "DXTC")]
        bp_sweep = PolicySweep("BP", bp, 10_000_000).run(workloads)
        ugpu_sweep = PolicySweep("UGPU", ugpu, 10_000_000).run(workloads)
        assert ugpu_sweep.stp_gain_over(bp_sweep) > 0
        assert ugpu_sweep.antt_gain_over(bp_sweep) > 0

    def test_mismatched_sweeps_rejected(self):
        bp_sweep = PolicySweep("BP", bp, 10_000_000).run([("PVC", "DXTC")])
        ugpu_sweep = PolicySweep("UGPU", ugpu, 10_000_000).run(
            [("PVC", "DXTC"), ("LBM", "CP")]
        )
        with pytest.raises(ConfigError):
            ugpu_sweep.stp_gain_over(bp_sweep)

    def test_invalid_cycles(self):
        with pytest.raises(ConfigError):
            PolicySweep("BP", bp, total_cycles=0)


class TestComparePolicies:
    def test_comparison_table(self):
        table, summaries = compare_policies(
            {"BP": bp, "UGPU": ugpu},
            workloads=[("PVC", "DXTC"), ("LAVAMD", "CP")],
            total_cycles=10_000_000,
        )
        assert set(summaries) == {"BP", "UGPU"}
        text = format_text(table)
        assert "UGPU" in text
        gains = dict(zip(table.column("policy"), table.column("STP vs BP")))
        assert gains["BP"] == "+0.0%"
        assert gains["UGPU"].startswith("+")

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ConfigError):
            compare_policies({"UGPU": ugpu}, [("PVC", "DXTC")],
                             baseline="BP")


class TestAsciiPlot:
    def test_sparkline_shape(self):
        from repro.analysis import sparkline
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert len(line) == 8
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_series(self):
        from repro.analysis import sparkline
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_sparkline_shared_scale(self):
        from repro.analysis import sparkline
        a = sparkline([0, 10], lo=0, hi=20)
        assert a == "▁▄"

    def test_sparkline_empty_rejected(self):
        from repro.analysis import sparkline
        with pytest.raises(ConfigError):
            sparkline([])

    def test_bar_chart(self):
        from repro.analysis import bar_chart
        chart = bar_chart({"BP": 1.0, "UGPU": 1.25}, width=10, baseline=1.0)
        lines = chart.splitlines()
        assert lines[0].startswith("BP")
        assert "█" in lines[1]
        assert "1.250" in lines[1]

    def test_bar_chart_negative_relative(self):
        from repro.analysis import bar_chart
        chart = bar_chart({"ORI": 0.8}, width=10, baseline=1.0)
        assert "-" in chart

    def test_compare_sparklines(self):
        from repro.analysis import compare_sparklines
        out = compare_sparklines({"BP": [1, 1, 1], "UGPU": [1, 2, 3]})
        assert out.count("\n") == 1
        assert "[1.00..3.00]" in out

    def test_plot_validation(self):
        from repro.analysis import bar_chart, compare_sparklines
        with pytest.raises(ConfigError):
            bar_chart({})
        with pytest.raises(ConfigError):
            compare_sparklines({})
