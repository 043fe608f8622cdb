"""Tests for the command-line interface (repro.cli)."""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]


class TestCatalog:
    def test_prints_all_benchmarks(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for abbr in ("PVC", "DXTC", "LAVAMD", "MRI-Q"):
            assert abbr in out
        assert out.count("memory") == 10
        assert out.count("compute") == 5


class TestRun:
    def test_run_single_policy(self, capsys):
        assert main(["run", "--mix", "PVC,DXTC", "--policy", "ugpu",
                     "--cycles", "10000000"]) == 0
        out = capsys.readouterr().out
        assert "ugpu" in out
        assert "PVC=" in out and "DXTC=" in out

    def test_run_multiple_policies(self, capsys):
        assert main(["run", "--mix", "PVC,DXTC", "--policy", "bp", "ugpu",
                     "--cycles", "10000000"]) == 0
        out = capsys.readouterr().out
        assert "bp" in out and "ugpu" in out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--mix", "PVC,DXTC", "--policy", "nonsense"])

    def test_missing_mix_rejected(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestSweepAndQoS:
    def test_sweep_reports_gain(self, capsys):
        assert main(["sweep", "--policies", "bp", "ugpu",
                     "--cycles", "5000000"]) == 0
        out = capsys.readouterr().out
        assert "ugpu vs bp:" in out
        assert "STP mean" in out

    def test_qos_scenario(self, capsys):
        assert main(["qos", "--mix", "PVC,DXTC", "--target", "0.75",
                     "--cycles", "10000000"]) == 0
        out = capsys.readouterr().out
        assert "UGPU" in out and "MPS" in out
        assert "meets" in out or "VIOLATES" in out

    def test_qos_requires_two_benchmarks(self, capsys):
        assert main(["qos", "--mix", "PVC", "--cycles", "5000000"]) == 2


class TestExport:
    def test_fig2_csv_to_stdout(self, capsys):
        assert main(["export", "fig2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,x,normalized_perf")
        assert "vs_channels" in out and "vs_sms" in out

    def test_fig4_csv_to_file(self, tmp_path, capsys):
        path = tmp_path / "fig4.csv"
        assert main(["export", "fig4", "--output", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pvc_sms,pvc_channels,stp"
        assert len(lines) > 50

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["export", "fig99"])


class TestMetricsFlags:
    def test_arrivals_with_metrics_exports(self, tmp_path, capsys):
        prom = tmp_path / "out.prom"
        series = tmp_path / "series.csv"
        snapshot = tmp_path / "out.json"
        assert main(["arrivals", "--seed", "0", "--cycles", "8000000",
                     "--metrics-out", str(prom),
                     "--metrics-csv", str(series),
                     "--metrics-json", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "metric samples" in out

        from repro.telemetry import (
            read_series,
            series_values,
            validate_prometheus_file,
        )
        assert validate_prometheus_file(prom) > 0
        rows = read_series(series)
        assert series_values(rows, "repro_epochs_total")
        assert snapshot.exists()

    def test_csv_series_matches_open_system_result(self, tmp_path, capsys):
        """Acceptance check: the sampled CSV's final queueing-delay and
        admission figures equal the returned OpenSystemResult's."""
        from repro.exec import resolve_policy
        from repro.telemetry import (
            CsvSampler,
            MetricsRegistry,
            read_series,
            series_values,
        )
        from repro.workloads import poisson_arrivals

        # Arrivals stop at 8M but the run continues to 25M, so every
        # admitted job executes: result.runs covers all admissions and
        # the CSV totals must agree exactly.
        schedule = poisson_arrivals(mean_interarrival_cycles=2_000_000,
                                    horizon_cycles=8_000_000, seed=0)
        registry = MetricsRegistry()
        sampler = CsvSampler(tmp_path / "series.csv").attach(registry)
        system = resolve_policy("ugpu")([], arrivals=schedule,
                                        metrics=registry)
        result = system.run(25_000_000)
        sampler.close()

        rows = read_series(tmp_path / "series.csv")
        admitted = series_values(rows, "repro_open_admissions_total")
        assert admitted[-1][1] == result.admissions
        delay_sum = series_values(
            rows, "repro_open_queueing_delay_cycles_sum")
        delay_count = series_values(
            rows, "repro_open_queueing_delay_cycles_count")
        assert delay_count[-1][1] == result.admissions
        expected = result.mean_queueing_delay * result.admissions
        assert delay_sum[-1][1] == pytest.approx(expected)

    def test_metrics_subcommand_bridges_a_trace(self, tmp_path, capsys):
        prefix = tmp_path / "tl"
        assert main(["trace", "--mix", "PVC,DXTC", "--cycles", "6000000",
                     "--output", str(prefix), "--format", "jsonl"]) == 0
        capsys.readouterr()
        prom = tmp_path / "bridge.prom"
        assert main(["metrics", str(prefix) + ".jsonl",
                     "--out", str(prom), "--validate"]) == 0
        out = capsys.readouterr().out
        assert "exposition format OK" in out

        from repro.telemetry import parse_prometheus
        samples = parse_prometheus(prom.read_text())["samples"]
        assert samples[("repro_epochs_total", ())] > 0

    def test_metrics_subcommand_to_stdout(self, tmp_path, capsys):
        prefix = tmp_path / "tl"
        assert main(["trace", "--mix", "PVC,DXTC", "--cycles", "6000000",
                     "--output", str(prefix), "--format", "jsonl"]) == 0
        capsys.readouterr()
        assert main(["metrics", str(prefix) + ".jsonl"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_epochs_total counter" in out


class TestDocumentedCommands:
    """Every ``python -m repro`` command the docs show must parse."""

    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md",
            ".claude/skills/verify/SKILL.md")
    FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
    INLINE = re.compile(r"`([^`]+)`")
    PROGRAM = re.compile(r"\bpython3? -m repro\b")
    OPERATOR = re.compile(r"\||&&|>|;")

    @staticmethod
    def _lines(text, first):
        """(line number, logical line), joining backslash-newlines."""
        pending, start = "", None
        for number, line in enumerate(text.split("\n"), first):
            start = number if start is None else start
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            yield start, pending + line
            pending, start = "", None

    def _snippets(self):
        """(source, first line, text) of each code block and code span."""
        for pattern in self.DOCS:
            for path in sorted(ROOT.glob(pattern)):
                source = path.relative_to(ROOT).as_posix()
                text = path.read_text(encoding="utf-8")
                for block in self.FENCE.finditer(text):
                    yield (source, text.count("\n", 0, block.start()) + 1,
                           block.group())
                # Blank the blocks out, keeping line numbers, so their
                # fences cannot pair with an inline backtick.
                prose = self.FENCE.sub(
                    lambda m: re.sub(r"[^\n]", " ", m.group()), text)
                for span in self.INLINE.finditer(prose):
                    yield (source, prose.count("\n", 0, span.start()) + 1,
                           span.group(1).replace("\n", " "))
        yield "repro.cli.__doc__", 1, repro.cli.__doc__

    def _commands(self):
        for source, first, snippet in self._snippets():
            for number, line in self._lines(snippet, first):
                program = self.PROGRAM.search(line)
                if program is None:
                    continue
                command = self.OPERATOR.split(line[program.end():], 1)[0]
                argv = [token for token in shlex.split(command, comments=True)
                        if token != "..."]
                if argv:  # a bare `python -m repro` names the program
                    yield f"{source}:{number}", argv

    @staticmethod
    def _parses(argv):
        try:
            repro.cli._parser().parse_args(argv)
        except SystemExit as exit_:
            return exit_.code == 0
        return True

    def test_every_documented_command_parses(self, capsys):
        commands = list(self._commands())
        assert {where.rsplit(":", 1)[0] for where, _ in commands} >= {
            "README.md", "docs/tutorial.md", "docs/paper_mapping.md",
            ".claude/skills/verify/SKILL.md", "repro.cli.__doc__"}
        failures = []
        for where, argv in commands:
            if argv[0].startswith("{"):  # a {a,b,...} synopsis
                bad = [name for name in argv[0].strip("{}").split(",")
                       if not self._parses([name, "--help"])]
            else:
                bad = [] if self._parses(argv) else [shlex.join(argv)]
            failures += [f"{where}: {text}" for text in bad]
        capsys.readouterr()
        assert not failures, "\n".join(failures)
