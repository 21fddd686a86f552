"""Tests of the end-to-end WCET analyzer and the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.pipeline import AnalysisError, AnalyzerConfig, WcetAnalyzer, analyze_source
from repro.testgen import HybridOptions
from repro.workloads.figure1 import FIGURE1_SOURCE


QUICK_HYBRID = HybridOptions(plateau_patterns=20, max_random_vectors=60, seed=1)


class TestWcetAnalyzer:
    def test_figure1_analysis_is_safe(self, figure1):
        config = AnalyzerConfig(path_bound=2, hybrid=QUICK_HYBRID, extra_random_vectors=5)
        report = WcetAnalyzer(figure1, "main", config).analyze()
        assert report.is_safe()
        assert report.measured_wcet_cycles is not None
        assert report.wcet_bound_cycles >= report.measured_wcet_cycles
        assert report.infeasible_paths == 1  # the printf5 path

    def test_bound_decreases_or_equal_with_larger_path_bound(self, figure1):
        """Coarser segments capture more context, so the bound cannot get worse."""
        reports = {}
        for bound in (1, 6):
            config = AnalyzerConfig(
                path_bound=bound, hybrid=QUICK_HYBRID, extra_random_vectors=5
            )
            reports[bound] = WcetAnalyzer(figure1, "main", config).analyze()
        assert reports[6].wcet_bound_cycles <= reports[1].wcet_bound_cycles
        assert all(r.is_safe() for r in reports.values())

    def test_general_partitioner_configuration(self, figure1):
        config = AnalyzerConfig(
            path_bound=2, partitioner="general", hybrid=QUICK_HYBRID, extra_random_vectors=5
        )
        report = WcetAnalyzer(figure1, "main", config).analyze()
        assert report.is_safe()

    def test_unknown_partitioner_rejected(self, figure1):
        config = AnalyzerConfig(partitioner="magic")
        with pytest.raises(AnalysisError):
            WcetAnalyzer(figure1, "main", config).analyze()

    def test_unknown_function_rejected(self, figure1):
        with pytest.raises(AnalysisError):
            WcetAnalyzer(figure1, "missing", AnalyzerConfig())

    def test_analyze_source_wrapper(self):
        config = AnalyzerConfig(path_bound=6, hybrid=QUICK_HYBRID, extra_random_vectors=2)
        report = analyze_source(FIGURE1_SOURCE, "main", config)
        assert report.wcet_bound_cycles > 0

    def test_exhaustive_comparison_can_be_disabled(self, figure1):
        config = AnalyzerConfig(
            path_bound=2, hybrid=QUICK_HYBRID, extra_random_vectors=2, exhaustive_limit=None
        )
        report = WcetAnalyzer(figure1, "main", config).analyze()
        assert report.end_to_end is None
        assert report.overestimation_ratio is None

    def test_generator_statistics_reported(self, figure1):
        config = AnalyzerConfig(path_bound=2, hybrid=QUICK_HYBRID, extra_random_vectors=2)
        report = WcetAnalyzer(figure1, "main", config).analyze()
        stats = report.generator_statistics
        assert stats["heuristic_share_percent"] >= 0
        assert "model_checking_queries" in stats

    def test_case_study_shape(self, wiper_code, wiper_function_name):
        """The paper's comparison: partitioned bound >= exhaustive WCET, modest margin."""
        config = AnalyzerConfig(path_bound=2, hybrid=QUICK_HYBRID, extra_random_vectors=20)
        report = WcetAnalyzer(wiper_code.analyzed, wiper_function_name, config).analyze()
        assert report.is_safe()
        assert report.measured_wcet_cycles is not None
        assert 1.0 <= report.overestimation_ratio <= 1.6


class TestCli:
    def test_partition_command_prints_table1(self, tmp_path: Path, capsys):
        source_file = tmp_path / "figure1.c"
        source_file.write_text(FIGURE1_SOURCE)
        exit_code = cli_main(
            ["partition", str(source_file), "--function", "main", "--bounds", "1,2,6"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "22" in output and "16" in output and "11" in output

    def test_analyze_command(self, tmp_path: Path, capsys):
        source_file = tmp_path / "figure1.c"
        source_file.write_text(FIGURE1_SOURCE)
        exit_code = cli_main(
            ["analyze", str(source_file), "--function", "main", "--bound", "6"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "WCET bound" in output

    def test_missing_file_reports_error(self, capsys):
        exit_code = cli_main(["partition", "/no/such/file.c", "--function", "main"])
        assert exit_code == 1
        assert "error" in capsys.readouterr().err

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_cli_import_leaves_networkx_unloaded(self):
        """networkx backs only ``ControlFlowGraph.to_networkx``; importing
        the CLI must not pay for it."""
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; print('networkx' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == "False"
