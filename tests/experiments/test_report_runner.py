"""Tests for report formatting and the experiment runner CLI."""


import pytest

from repro.experiments import format_rows, format_speedup_sweep, format_table
from repro.experiments.figures import SpeedupSweep
from repro.experiments.runner import EXPERIMENTS, main, run_experiment


class TestFormatTable:
    def test_basic_rendering(self):
        out = format_table(["a", "b"], [[1, 2.5], ["x", None]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.500" in out
        assert "-" in lines[3]  # None renders as dash

    def test_alignment_consistent(self):
        out = format_table(["col"], [[1], [100000]])
        widths = {len(line) for line in out.splitlines()}
        assert len(widths) == 1

    def test_large_numbers_scientific(self):
        out = format_table(["x"], [[1.23e6]])
        assert "e+06" in out

    def test_format_rows_selects_columns(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        out = format_rows(rows, ["c", "a"])
        header = out.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_format_rows_custom_headers(self):
        out = format_rows([{"a": 1}], ["a"], headers=["Alpha"])
        assert "Alpha" in out

    def test_speedup_sweep_rendering(self):
        sweep = SpeedupSweep("RTX3090", "base", "size",
                             {"k": [(128, 1.5), (256, 2.0)]})
        out = format_speedup_sweep(sweep)
        assert "vs base" in out
        assert "1.50" in out and "2.00" in out


class TestRunner:
    def test_experiment_registry_covers_paper(self):
        expected = {
            "table1", "table2", "table3", "table4",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "ablations", "serving", "scheduling", "warmup",
            "placement", "faults",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_run_serving(self):
        report = run_experiment("serving")
        assert "SLO" in report
        assert "APNN-w1a2" in report
        assert "batch" in report

    def test_cli_unknown_experiment_exits_nonzero(self, capsys):
        rc = main(["--only", "fig99"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig99" in err
        assert "table4" in err  # lists what IS available

    def test_cli_unknown_mixed_with_known_runs_nothing(self, capsys, tmp_path):
        rc = main(["--only", "table4", "nope", "--out", str(tmp_path)])
        assert rc != 0
        assert not (tmp_path / "table4.md").exists()

    def test_run_table4(self):
        report = run_experiment("table4")
        assert "Table 4" in report
        assert "cutlass-gemm-int4" in report

    def test_run_fig12(self):
        report = run_experiment("fig12")
        assert "APMM-w4a4" in report

    def test_cli_writes_files(self, tmp_path):
        rc = main(["--only", "table4", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table4.md").exists()
        assert "paper_us" in (tmp_path / "table4.md").read_text()

    def test_cli_without_args_shows_help(self, capsys):
        rc = main([])
        assert rc == 2

    def test_cli_only_subset(self, capsys):
        rc = main(["--only", "ablations"])
        assert rc == 0
        assert "plane batching" in capsys.readouterr().out
