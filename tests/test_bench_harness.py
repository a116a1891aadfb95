"""Bench harness tests: the SuiteRunner caching, figure drivers and
text reporting that regenerate the paper's tables/figures."""

import pytest

from repro.bench import (
    BASELINE,
    STATIC_TIE,
    VECTORIZED,
    SuiteRunner,
    application_workloads,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_table1,
)
from repro.bench.harness import average
from repro.bench.reporting import (
    format_figure6,
    format_figure7,
    format_figure8,
    format_figure9,
    format_figure10,
    format_table1,
    join_sections,
)


@pytest.fixture(scope="module")
def tiny_runner():
    return SuiteRunner(scale=0.25)


class TestHarness:
    def test_application_set_excludes_microbenchmark(self):
        names = [w.name for w in application_workloads()]
        assert "throughput" not in names
        assert "BlackScholes" in names

    def test_runner_caches_runs(self, tiny_runner):
        workload = application_workloads()[0]
        first = tiny_runner.run(workload, BASELINE)
        second = tiny_runner.run(workload, BASELINE)
        assert first is second

    def test_runner_configs(self, tiny_runner):
        assert tiny_runner.config(BASELINE).max_warp_size == 1
        assert tiny_runner.config(VECTORIZED).max_warp_size == 4
        assert tiny_runner.config(STATIC_TIE).static_warps

    def test_average_helper(self):
        assert average([1.0, 2.0, 3.0]) == 2.0
        assert average([]) == 0.0

    def test_speedups_cover_all_applications(self, tiny_runner):
        speedups = tiny_runner.speedups()
        assert set(speedups) == {
            w.name for w in application_workloads()
        }
        assert all(value > 0 for value in speedups.values())


class TestTable1Driver:
    def test_small_scale_run(self):
        result = run_table1(scale=0.2, warp_sizes=(1, 4))
        assert set(result.gflops) == {1, 4}
        assert result.gflops[4] > result.gflops[1]
        assert result.fraction_of_peak[4] < 1.0

    def test_formatting(self):
        result = run_table1(scale=0.2, warp_sizes=(1, 4))
        text = format_table1(result)
        assert "Table 1" in text
        assert "paper" in text


class TestFigureDrivers:
    def test_figure6(self, tiny_runner):
        result = run_figure6(tiny_runner)
        assert result.average > 0
        assert result.best[1] >= max(result.speedups.values()) - 1e-9
        text = format_figure6(result)
        assert "AVERAGE" in text

    def test_figure7(self, tiny_runner):
        result = run_figure7(tiny_runner)
        assert result.dominant_warp_size("BlackScholes") == 4
        assert "avg=" in format_figure7(result)

    def test_figure8(self, tiny_runner):
        result = run_figure8(tiny_runner)
        assert result.restored["Template"] == 0.0
        assert "restored" in format_figure8(result).lower()

    def test_figure9(self, tiny_runner):
        result = run_figure9(tiny_runner)
        assert 0 <= result.em_fraction("Nbody") < 0.2
        assert result.kernel_fraction("Nbody") > 0.8
        assert "kernel=" in format_figure9(result)

    def test_figure10(self, tiny_runner):
        result = run_figure10(tiny_runner)
        assert set(result.relative) == set(result.absolute)
        assert "relative" in format_figure10(result)

    def test_join_sections(self):
        assert join_sections(["a", "b"]) == "a\n\nb"


class TestMainEntry:
    def test_cli_single_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--scale", "0.1", "--only", "table1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "completed" in captured.out


class TestDocsQuoteResults:
    def test_experiments_table1_is_the_committed_result(self):
        # EXPERIMENTS.md quotes benchmarks/results/table1.txt verbatim;
        # regenerating one without the other is the drift this pins.
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        table = (root / "benchmarks/results/table1.txt").read_text()
        assert table.strip() in (root / "EXPERIMENTS.md").read_text()
