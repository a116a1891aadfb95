"""Bench harness tests: the SuiteRunner caching, figure drivers and
text reporting that regenerate the paper's tables/figures."""

import pathlib
import re

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
    run_instruction_reduction,
    run_table1,
)
from repro.bench.figures import Figure6Result
from repro.bench.harness import average
from repro.bench.reporting import (
    format_figure6,
    format_figure7,
    format_figure8,
    format_figure9,
    format_figure10,
    format_table1,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


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

    def test_suites_are_averaged_apart(self):
        # The paper's figures average its own applications; the
        # extensions (Workload.suite) get a line of their own.
        result = Figure6Result(
            speedups={"cp": 3.0, "Nbody": 2.0, "Bisect": 0.5}
        )
        assert result.average == 2.5
        assert result.extension_average == 0.5
        lines = format_figure6(result).splitlines()
        assert lines[-2].split()[:2] == ["AVERAGE", "2.50x"]
        assert lines[-1].split()[-1] == "0.50x"


class TestInstructionReductionDriver:
    def test_each_kernel_of_an_app_is_counted(self):
        # ScanLargeArray has two kernels: scanBlock's fraction must not
        # be overwritten by addOffsets'.
        result = run_instruction_reduction()
        fractions = result.invariant_fractions
        assert set(fractions) == {key for key, _ in result.reductions}
        assert fractions["ScanLargeArray:scanBlock"] == pytest.approx(6 / 31)
        assert fractions["ScanLargeArray:addOffsets"] == pytest.approx(
            13 / 19
        )


class TestDocsQuoteResults:
    # EXPERIMENTS.md quotes benchmarks/results/ verbatim; regenerating
    # one without the other is the drift these pin.
    def test_docs_state_the_app_count(self):
        # Each line of README.md and DESIGN.md that describes the suite
        # (it names the workloads package) states the registry's count:
        # the paper's 36, the extensions and the microbenchmark.
        from repro.workloads.registry import workload_names

        described = [
            line
            for doc in ("README.md", "DESIGN.md")
            for line in (ROOT / doc).read_text().splitlines()
            if "repro.workloads`" in line
            or line.startswith("src/repro/workloads ")
        ]
        assert len(described) == 4
        for line in described:
            (stated, *_) = re.findall(r"(\d+) app(?:lication)?s", line)
            assert int(stated) == len(workload_names()), line

    def test_experiments_table1_is_the_committed_result(self):
        table = (ROOT / "benchmarks/results/table1.txt").read_text()
        assert table.strip() in (ROOT / "EXPERIMENTS.md").read_text()

    @pytest.mark.parametrize(
        "name", ["figure6", "figure8", "figure10", "instruction_reduction"]
    )
    def test_experiments_quotes_the_averages(self, name):
        lines = (ROOT / f"benchmarks/results/{name}.txt").read_text()
        quoted = [
            line
            for line in lines.splitlines()[2:]
            if "AVERAGE" in line or name == "instruction_reduction"
        ]
        assert quoted
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for line in quoted:
            assert line in experiments, line
