"""Benchmark harness regenerating every table and figure of §6.

``PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/perf``
runs each experiment, asserts its shape and writes its table to
``benchmarks/results/``.
"""

from .figures import (
    Figure6Result,
    Figure7Result,
    Figure8Result,
    Figure9Result,
    Figure10Result,
    InstructionReductionResult,
    Table1Result,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_instruction_reduction,
    run_table1,
)
from .harness import (
    BASELINE,
    STATIC_TIE,
    VECTORIZED,
    SuiteRunner,
    application_workloads,
)

__all__ = [
    "BASELINE",
    "Figure6Result",
    "Figure7Result",
    "Figure8Result",
    "Figure9Result",
    "Figure10Result",
    "InstructionReductionResult",
    "STATIC_TIE",
    "SuiteRunner",
    "Table1Result",
    "VECTORIZED",
    "application_workloads",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_instruction_reduction",
    "run_table1",
]
