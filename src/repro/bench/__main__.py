"""``python -m repro.bench`` — print the full reproduction report
(Table 1 + Figures 6-10 + the §6.2 instruction-count study)."""

from __future__ import annotations

import argparse
import sys
import time

from .figures import (
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_instruction_reduction,
    run_meld_ablation,
    run_table1,
)
from .harness import SuiteRunner
from .reporting import (
    format_cache_statistics,
    format_figure6,
    format_figure7,
    format_figure8,
    format_figure9,
    format_figure10,
    format_instruction_reduction,
    format_meld_ablation,
    format_table1,
    join_sections,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload size multiplier (default 1.0)",
    )
    parser.add_argument(
        "--only",
        choices=[
            "table1",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "instructions",
            "meld",
        ],
        default=None,
        help="regenerate a single experiment",
    )
    parser.add_argument(
        "--meld",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="run the figure sweeps with the control-flow melding "
        "pass enabled (--no-meld restores the default); the meld "
        "ablation section itself always compares both settings",
    )
    arguments = parser.parse_args(argv)

    start = time.time()
    sections = []
    failures = []
    wants = lambda name: arguments.only in (None, name)  # noqa: E731

    if wants("table1"):
        table1 = run_table1(scale=arguments.scale)
        sections.append(format_table1(table1))
    runner = None
    if any(
        wants(name)
        for name in ("figure6", "figure7", "figure8", "figure9",
                     "figure10")
    ):
        runner = SuiteRunner(scale=arguments.scale, meld=arguments.meld)
    if wants("figure6"):
        sections.append(format_figure6(run_figure6(runner)))
    if wants("figure7"):
        sections.append(format_figure7(run_figure7(runner)))
    if wants("figure8"):
        sections.append(format_figure8(run_figure8(runner)))
    if wants("figure9"):
        sections.append(format_figure9(run_figure9(runner)))
    if wants("figure10"):
        sections.append(format_figure10(run_figure10(runner)))
    if wants("instructions"):
        sections.append(
            format_instruction_reduction(run_instruction_reduction())
        )
    if wants("meld"):
        ablation = run_meld_ablation(scale=arguments.scale)
        sections.append(format_meld_ablation(ablation))
        if ablation.mispredicted:
            failures.append(
                f"melding fired against the profitability model on "
                f"{len(ablation.mispredicted)} region(s)"
            )
    if runner is not None:
        sections.append(
            format_cache_statistics(runner.cache_statistics())
        )

    print(join_sections(sections))
    print(f"\n[completed in {time.time() - start:.1f}s]")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
