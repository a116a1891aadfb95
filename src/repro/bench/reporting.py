"""Text rendering of reproduction results (the rows/series the paper
reports), used by the benchmark suite and ``python -m repro.bench``."""

from __future__ import annotations

from typing import Iterable, Optional

from ..runtime.translation_cache import CacheStatistics
from . import paper_reference as paper
from .figures import (
    Figure6Result,
    Figure7Result,
    Figure8Result,
    Figure9Result,
    Figure10Result,
    InstructionReductionResult,
    MeldAblationResult,
    Table1Result,
)


def _rule(width: int = 72) -> str:
    return "-" * width


def format_table1(result: Table1Result) -> str:
    lines = [
        "Table 1: Peak floating-point throughput (GFLOP/s)",
        _rule(),
        f"{'Warp size':<12}" + "".join(
            f"{ws:>10}" for ws in sorted(result.gflops)
        ),
        f"{'measured':<12}" + "".join(
            f"{result.gflops[ws]:>10.1f}" for ws in sorted(result.gflops)
        ),
        f"{'paper':<12}" + "".join(
            f"{result.paper_gflops.get(ws, float('nan')):>10.1f}"
            for ws in sorted(result.gflops)
        ),
    ]
    if result.host_seconds:
        lines.append(
            f"{'host secs':<12}" + "".join(
                f"{result.host_seconds.get(ws, 0.0):>10.2f}"
                for ws in sorted(result.gflops)
            )
        )
    lines.append(
        f"machine peak: {result.peak:.1f} GFLOP/s "
        f"(paper estimate: {paper.TABLE1_PEAK:.1f})"
    )
    return "\n".join(lines)


def format_figure6(result: Figure6Result) -> str:
    lines = [
        "Figure 6: Speedup of vectorized execution over scalar baseline",
        _rule(),
    ]
    for name in sorted(result.speedups):
        marker = ""
        if name in paper.FIGURE6_KNOWN:
            marker = f"   (paper: {paper.FIGURE6_KNOWN[name]:.2f}x)"
        elif name in paper.FIGURE6_SLOWDOWNS:
            marker = "   (paper: slowdown)"
        lines.append(
            f"  {name:<26} {result.speedups[name]:>6.2f}x{marker}"
        )
    lines.append(
        f"  {'AVERAGE':<26} {result.average:>6.2f}x"
        f"   (paper: {paper.FIGURE6_AVERAGE:.2f}x)"
    )
    return "\n".join(lines)


def format_figure7(result: Figure7Result) -> str:
    lines = [
        "Figure 7: Average warp size (fraction of entries per size)",
        _rule(),
    ]
    for name in sorted(result.fractions):
        fractions = result.fractions[name]
        cells = " ".join(
            f"ws{size}:{fraction:5.1%}"
            for size, fraction in sorted(fractions.items())
        )
        lines.append(
            f"  {name:<26} avg={result.averages[name]:4.2f}  {cells}"
        )
    return "\n".join(lines)


def format_figure8(result: Figure8Result) -> str:
    lines = [
        "Figure 8: Average values restored per thread at entry points",
        _rule(),
    ]
    for name in sorted(result.restored):
        lines.append(f"  {name:<26} {result.restored[name]:>6.2f}")
    lines.append(
        f"  {'AVERAGE':<26} {result.average:>6.2f}"
        f"   (paper: {paper.FIGURE8_AVERAGE_RESTORED:.2f})"
    )
    return "\n".join(lines)


def format_figure9(result: Figure9Result) -> str:
    lines = [
        "Figure 9: Fraction of cycles in EM / yields / subkernel",
        _rule(),
    ]
    for name in sorted(result.fractions):
        fractions = result.fractions[name]
        lines.append(
            f"  {name:<26} em={fractions['em']:6.1%} "
            f"yield={fractions['yield']:6.1%} "
            f"kernel={fractions['kernel']:6.1%}"
        )
    return "\n".join(lines)


def format_figure10(result: Figure10Result) -> str:
    lines = [
        "Figure 10: Static warp formation + thread-invariant "
        "elimination over dynamic warp formation",
        _rule(),
    ]
    for name in sorted(result.relative):
        lines.append(
            f"  {name:<26} {result.relative[name]:>6.2f}x relative "
            f"({result.absolute[name]:>5.2f}x over scalar)"
        )
    lines.append(
        f"  {'AVERAGE':<26} {result.average_relative:>6.2f}x"
        f"   (paper: {paper.FIGURE10_AVERAGE_GAIN:.3f}x)"
    )
    return "\n".join(lines)


def format_instruction_reduction(
    result: InstructionReductionResult,
) -> str:
    lines = [
        "§6.2: Static instruction reduction from thread-invariant "
        "elimination",
        _rule(),
    ]
    for warp_size in (2, 4):
        measured = result.average_reduction(warp_size)
        expected = paper.TIE_INSTRUCTION_REDUCTION[warp_size]
        lines.append(
            f"  warp size {warp_size}: {measured:6.1%} fewer "
            f"instructions (paper: {expected:.1%})"
        )
    lines.append(
        f"  thread-invariant register fraction: "
        f"{result.average_invariant_fraction:6.1%} "
        f"(Collange et al.: ~{paper.THREAD_INVARIANT_OPERAND_FRACTION:.0%}"
        f" of operands)"
    )
    return "\n".join(lines)


def format_cache_statistics(
    stats: Optional[CacheStatistics],
    title: str = "Translation-cache activity",
    slowest: int = 8,
) -> str:
    """Render the cache counters, the time per pipeline stage and the
    slowest specializations (compile-time hot spots). Accepts ``None``
    (no launches yet)."""
    lines = [title, _rule()]
    if stats is None:
        lines.append("  (no cache activity recorded)")
        return "\n".join(lines)
    lines += [f"  {line}" for line in stats.report().splitlines()]
    if stats.stage_seconds:
        # Where the translation time went, in pipeline order, with what
        # each pass reported changing.
        lines.append("  stages:")
        for stage, seconds in stats.stage_seconds.items():
            changes = stats.stage_changes.get(stage)
            lines.append(
                f"    {stage:<28} {seconds * 1e3:11.2f} ms"
                + (f"  {changes} changes" if changes else "")
            )
    timed = sorted(
        stats.compile_seconds.items(), key=lambda item: -item[1]
    )[:slowest]
    for (kernel, warp_size), seconds in timed:
        if seconds <= 0.0:
            continue
        lines.append(
            f"    {kernel:<28} ws={warp_size}  {seconds * 1e3:7.2f} ms"
        )
    return "\n".join(lines)


def format_meld_ablation(result: MeldAblationResult) -> str:
    lines = [
        "Control-flow melding ablation (divergent suite, "
        "--no-meld vs --meld)",
        _rule(),
    ]
    for row in result.rows:
        check = "ok" if row.check_ok else "MISMATCH"
        lines.append(
            f"  {row.workload:<16} cycles "
            f"{row.cycles_off:>8} -> {row.cycles_on:>8} "
            f"({row.speedup:5.2f}x)  div-yields "
            f"{row.divergent_yields_off:>5} -> "
            f"{row.divergent_yields_on:>5}  "
            f"melded={row.melded_regions} "
            f"rejected={row.meld_rejections} check={check}"
        )
    lines.append(
        f"  improved {result.improved_count}/{len(result.rows)} "
        f"divergent workloads; melds against the model's prediction: "
        f"{len(result.mispredicted)}"
    )
    for entry in result.mispredicted:
        lines.append(f"  MISPREDICTED {entry}")
    return "\n".join(lines)


def join_sections(sections: Iterable[str]) -> str:
    return "\n\n".join(sections)
