"""Reproduction drivers: one function per table/figure of §6.

Each returns a plain-data result object that the benchmark tests assert
shape properties on and the reporting module formats as text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..machine.descriptor import MachineDescription, sandybridge
from ..runtime.config import ExecutionConfig
from ..transforms.uniformity import count_thread_invariant_operands
from ..workloads.registry import all_workloads, get_workload
from . import paper_reference as paper
from .harness import (
    BASELINE,
    STATIC_TIE,
    VECTORIZED,
    SuiteRunner,
    application_workloads,
    average,
)

# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    gflops: Dict[int, float]
    peak: float
    paper_gflops: Dict[int, float] = field(
        default_factory=lambda: dict(paper.TABLE1_GFLOPS)
    )
    #: Host wall-clock seconds per configuration (the real cost of the
    #: run, next to the modeled GFLOP/s).
    host_seconds: Dict[int, float] = field(default_factory=dict)

    @property
    def fraction_of_peak(self) -> Dict[int, float]:
        return {
            ws: value / self.peak for ws, value in self.gflops.items()
        }


def run_table1(
    scale: float = 1.0,
    machine: MachineDescription = None,
    warp_sizes: Tuple[int, ...] = (1, 2, 4, 8),
) -> Table1Result:
    """Peak FP throughput of the microbenchmark per maximum warp size."""
    machine = machine or sandybridge()
    workload = get_workload("throughput")
    gflops: Dict[int, float] = {}
    host_seconds: Dict[int, float] = {}
    for max_ws in warp_sizes:
        sizes = tuple(s for s in (1, 2, 4, 8, 16) if s <= max_ws)
        config = ExecutionConfig(warp_sizes=sizes)
        run = workload.run_on(config, scale=scale, machine=machine)
        gflops[max_ws] = run.statistics.gflops(machine.clock_hz)
        host_seconds[max_ws] = run.host_seconds
    return Table1Result(
        gflops=gflops,
        peak=machine.peak_vector_gflops,
        host_seconds=host_seconds,
    )


# ---------------------------------------------------------------------------
# Figure 6 — speedup over scalar baseline
# ---------------------------------------------------------------------------


@dataclass
class Figure6Result:
    speedups: Dict[str, float]

    @property
    def average(self) -> float:
        return average(self.speedups.values())

    @property
    def best(self) -> Tuple[str, float]:
        name = max(self.speedups, key=self.speedups.get)
        return name, self.speedups[name]


def run_figure6(runner: SuiteRunner) -> Figure6Result:
    return Figure6Result(speedups=runner.speedups())


# ---------------------------------------------------------------------------
# Figure 7 — average warp size distribution
# ---------------------------------------------------------------------------


@dataclass
class Figure7Result:
    fractions: Dict[str, Dict[int, float]]
    averages: Dict[str, float]

    def dominant_warp_size(self, name: str) -> int:
        fractions = self.fractions[name]
        return max(fractions, key=fractions.get)


def run_figure7(runner: SuiteRunner) -> Figure7Result:
    return Figure7Result(
        fractions=runner.warp_size_fractions(),
        averages=runner.average_warp_sizes(),
    )


# ---------------------------------------------------------------------------
# Figure 8 — liveness at entry points
# ---------------------------------------------------------------------------


@dataclass
class Figure8Result:
    restored: Dict[str, float]

    @property
    def average(self) -> float:
        return average(self.restored.values())


def run_figure8(runner: SuiteRunner) -> Figure8Result:
    return Figure8Result(restored=runner.values_restored())


# ---------------------------------------------------------------------------
# Figure 9 — cycle fractions (EM / yield / subkernel)
# ---------------------------------------------------------------------------


@dataclass
class Figure9Result:
    fractions: Dict[str, Dict[str, float]]

    def kernel_fraction(self, name: str) -> float:
        return self.fractions[name]["kernel"]

    def em_fraction(self, name: str) -> float:
        return self.fractions[name]["em"]


def run_figure9(runner: SuiteRunner) -> Figure9Result:
    return Figure9Result(fractions=runner.cycle_fractions())


# ---------------------------------------------------------------------------
# Figure 10 — static warp formation + TIE over dynamic formation
# ---------------------------------------------------------------------------


@dataclass
class Figure10Result:
    #: static+TIE speedup relative to dynamic warp formation
    relative: Dict[str, float]
    #: static+TIE speedup relative to the scalar baseline
    absolute: Dict[str, float]

    @property
    def average_relative(self) -> float:
        return average(self.relative.values())


def run_figure10(runner: SuiteRunner) -> Figure10Result:
    return Figure10Result(
        relative=runner.speedups(over=VECTORIZED, config=STATIC_TIE),
        absolute=runner.speedups(over=BASELINE, config=STATIC_TIE),
    )


# ---------------------------------------------------------------------------
# §6.2 — static instruction reduction from thread-invariant elimination
# ---------------------------------------------------------------------------


@dataclass
class InstructionReductionResult:
    #: per (workload, warp size): 1 - tie_count / dynamic_count
    reductions: Dict[Tuple[str, int], float]
    #: fraction of registers proven thread-invariant per workload
    invariant_fractions: Dict[str, float]

    def average_reduction(self, warp_size: int) -> float:
        return average(
            value
            for (name, ws), value in self.reductions.items()
            if ws == warp_size
        )

    @property
    def average_invariant_fraction(self) -> float:
        return average(self.invariant_fractions.values())


def run_instruction_reduction(
    warp_sizes: Tuple[int, ...] = (2, 4)
) -> InstructionReductionResult:
    """Compare static instruction counts of specializations compiled
    with and without TIE (the §6.2 measurement)."""
    from ..api.device import Device
    from ..runtime.config import static_tie_config, vectorized_config

    reductions: Dict[Tuple[str, int], float] = {}
    invariant_fractions: Dict[str, float] = {}
    for workload in application_workloads():
        plain_device = Device(config=vectorized_config(max(warp_sizes)))
        tie_device = Device(config=static_tie_config(max(warp_sizes)))
        workload.prepare(plain_device)
        workload.prepare(tie_device)
        kernel_names = [
            kernel
            for module in plain_device.modules
            for kernel in module.kernels
        ]
        for kernel_name in kernel_names:
            scalar = plain_device.cache.scalar_ir(kernel_name)
            uniform, total = count_thread_invariant_operands(scalar)
            invariant_fractions[workload.name] = (
                uniform / total if total else 0.0
            )
            for warp_size in warp_sizes:
                plain = plain_device.cache.instruction_count(
                    kernel_name, warp_size
                )
                tie = tie_device.cache.instruction_count(
                    kernel_name, warp_size
                )
                reductions[(f"{workload.name}:{kernel_name}", warp_size)] = (
                    1.0 - tie / plain if plain else 0.0
                )
    return InstructionReductionResult(
        reductions=reductions, invariant_fractions=invariant_fractions
    )


# ---------------------------------------------------------------------------
# Control-flow melding ablation
# ---------------------------------------------------------------------------


@dataclass
class MeldAblationRow:
    """One divergent workload run with melding off and on."""

    workload: str
    cycles_off: int
    cycles_on: int
    divergent_yields_off: int
    divergent_yields_on: int
    melded_regions: int
    meld_rejections: int
    predicted_saving: float
    #: both runs passed the workload's reference check
    check_ok: bool

    @property
    def speedup(self) -> float:
        if self.cycles_on == 0:
            return 0.0
        return self.cycles_off / self.cycles_on

    @property
    def improved(self) -> bool:
        return (
            self.melded_regions > 0
            and self.cycles_on < self.cycles_off
            and self.check_ok
        )


@dataclass
class MeldAblationResult:
    rows: List[MeldAblationRow]
    #: "workload:kernel:block" of any decision the pass *melded*
    #: although the model predicted a loss (must stay empty: melding
    #: may never fire where the profitability model predicts a loss)
    mispredicted: List[str] = field(default_factory=list)

    @property
    def improved_count(self) -> int:
        return sum(1 for row in self.rows if row.improved)


def run_meld_ablation(
    scale: float = 1.0, max_warp_size: int = 4
) -> MeldAblationResult:
    """The --meld ablation axis: every divergent workload with the
    melding pass off vs on, plus an audit of every meld decision."""
    from dataclasses import replace

    from ..api.device import Device
    from ..runtime.config import vectorized_config
    from ..workloads.base import Category

    off_config = vectorized_config(max_warp_size)
    on_config = replace(off_config, meld=True)
    rows: List[MeldAblationRow] = []
    mispredicted: List[str] = []
    divergent = [
        workload
        for workload in all_workloads()
        if workload.category == Category.DIVERGENT
    ]
    for workload in divergent:
        off = workload.run_on(off_config, scale=scale, check=True)
        on = workload.run_on(on_config, scale=scale, check=True)
        rows.append(
            MeldAblationRow(
                workload=workload.name,
                cycles_off=off.elapsed_cycles,
                cycles_on=on.elapsed_cycles,
                divergent_yields_off=off.statistics.divergent_yields,
                divergent_yields_on=on.statistics.divergent_yields,
                melded_regions=on.statistics.melded_regions,
                meld_rejections=on.statistics.meld_rejections,
                predicted_saving=on.statistics.meld_predicted_saving,
                check_ok=bool(off.correct) and bool(on.correct),
            )
        )
        # Audit the per-kernel decisions: a melded region whose own
        # estimate predicts a loss is a profitability-model violation.
        device = Device(config=on_config)
        workload.prepare(device)
        for module in device.modules:
            for kernel_name in module.kernels:
                device.cache.scalar_ir(kernel_name)
                report = device.cache.meld_report(kernel_name)
                if report is None:
                    continue
                for decision in report.decisions:
                    if decision.melded and (
                        decision.est_melded_cycles
                        >= decision.est_divergent_cycles
                    ):
                        mispredicted.append(
                            f"{workload.name}:{kernel_name}:"
                            f"{decision.branch_block}"
                        )
    return MeldAblationResult(rows=rows, mispredicted=mispredicted)
