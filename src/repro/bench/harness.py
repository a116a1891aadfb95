"""Suite runner shared by every figure/table reproduction.

Figures 6-10 all consume the same three sweeps of the workload suite
(baseline scalar, dynamic vectorized, static+TIE), so the runner
executes each (workload, config) pair once and caches the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..runtime.config import (
    ExecutionConfig,
    baseline_config,
    static_tie_config,
    vectorized_config,
)
from ..workloads.base import Workload, WorkloadRun
from ..workloads.registry import all_workloads, get_workload

#: Config labels used throughout the harness.
BASELINE = "baseline"
VECTORIZED = "vectorized"
STATIC_TIE = "static-tie"

_CONFIG_FACTORIES = {
    BASELINE: baseline_config,
    VECTORIZED: vectorized_config,
    STATIC_TIE: static_tie_config,
}


def application_workloads() -> List[Workload]:
    """The Figure 6-10 application set: the full suite minus the
    Table 1 microbenchmark."""
    return [w for w in all_workloads() if w.name != "throughput"]


@dataclass
class SuiteRunner:
    """Runs (and memoizes) every workload under the standard configs."""

    scale: float = 1.0
    _cache: Dict[tuple, WorkloadRun] = field(default_factory=dict)

    def config(self, label: str) -> ExecutionConfig:
        """The label's configuration, at max warp size 4."""
        return _CONFIG_FACTORIES[label]()

    def run(self, workload: Workload, label: str) -> WorkloadRun:
        key = (workload.name, label)
        cached = self._cache.get(key)
        if cached is None:
            cached = workload.run_on(self.config(label), scale=self.scale)
            self._cache[key] = cached
        return cached

    # -- per-metric sweeps -------------------------------------------------

    def speedups(
        self, over: str = BASELINE, config: str = VECTORIZED
    ) -> Dict[str, float]:
        """Per-application cycle speedup of ``config`` over ``over``."""
        result: Dict[str, float] = {}
        for workload in application_workloads():
            base = self.run(workload, over).elapsed_cycles
            test = self.run(workload, config).elapsed_cycles
            result[workload.name] = base / test if test else 0.0
        return result

    def warp_size_fractions(
        self, config: str = VECTORIZED
    ) -> Dict[str, Dict[int, float]]:
        result: Dict[str, Dict[int, float]] = {}
        for workload in application_workloads():
            run = self.run(workload, config)
            result[workload.name] = (
                run.statistics.warp_size_fractions()
            )
        return result

    def average_warp_sizes(
        self, config: str = VECTORIZED
    ) -> Dict[str, float]:
        return {
            workload.name: self.run(
                workload, config
            ).statistics.average_warp_size
            for workload in application_workloads()
        }

    def values_restored(
        self, config: str = VECTORIZED
    ) -> Dict[str, float]:
        return {
            workload.name: self.run(
                workload, config
            ).statistics.average_values_restored
            for workload in application_workloads()
        }

    def cycle_fractions(
        self, config: str = VECTORIZED
    ) -> Dict[str, Dict[str, float]]:
        return {
            workload.name: self.run(
                workload, config
            ).statistics.cycle_fractions()
            for workload in application_workloads()
        }


def average(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def suite_average(values: Dict[str, float], suite: str = "paper") -> float:
    """Mean of per-application ``values`` over one ``Workload.suite``:
    the paper's figures average its own applications, so the
    extensions are averaged apart."""
    return average(
        value
        for name, value in values.items()
        if get_workload(name).suite == suite
    )
