"""Suite runner shared by every figure/table reproduction.

Figures 6-10 all consume the same three sweeps of the workload suite
(baseline scalar, dynamic vectorized, static+TIE), so the runner
executes each (workload, config) pair once and caches the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..runtime.config import (
    ExecutionConfig,
    baseline_config,
    static_tie_config,
    vectorized_config,
)
from ..runtime.statistics import LaunchStatistics
from ..workloads.base import Workload, WorkloadRun
from ..workloads.registry import all_workloads

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
    check: bool = True
    max_warp_size: int = 4
    #: run every config with the control-flow melding pass enabled
    #: (the --meld ablation axis of ``python -m repro.bench``)
    meld: bool = False
    _cache: Dict[tuple, WorkloadRun] = field(default_factory=dict)

    def config(self, label: str) -> ExecutionConfig:
        factory = _CONFIG_FACTORIES[label]
        if label == BASELINE:
            config = factory()
        else:
            config = factory(self.max_warp_size)
        if self.meld:
            config = replace(config, meld=True)
        return config

    def run(self, workload: Workload, label: str) -> WorkloadRun:
        key = (workload.name, label)
        cached = self._cache.get(key)
        if cached is None:
            cached = workload.run_on(
                self.config(label), scale=self.scale, check=self.check
            )
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

    def host_seconds(
        self, config: str = VECTORIZED
    ) -> Dict[str, float]:
        """Per-application host wall-clock seconds under ``config``
        (the real cost of each run, next to the modeled cycles)."""
        return {
            workload.name: self.run(workload, config).host_seconds
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

    def cache_statistics(self):
        """Translation-cache activity aggregated over every run this
        harness has executed (None before the first run). With the
        persistent tier enabled, disk hits show up here."""
        merged = LaunchStatistics()
        for run in self._cache.values():
            merged.merge(run.statistics)
        return merged.cache


def average(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)
