"""Workload infrastructure.

Each workload models one application of the paper's evaluation suites
(CUDA SDK 2.2 / Parboil): it carries the PTX dialect source of its
kernels, generates deterministic inputs, launches through the public
:class:`~repro.api.device.Device` API, and verifies device results
against a NumPy host reference — so every benchmark run is also a
correctness check.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..api.device import Device
from ..runtime.config import ExecutionConfig
from ..runtime.launcher import LaunchResult
from ..runtime.statistics import LaunchStatistics


class Category:
    """Behavioural classes used to reason about expected speedups."""

    COMPUTE_UNIFORM = "compute-uniform"
    MEMORY_BOUND = "memory-bound"
    BARRIER_HEAVY = "barrier-heavy"
    DIVERGENT = "divergent"
    ATOMIC = "atomic"
    MICRO = "micro"


@dataclass
class WorkloadRun:
    """Outcome of one workload execution on one device config."""

    workload: str
    launches: List[LaunchResult] = field(default_factory=list)
    correct: bool = True
    checked: bool = False
    notes: str = ""
    #: Host wall-clock seconds of the whole execution (upload, compile,
    #: run, verify) — the *real* cost of the run, next to the modeled
    #: cycle counts. 0.0 when the run was not timed.
    host_seconds: float = 0.0

    @property
    def statistics(self) -> LaunchStatistics:
        """Merged statistics over all launches of the run."""
        merged = LaunchStatistics()
        for launch in self.launches:
            merged.merge(launch.statistics)
        return merged

    @property
    def elapsed_cycles(self) -> int:
        """Sequential launches: sum of per-launch elapsed cycles."""
        return sum(
            launch.statistics.elapsed_cycles for launch in self.launches
        )

    def elapsed_seconds(self, clock_hz: float) -> float:
        return self.elapsed_cycles / clock_hz


class Workload(abc.ABC):
    """One benchmark application."""

    #: Unique registry name (matches the paper's app naming).
    name: str = ""
    #: Behavioural class (see :class:`Category`).
    category: str = Category.COMPUTE_UNIFORM
    #: One-line description of what the app computes.
    description: str = ""
    #: ``"paper"`` for the applications the paper's figures are drawn
    #: over, ``"extension"`` for the ones added here to stress what
    #: those are light on (the paper's bounds are not claimed of them).
    suite: str = "paper"
    #: RNG seed for deterministic inputs.
    seed: int = 2012

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    @abc.abstractmethod
    def module_source(self) -> str:
        """PTX dialect source of the workload's kernels."""

    @abc.abstractmethod
    def execute(
        self, device: Device, scale: float = 1.0, check: bool = True
    ) -> WorkloadRun:
        """Upload inputs, launch kernels, verify, return the run."""

    # -- helpers for subclasses --------------------------------------------

    def prepare(self, device: Device) -> None:
        device.register_module(self.module_source())

    def run_on(
        self,
        config: ExecutionConfig,
        scale: float = 1.0,
        check: bool = True,
        machine=None,
    ) -> WorkloadRun:
        """Convenience: build a fresh device with ``config`` and run.
        The run is wall-clock timed (``WorkloadRun.host_seconds``)."""
        device = Device(machine=machine, config=config)
        self.prepare(device)
        start = time.perf_counter()
        run = self.execute(device, scale=scale, check=check)
        run.host_seconds = time.perf_counter() - start
        return run

    def _finish(
        self,
        launches: List[LaunchResult],
        correct: Optional[bool],
        check: bool,
        notes: str = "",
    ) -> WorkloadRun:
        run = WorkloadRun(
            workload=self.name,
            launches=launches,
            correct=bool(correct) if check else True,
            checked=check,
            notes=notes,
        )
        if check and not run.correct:
            raise AssertionError(
                f"workload {self.name} produced incorrect results"
                + (f" ({notes})" if notes else "")
            )
        return run


def grid_for(total_threads: int, block: int) -> int:
    """CTAs needed to cover ``total_threads`` with ``block`` threads."""
    return -(-total_threads // block)
