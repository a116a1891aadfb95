"""Pass manager: ordered application of IR transforms with statistics.

The dynamic translation cache composes two pipelines (§5.1): once per
kernel, on the scalar IR, melding, CSE and DCE; then per specialization
request, vectorize and what it feeds (constant folding, block fusion),
then verify.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..ir.cfg import remove_unreachable_blocks
from ..ir.function import IRFunction
from ..ir.verifier import verify_function
from .block_merge import merge_blocks
from .constant_folding import fold_constants
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .vectorize import compute_entry_points


@dataclass
class PassResult:
    name: str
    changes: int
    seconds: float


@dataclass
class PassStatistics:
    """Accumulated record of every pass application."""

    results: List[PassResult] = field(default_factory=list)


class PassManager:
    """Runs named function passes in order, then (unless told not to)
    the verifier, timed like a pass of its own."""

    def __init__(self, verify: bool = True):
        self.verify = verify
        self.statistics = PassStatistics()
        self._passes: List[tuple] = []

    def add(
        self, name: str, function_pass: Callable[[IRFunction], int]
    ) -> "PassManager":
        self._passes.append((name, function_pass))
        return self

    def run(self, function: IRFunction) -> IRFunction:
        passes = self._passes
        if self.verify:
            passes = passes + [("verify", verify_function)]
        for name, function_pass in passes:
            start = time.perf_counter()
            changes = function_pass(function) or 0
            elapsed = time.perf_counter() - start
            self.statistics.results.append(
                PassResult(name=name, changes=changes, seconds=elapsed)
            )
        return function


def scalar_prepass_pipeline(config, machine) -> Optional[PassManager]:
    """Scalar-stage transforms the translation cache applies once per
    kernel, before entry points are assigned, so every width starts
    from the same control structure and clean code: melding (verified)
    when ``config.meld``, then CSE (carrying no expression into a
    resume entry point) and DCE when ``config.optimize``. ``None`` when
    neither is on."""
    from .melding import meld_function

    if not (config.meld or config.optimize):
        return None
    manager = PassManager(verify=config.meld)
    if config.meld:

        def run_meld(function: IRFunction) -> int:
            report = meld_function(function, machine, config.max_warp_size)
            return report.melded_regions

        manager.add("meld", run_meld)
    if config.optimize:
        manager.add("cse", lambda function: eliminate_common_subexpressions(
            function, compute_entry_points(function)
        ))
        manager.add("dce", eliminate_dead_code)
    return manager


def standard_cleanup_pipeline(verify: bool = True) -> PassManager:
    """The per-width pipeline the translation cache applies after
    vectorization: constant folding -> block fusion -> unreachable-block
    elimination."""
    manager = PassManager(verify=verify)
    manager.add("constant-folding", fold_constants)
    manager.add("block-merge", merge_blocks)
    manager.add("unreachable-elim", remove_unreachable_blocks)
    return manager

