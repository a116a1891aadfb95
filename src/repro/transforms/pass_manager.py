"""Pass manager: ordered application of IR transforms with statistics.

The dynamic translation cache composes a pipeline per specialization
request (§5.1): vectorize, then the traditional cleanups (constant
folding, CSE, DCE, block fusion), then verify.
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


def scalar_prepass_pipeline(
    config, machine, verify: bool = True
) -> Optional[PassManager]:
    """Scalar-stage transforms the translation cache applies before
    entry points are assigned (so every width specialization sees the
    same control structure): control-flow melding. Returns ``None``
    when the config does not enable it."""
    from .melding import meld_function

    if not config.meld:
        return None

    def run_meld(function: IRFunction) -> int:
        report = meld_function(function, machine, config.max_warp_size)
        return report.melded_regions

    return PassManager(verify=verify).add("meld", run_meld)


def standard_cleanup_pipeline(verify: bool = True) -> PassManager:
    """The post-vectorization cleanup pipeline the translation cache
    applies (constant folding -> CSE -> DCE -> block fusion)."""
    manager = PassManager(verify=verify)
    manager.add("constant-folding", fold_constants)
    manager.add("cse", eliminate_common_subexpressions)
    manager.add("dce", eliminate_dead_code)
    manager.add("block-merge", merge_blocks)
    manager.add("unreachable-elim", remove_unreachable_blocks)
    return manager

