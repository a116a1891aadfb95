"""Kernel launcher: partitions the grid across worker execution
managers (§3: "Kernel launches spawn a set of hardware threads, each
running a dynamic execution manager. The kernel's grid of CTAs is
statically partitioned across the set of execution managers").

The workers model the paper's four hardware threads. They are executed
sequentially here (CPython cannot run interpreters concurrently), but
each worker accumulates its own cycle count and the launch's elapsed
time is the maximum across workers — the quantity a wall clock would
measure on real hardware. Every worker's first window is opened before
any worker runs, so the batch rounds their loops would run first can
run as one (:meth:`KernelLauncher._opening_round`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ExecutionError, LaunchError
from ..machine.descriptor import MachineDescription
from ..machine.interpreter import Interpreter
from ..machine.memory import MemorySystem
from .config import ExecutionConfig
from .execution_manager import ExecutionManager, LaunchGeometry
from .statistics import LaunchStatistics
from .translation_cache import TranslationCache


Dim = Union[int, Tuple[int, ...]]


def _normalize_dim(which: str, value: Dim) -> Tuple[int, int, int]:
    """Launch dimension ``which`` as three ints >= 1: an int ``n`` is
    ``(n, 1, 1)``, up to three components are padded with 1s. Anything
    else (more axes; a bool, a float or a string character) is a
    :class:`LaunchError` naming the axis, not a different grid."""
    try:
        dims = tuple(value)
    except TypeError:
        dims = (value,)
    if len(dims) > 3:
        raise LaunchError(
            f"{which} has {len(dims)} dimensions {dims}; "
            f"launch dimensions are at most 3-D (x, y, z)"
        )
    dims += (1,) * (3 - len(dims))
    for axis, component in zip("xyz", dims):
        if isinstance(component, bool) or not isinstance(
            component, (int, np.integer)
        ):
            raise LaunchError(
                f"{which}.{axis} must be an int, got {component!r} "
                f"(in {which}={value!r})"
            )
        if component < 1:
            raise LaunchError(
                f"{which}.{axis} must be >= 1, got {component} "
                f"(in {which}={value!r})"
            )
    return tuple(int(component) for component in dims)


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    kernel_name: str
    geometry: LaunchGeometry
    statistics: LaunchStatistics
    clock_hz: float
    #: True when a durable session re-dispatched this launch after a
    #: worker loss + state restore (the caller never saw DeviceLost).
    restored: bool = False

    @property
    def elapsed_seconds(self) -> float:
        return self.statistics.elapsed_seconds(self.clock_hz)

    @property
    def gflops(self) -> float:
        return self.statistics.gflops(self.clock_hz)

    def __repr__(self):
        return (
            f"<LaunchResult {self.kernel_name} "
            f"{self.elapsed_seconds * 1e3:.3f} ms modeled>"
        )


class LaunchFuture:
    """The pending result of one asynchronous launch
    (``TenantSession.launch_async``).

    Resolves to the launch's :class:`LaunchResult`, or to the exception
    the synchronous path would have raised (a KernelTrap carries
    ``info`` for :func:`repro.format_trap` and partial
    ``statistics``)."""

    def __init__(self, kernel_name: str):
        self.kernel_name = kernel_name
        self._completed = threading.Event()
        self._result: Optional[LaunchResult] = None
        self._error: Optional[BaseException] = None

    # -- producer side (the pool's dispatcher) ----------------------------

    def _resolve(self, result: LaunchResult) -> None:
        self._result = result
        self._completed.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._completed.set()

    # -- consumer side ----------------------------------------------------

    def done(self) -> bool:
        """True once the launch has completed (successfully or not)."""
        return self._completed.is_set()

    def _wait(self, timeout: Optional[float]) -> None:
        if not self._completed.wait(timeout):
            raise LaunchError(
                f"timed out after {timeout}s waiting for async launch "
                f"of {self.kernel_name!r}"
            )

    def result(self, timeout: Optional[float] = None) -> LaunchResult:
        """Block until the launch completes; return its LaunchResult
        or re-raise the launch's exception."""
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """Block until the launch completes; return its exception (or
        None on success) without raising."""
        self._wait(timeout)
        return self._error

    def __repr__(self):
        if not self.done():
            state = "pending"
        elif self._error is not None:
            state = f"failed: {type(self._error).__name__}"
        else:
            state = "completed"
        return f"<LaunchFuture {self.kernel_name} {state}>"


def partition_ctas(cta_count: int, workers: int) -> List[List[int]]:
    """Contiguous static partition of CTA IDs across workers."""
    if workers < 1:
        raise LaunchError(f"invalid worker count {workers}")
    base = cta_count // workers
    extra = cta_count % workers
    partitions: List[List[int]] = []
    cursor = 0
    for worker in range(workers):
        size = base + (1 if worker < extra else 0)
        partitions.append(list(range(cursor, cursor + size)))
        cursor += size
    return partitions


class KernelLauncher:
    """Owns the per-worker execution managers and dispatches launches."""

    def __init__(
        self,
        machine: MachineDescription,
        memory: MemorySystem,
        interpreter: Interpreter,
        cache: TranslationCache,
        config: ExecutionConfig,
    ):
        self.machine = machine
        self.memory = memory
        self.interpreter = interpreter
        self.cache = cache
        self.config = config
        self.managers = [
            ExecutionManager(
                worker_id=worker,
                machine=machine,
                memory=memory,
                interpreter=interpreter,
                cache=cache,
                config=config,
            )
            for worker in range(machine.cores)
        ]

    def launch(
        self,
        kernel_name: str,
        grid: Tuple[int, int, int],
        block: Tuple[int, int, int],
        param_base: int,
    ) -> LaunchResult:
        geometry = LaunchGeometry(grid=grid, block=block)
        if geometry.cta_count < 1 or geometry.threads_per_cta < 1:
            raise LaunchError(
                f"empty launch: grid={grid} block={block}"
            )
        partitions = partition_ctas(
            geometry.cta_count, self.machine.cores
        )
        deadline = None
        if self.config.launch_timeout_s is not None:
            deadline = time.monotonic() + self.config.launch_timeout_s
        sanitizer = getattr(self.memory, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.begin_launch(kernel_name)
        cache_before = self.cache.statistics.snapshot()
        total = LaunchStatistics()
        ran = []
        try:
            opened = []
            for manager, cta_ids in zip(self.managers, partitions):
                if cta_ids:
                    manager.stats = LaunchStatistics()
                    window = manager.open(
                        kernel_name, geometry, cta_ids, param_base,
                        deadline=deadline,
                    )
                    opened.append((manager, cta_ids, window))
            self._opening_round(kernel_name, opened, param_base, deadline)
            for manager, cta_ids, window in opened:
                ran.append(manager)
                manager.run(window, cta_ids)
        except Exception as error:
            # Containment: every manager's pooled state is restored to
            # launch-ready and the partial launch statistics ride on
            # the exception.
            for survivor in self.managers:
                survivor.recover()
            try:
                error.statistics = total
            except (AttributeError, TypeError):  # pragma: no cover
                pass
            raise
        finally:
            # One tail for a launch that finished and one that faulted:
            # the faulting worker's partial statistics still count (they
            # carry the trap/watchdog tallies), as do the non-fatal
            # sanitizer findings gathered before the fault.
            for manager in ran:
                total.merge(manager.stats)
                total.worker_cycles[manager.worker_id] = (
                    manager.stats.total_cycles
                )
            total.cache = self.cache.statistics.delta(cache_before)
            meld = self.cache.meld_report(kernel_name)
            if meld is not None:  # melding is on and the kernel compiled
                total.melded_regions = meld.melded_regions
                total.meld_rejections = meld.rejected_regions
                total.meld_predicted_saving = meld.predicted_saving
            if sanitizer is not None:
                total.sanitizer = sanitizer.take_reports()
        return LaunchResult(
            kernel_name=kernel_name,
            geometry=geometry,
            statistics=total,
            clock_hz=self.machine.clock_hz,
        )

    def _opening_round(
        self, kernel_name: str, opened: list, param_base: int,
        deadline: Optional[float],
    ) -> None:
        """The opening round: the warps every opened window's loop would
        batch first (``ExecutionManager._opening``), in worker order,
        run through one ``execute_batch`` call and filed as pre-run
        entries of their keys; the workers then drain their windows in
        order, as if each had batched its own.

        A window takes part only while the entry holds its full credit
        (``_ArrayBlocks.merges``: a merged batch stops where any of its
        warps disagree). Admission is asked once: at full credit it
        refuses nothing and its record does not change, so it would
        admit each key. When it refuses or the batch faults, nothing is
        taken: each worker's loop batches its own keys."""
        batches = [
            (manager, window, warps)
            for manager, _, window in opened
            for warps in manager._opening(window)
        ]
        if not batches:
            return
        warps = [warp for _, _, group in batches for warp in group]
        executable = self.cache.resident(kernel_name, self.config.max_warp_size)
        if not executable.array_blocks.admits(warps[0].entry_point):
            return
        try:
            outcome = self.interpreter.execute_batch(
                executable, warps, param_base,
                self.interpreter.instruction_limit, deadline,
            )
        except ExecutionError:
            return
        position = 0
        for manager, window, group in batches:
            manager._file_batch(window, executable, group, outcome, position)
            position += len(group)
