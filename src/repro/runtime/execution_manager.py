"""The dynamic execution manager (§3, §5.2).

One execution manager runs per worker thread. It owns the thread
contexts of its assigned CTAs, per-CTA shared memory and per-thread
local memory, a ready pool, and the warp former. The main loop:

1. pick a ready entry point (round-robin over the pool),
2. form the largest possible warp of threads waiting at that entry
   (dynamic formation; or a consecutive-``tid.x`` run under static
   formation),
3. query the translation cache for the matching specialization and
   execute it,
4. act on the warp's resume status: re-insert branching threads into
   the ready pool, park barrier threads in their CTA's barrier pool
   (releasing the pool when every live CTA thread has arrived), and
   discard exited threads.

This iterates until all threads of the window have terminated (§3:
"This process iterates until all threads have terminated").

Fault containment: any :class:`~repro.errors.ExecutionError` escaping a
warp execution is caught here — the warp-execution boundary — and
re-raised as a structured :class:`~repro.errors.KernelTrap` built by
:mod:`repro.runtime.traps`. The watchdog (``max_kernel_cycles`` /
``launch_timeout_s``) is enforced here too, both between warps and —
via the interpreter's per-warp instruction cap and wall-clock deadline
— inside warps that never yield.
"""

from __future__ import annotations

import sys
import time
from collections import OrderedDict, deque
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import (
    BarrierDeadlock,
    DeadlineExceeded,
    ExecutionError,
    InstructionLimitExceeded,
    LaunchError,
)
from ..ir.instructions import ResumeStatus
from ..machine.array_backend import MIN_BATCH_WARPS
from ..machine.descriptor import MachineDescription
from ..machine.interpreter import (
    ExecutionStats,
    Interpreter,
    frames_fit,
    guest_errstate,
)
from ..machine.memory import MemorySystem
from .config import ExecutionConfig
from .context import ThreadContext, Warp
from .statistics import LaunchStatistics
from .translation_cache import TranslationCache
from .traps import ProgramPoint, build_timeout, build_trap


#: A batch floor no ready pool reaches: the window does not batch.
_NEVER = sys.maxsize


@dataclass(frozen=True)
class LaunchGeometry:
    """Grid and block dimensions of one kernel launch."""

    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]

    @property
    def threads_per_cta(self) -> int:
        return self.block[0] * self.block[1] * self.block[2]

    @property
    def cta_count(self) -> int:
        return self.grid[0] * self.grid[1] * self.grid[2]

    @property
    def total_threads(self) -> int:
        return self.threads_per_cta * self.cta_count

    def cta_coordinates(self, linear: int) -> Tuple[int, int, int]:
        gx, gy, _ = self.grid
        x = linear % gx
        y = (linear // gx) % gy
        z = linear // (gx * gy)
        return (x, y, z)

    def thread_coordinates(self, linear: int) -> Tuple[int, int, int]:
        bx, by, _ = self.block
        x = linear % bx
        y = (linear // bx) % by
        z = linear // (bx * by)
        return (x, y, z)


class _ReadyPool:
    """Ready threads grouped by formation key, visited round-robin.

    The key is the entry point (plus the CTA, unless cross-CTA warps
    are allowed): §5.2's "largest warp possible from other ready
    threads with the same entry point". A key's queue may begin with
    *pre-run* entries, ``(warp, executable, restored, continuation,
    outcome)``: warps a batch formed from the key's first threads and
    already ran, whose yield is still to be handled. Arrivals only
    append, so handing them out first, one per visit, hands each out
    exactly when the sequential former would have formed it. No key's
    queue is ever left empty.
    """

    def __init__(self, cross_cta: bool = False):
        self._queues: "OrderedDict[tuple, deque]" = OrderedDict()
        self._cross_cta = cross_cta
        #: threads queued, a pre-run warp's included
        self.size = 0

    def _advance(self, key: tuple, queue: deque) -> None:
        """Round-robin: the visited key moves to the back, or goes
        when its queue is empty."""
        if queue:
            self._queues.move_to_end(key)
        else:
            del self._queues[key]

    def push(self, context: ThreadContext) -> None:
        key = (
            (context.resume_point,)
            if self._cross_cta
            else (context.resume_point, context.linear_ctaid)
        )
        queue = self._queues.get(key)
        if queue is None:
            queue = deque()
            self._queues[key] = queue
        queue.append(context)
        self.size += 1

    def pop_ran(self) -> Optional[tuple]:
        """The head key's first entry when it is pre-run — taken, the
        round-robin advanced as :meth:`pop_group` advances it — else
        None. Asked first on every visit (the pool is not empty)."""
        queue = next(iter(self._queues.values()))
        entry = queue[0]
        if entry.__class__ is not tuple:
            return None
        queue.popleft()
        self.size -= entry[0].size
        self._advance(next(iter(self._queues)), queue)
        return entry

    def head_batch(self, floor: int) -> Optional[deque]:
        """The head key's queue, nothing taken, when at least ``floor``
        threads wait there (the size rule: below it a batch costs more
        than the warps it replaces), else None. Asked after
        :meth:`pop_ran`, so the queue holds threads only."""
        queue = next(iter(self._queues.values()))
        return queue if len(queue) >= floor else None

    def take_batch(self, threads: int, entries: List[tuple]) -> None:
        """A batch ran the head key's first ``threads`` threads: they
        leave, ``entries`` — its warps but the first, pre-run — take
        their place at the front, and the round-robin advances one
        step, as if the first warp had just been popped."""
        key, queue = next(iter(self._queues.items()))
        for _ in range(threads):
            queue.popleft()
        queue.extendleft(reversed(entries))
        self.size -= threads - sum(entry[0].size for entry in entries)
        self._advance(key, queue)

    def pop_group(self, limit: int) -> List[ThreadContext]:
        """Take up to ``limit`` threads waiting at the next entry point
        in round-robin order (asked after :meth:`pop_ran`)."""
        key, queue = next(iter(self._queues.items()))
        members = [queue.popleft() for _ in range(min(limit, len(queue)))]
        self.size -= len(members)
        self._advance(key, queue)
        return members

    def contexts(self) -> Iterator[ThreadContext]:
        """All queued contexts in queue order, a pre-run warp's in its
        place (for watchdog/deadlock reports)."""
        for queue in self._queues.values():
            for entry in queue:
                if entry.__class__ is tuple:
                    yield from entry[0].contexts
                else:
                    yield entry

    def __bool__(self):
        return self.size > 0


@dataclass
class _Window:
    """What the warp executions of one window of CTAs share."""

    kernel_name: str
    geometry: LaunchGeometry
    param_base: int
    #: entry-point ID -> block label (for watchdog/deadlock reports)
    entry_labels: Dict[int, str]
    ready: _ReadyPool
    #: per CTA: threads not yet exited / threads parked at the barrier
    live_counts: Dict[int, int]
    barrier_pools: Dict[int, List[ThreadContext]]
    #: a cycle budget or a deadline is set: the watchdog is asked after
    #: every warp (and not at all otherwise)
    watched: bool


class ExecutionManager:
    """Orchestrates the threads of the CTAs assigned to one worker."""

    def __init__(
        self,
        worker_id: int,
        machine: MachineDescription,
        memory: MemorySystem,
        interpreter: Interpreter,
        cache: TranslationCache,
        config: ExecutionConfig,
    ):
        self.worker_id = worker_id
        self.machine = machine
        self.memory = memory
        self.interpreter = interpreter
        self.cache = cache
        self.config = config
        self.stats = LaunchStatistics()
        #: Optional callable receiving (event, payload) tuples:
        #: ("warp", ...), ("yield", ...), ("barrier_release", ...).
        #: Set through KernelLauncher.trace; None disables tracing.
        self.trace = None
        self._warp_counter = 0
        self._max_warp_size = config.max_warp_size
        #: Pooled warp-execution state: one register file + statistics
        #: instance reused by every warp this manager runs.
        self._warp_state = interpreter.new_state()
        self._shared_slabs: List[int] = []
        self._shared_slab_bytes = 0
        self._local_slab: Optional[int] = None
        self._local_slab_bytes = 0
        #: Watchdog state of the current launch (installed by run()).
        self._cycle_budget: Optional[int] = None
        self._deadline: Optional[float] = None

    # -- public --------------------------------------------------------------

    def run(
        self,
        kernel_name: str,
        geometry: LaunchGeometry,
        cta_ids: List[int],
        param_base: int,
        deadline: Optional[float] = None,
    ) -> LaunchStatistics:
        """Execute the assigned CTAs to completion.

        ``deadline`` is an absolute ``time.monotonic`` value installed
        by the launcher when ``launch_timeout_s`` is configured; it is
        shared by all workers of one launch."""
        self._cycle_budget = self.config.max_kernel_cycles
        self._deadline = deadline
        kernel = self.cache.kernel(kernel_name)
        local_bytes = self.cache.scalar_ir(kernel_name).frame_bytes
        shared_bytes = -(-max(kernel.shared_size, 1) // 16) * 16
        window = max(1, self.config.cta_window)
        sanitizer = self.memory.sanitizer
        # Checked execution separates the per-thread local segments
        # with interior redzones so a thread overrunning its local
        # frame faults instead of corrupting its neighbour's spills.
        pad = (
            sanitizer.REDZONE_BYTES
            if sanitizer is not None and local_bytes
            else 0
        )
        local_stride = local_bytes + pad
        self._reserve_slabs(
            window, shared_bytes, local_stride, geometry.threads_per_cta
        )
        if sanitizer is not None:
            for slab in self._shared_slabs:
                sanitizer.shadow.resegment(
                    slab, shared_bytes, self._shared_slab_bytes
                )
            if local_bytes:
                sanitizer.shadow.resegment(
                    self._local_slab, local_bytes, local_stride
                )
        # What no warp of this run can change is settled here, not per
        # warp: the watchdog's limits, that every local frame the slab
        # holds fits (frames_fit: its extremes decide), and — unless a
        # trace callback runs between warps (it may do anything, in
        # the host's numpy error state) — the guest error state and
        # the inline access template. Checked access stays per warp: a
        # sanitizer report is host code, an injector may disarm itself.
        state = self._warp_state
        state.deadline = deadline
        state.limit = self.interpreter.instruction_limit
        frames = geometry.threads_per_cta * min(window, len(cta_ids))
        state.access = self.interpreter.access(frames_fit(
            local_bytes, self._local_slab, local_stride, frames, self.memory.size
        ))
        state.scoped = self.trace is None and state.access == "inline"
        try:
            with guest_errstate() if state.scoped else nullcontext():
                for start in range(0, len(cta_ids), window):
                    self._run_window(
                        kernel_name,
                        geometry,
                        cta_ids[start : start + window],
                        param_base,
                        shared_bytes,
                        local_stride,
                    )
        finally:
            state.scoped = False
        return self.stats

    def recover(self) -> None:
        """Restore launch-ready invariants after a contained fault.

        The pooled warp state is replaced (its register file may hold
        the faulted warp's values) and the watchdog disarmed. Reserved
        shared/local slabs are deliberately kept: they are reset per
        window by :meth:`_run_window`, and keeping them means a
        trap-then-relaunch sequence does not grow the arena."""
        self._warp_state = self.interpreter.new_state()
        self._cycle_budget = None
        self._deadline = None

    # -- memory slabs ----------------------------------------------------

    def _reserve_slabs(
        self,
        window: int,
        shared_bytes: int,
        local_stride: int,
        threads_per_cta: int,
    ) -> None:
        """Reuse previously reserved shared/local slabs across launches.

        When a kernel needs wider slabs the old ones are returned to
        the arena before reallocating; when it only needs *more* slabs
        the existing ones are kept and the shortfall appended — so
        repeated launches never grow the arena unboundedly.
        ``local_stride`` is the per-thread local footprint including
        any sanitizer redzone padding between threads."""
        if shared_bytes > self._shared_slab_bytes:
            for slab in self._shared_slabs:
                self.memory.free(slab, self._shared_slab_bytes)
            self._shared_slabs = []
            self._shared_slab_bytes = shared_bytes
        while len(self._shared_slabs) < window:
            self._shared_slabs.append(
                self.memory.allocate(
                    self._shared_slab_bytes,
                    kind="shared",
                    label=f"worker {self.worker_id} shared slab "
                    f"{len(self._shared_slabs)}",
                )
            )
        total_local = max(local_stride * threads_per_cta * window, 16)
        if self._local_slab is None or self._local_slab_bytes < total_local:
            if self._local_slab is not None:
                self.memory.free(self._local_slab, self._local_slab_bytes)
            self._local_slab = self.memory.allocate(
                total_local,
                kind="local",
                label=f"worker {self.worker_id} local slab",
            )
            self._local_slab_bytes = total_local

    # -- one window of CTAs ------------------------------------------------

    def _run_window(
        self,
        kernel_name: str,
        geometry: LaunchGeometry,
        cta_ids: List[int],
        param_base: int,
        shared_bytes: int,
        local_stride: int,
    ) -> None:
        ready = _ReadyPool(cross_cta=self.config.allow_cross_cta_warps)
        live_counts: Dict[int, int] = {}
        barrier_pools: Dict[int, List[ThreadContext]] = {}
        threads_per_cta = geometry.threads_per_cta

        # Clear only the regions this window will actually use (the
        # slabs may be larger than the kernel's footprint and reserved
        # for a wider window): shared memory starts zeroed per CTA,
        # local memory per live thread.
        for slab in self._shared_slabs[: len(cta_ids)]:
            self.memory.fill(slab, shared_bytes, 0)
        live_local = local_stride * threads_per_cta * len(cta_ids)
        if live_local:
            self.memory.fill(self._local_slab, live_local, 0)

        local_cursor = self._local_slab
        tids = list(map(geometry.thread_coordinates, range(threads_per_cta)))
        for slot, cta_linear in enumerate(cta_ids):
            ctaid = geometry.cta_coordinates(cta_linear)
            shared_base = self._shared_slabs[slot]
            live_counts[cta_linear] = threads_per_cta
            barrier_pools[cta_linear] = []
            for tid in tids:
                context = ThreadContext(
                    tid=tid,
                    ntid=geometry.block,
                    ctaid=ctaid,
                    nctaid=geometry.grid,
                    shared_base=shared_base,
                    local_base=local_cursor,
                    resume_point=0,
                    linear_ctaid=cta_linear,
                )
                local_cursor += local_stride
                ready.push(context)
        self.stats.threads_launched += threads_per_cta * len(cta_ids)

        entry_labels = self.cache.scalar_ir(kernel_name).entry_points
        window = _Window(
            kernel_name,
            geometry,
            param_base,
            entry_labels,
            ready,
            live_counts,
            barrier_pools,
            self._cycle_budget is not None or self._deadline is not None,
        )
        # Whether the window may batch is asked once, here: when it may
        # not, the floor of the size rule is one no key reaches. Each
        # visit asks the head entry first: a warp a batch already ran
        # has its yield handled at the turn it would have been formed.
        batchable = self._batchable(kernel_name)
        floor = (
            _NEVER if batchable is None
            else MIN_BATCH_WARPS * self._max_warp_size
        )
        while ready.size:
            ran = ready.pop_ran()
            if ran is not None:
                self._run_warp(window, *ran)
                continue
            # (no key holds ``floor`` threads unless the pool does)
            if ready.size >= floor and self._execute_batch_round(
                window, batchable
            ):
                continue
            warp = self._form_warp(kernel_name, ready)
            size = len(warp.contexts)
            executable, width = self.cache.get_or_degrade(kernel_name, size)
            if width < size:
                # The wider build failed and was degraded mid-launch:
                # shrink to the width that did build and re-queue the
                # excess threads for later (narrower) warps. Formation
                # now skips a width, which a batch's full-width chunks
                # would not: none is formed for the rest of the window
                # (pre-run warps still drain at their turns).
                self.stats.degraded_warps += 1
                floor = _NEVER
                for extra in warp.contexts[width:]:
                    ready.push(extra)
                warp = Warp(
                    contexts=warp.contexts[:width], warp_id=warp.warp_id
                )
            restored = executable.function.restore_counts.get(
                warp.entry_point, 0
            )
            self._run_warp(window, warp, executable, restored)

        leftovers = {
            cta: waiting
            for cta, waiting in barrier_pools.items()
            if waiting
        }
        if leftovers:
            points = [
                ProgramPoint(
                    ctaid=context.ctaid,
                    tid=context.tid,
                    entry_point=context.resume_point,
                    label=entry_labels.get(context.resume_point),
                    state="barrier",
                )
                for waiting in leftovers.values()
                for context in waiting
            ]
            listed = "; ".join(str(point) for point in points[:16])
            suffix = (
                f"; ... +{len(points) - 16} more" if len(points) > 16 else ""
            )
            raise BarrierDeadlock(
                f"barrier deadlock in {kernel_name!r}: {len(points)} "
                f"thread(s) of CTA(s) {sorted(leftovers)} wait at a "
                f"barrier that can never be released: {listed}{suffix}",
                waiting=points,
            )

    # -- warp execution (the fault-containment boundary) ---------------------

    def _run_warp(
        self,
        window: _Window,
        warp: Warp,
        executable,
        restored: int,
        continuation=None,
        batch=None,
    ) -> None:
        """One warp execution, accounted: its entry and the execution
        manager's charge for it (before it runs, so a launch that traps
        part-way has counted the warps that ran), what it executed, its
        yield and the scheduling consequences of that; then, in a
        ``watched`` window, the watchdog. The warp runs here, unless a
        ``batch`` already ran it to its yield (its outcome is passed);
        one that a batch left mid-kernel resumes from its
        ``continuation``."""
        stats = self.stats
        size = warp.size
        stats.warp_executions += 1
        histogram = stats.warp_size_histogram
        histogram[size] = histogram.get(size, 0) + 1
        stats.thread_entries += size
        stats.values_restored += restored * size
        stats.em_cycles += (
            self.machine.em_event_cost
            + self.machine.em_per_thread_cost * size
        )
        trace = self.trace
        if trace is not None:
            trace(
                "warp",
                {
                    "worker": self.worker_id,
                    "warp_id": warp.warp_id,
                    "size": size,
                    "entry": warp.entry_point,
                    "kernel": window.kernel_name,
                },
            )
        if batch is None or continuation is not None:
            status = self._execute_warp(
                window, warp, executable, continuation
            )
            execution = self._warp_state.stats
        else:
            status, execution = batch.status, batch.stats
        # (the inherited merge: a launch record is an execution record
        # and more)
        ExecutionStats.merge(stats, execution)
        yields = stats.yields_by_status
        yields[status] = yields.get(status, 0) + 1
        if trace is not None:
            trace(
                "yield",
                {
                    "worker": self.worker_id,
                    "warp_id": warp.warp_id,
                    "status": ResumeStatus.NAMES.get(status, status),
                },
            )
        self._handle_yield(window, status, warp)
        if window.watched:
            self._check_watchdog(window)

    def _execute_warp(
        self, window: _Window, warp: Warp, executable, continuation=None
    ) -> int:
        """Run one warp with the watchdog armed; any escaping
        ExecutionError is re-raised as a structured KernelTrap (or a
        LaunchTimeout when the watchdog fired). ``continuation``
        resumes a warp mid-kernel where the array backend's batch
        runner left it."""
        state = self._warp_state
        budget_clamped = False
        if self._cycle_budget is not None:
            # Every kernel instruction costs at least one modeled
            # cycle, so the remaining cycle budget bounds the
            # instruction cap of a warp that never yields.
            state.limit = self.interpreter.instruction_limit
            remaining = self._cycle_budget - self.stats.total_cycles
            if remaining < state.limit:
                state.limit = max(remaining, 1)
                budget_clamped = True
        try:
            return self.interpreter.execute(
                executable,
                warp,
                window.param_base,
                state=state,
                continuation=continuation,
            )
        except ExecutionError as fault:
            # The partial counters of the faulted warp still count.
            ExecutionStats.merge(self.stats, state.stats)
            deadline = isinstance(fault, DeadlineExceeded)
            if deadline or (
                budget_clamped and isinstance(fault, InstructionLimitExceeded)
            ):
                raise self._timeout(window, deadline, warp) from fault
            # A guest fault — or the interpreter's own global runaway
            # cap firing with no cycle budget configured: a trap.
            self.stats.traps += 1
            raise build_trap(
                window.kernel_name,
                window.geometry,
                warp,
                executable,
                state,
                fault,
                self.worker_id,
            ) from fault

    # -- batched execution ---------------------------------------------------

    def _batchable(self, kernel_name: str):
        """The maximal-width executable whose warps this window may
        batch, or None when the batched path cannot reproduce the
        sequential one exactly: static formation, cross-CTA formation
        (a batch keeps each warp's barrier and exit bookkeeping inside
        one CTA), a trace callback or a patched guest-access seam or a
        sanitized device (not ``scoped``), a cycle budget (whose
        per-warp clamp is inherently sequential), an instance-patched
        ``execute`` (a fault injector), a degraded width, no
        maximal-width executable in the cache yet, or none with an
        array lowering (the reference oracle, a sanitized device,
        atomics). None of these changes while a window runs, except a
        width degrading, which the loop sees where it counts the
        degraded warp."""
        if (
            self.config.static_warps
            or self.config.allow_cross_cta_warps
            or not self._warp_state.scoped
            or self._cycle_budget is not None
            or "execute" in self.interpreter.__dict__
            or self.cache.degraded_widths(kernel_name)
        ):
            return None
        executable = self.cache.resident(kernel_name, self._max_warp_size)
        if executable is None or executable.array_blocks is None:
            return None
        return executable

    def _execute_batch_round(self, window: _Window, executable) -> bool:
        """One batched round: form every full maximal-width warp of the
        head ready-pool key and run them all at once through the array
        lowering of ``executable`` (:meth:`_batchable`).

        The warps are the ones :meth:`_ReadyPool.pop_group` would form
        across its visits to the key (arrivals only append, so the
        memberships do not depend on the interleaving). The batch runs
        what they compute; their yield handling — the order-sensitive
        part, where THREAD_BRANCH arrivals and barrier parks reshape
        downstream queues — is the first warp's now, in place of the
        pop this round replaces, and the others' at the turns the
        sequential former would have formed them: they go back to the
        front of the key's queue, pre-run.

        Returns False, having taken nothing, when fewer than
        ``MIN_BATCH_WARPS`` full warps wait at the head key, when the
        record of past batches refuses its entry point
        (``_ArrayBlocks.admits``; neither looks anything up) or when
        the batch faults; the caller then forms one warp. After a
        fault the sequential path re-runs the same threads in the same
        formation, so the trap carries the thread attribution, register
        snapshot and partial statistics sequential execution gives.
        (Stores the batch committed before the fault persist — a
        trapped launch's memory is partial either way.) Both rules
        read modeled state only — a queue length, batch outcomes — so
        which warps batch is a function of the launch history."""
        kernel_name = window.kernel_name
        limit = self._max_warp_size
        queue = window.ready.head_batch(MIN_BATCH_WARPS * limit)
        if queue is None:
            return False
        entry_point = queue[0].resume_point
        if not executable.array_blocks.admits(entry_point):
            return False
        threads = iter(queue)
        warps = []
        for _ in range(len(queue) // limit):
            # One cache access per warp, as the sequential path makes.
            self.cache.get_or_degrade(kernel_name, limit)
            warps.append(Warp(
                contexts=list(islice(threads, limit)),
                warp_id=self._warp_counter,
            ))
            self._warp_counter += 1
        try:
            outcome = self.interpreter.execute_batch(
                executable,
                warps,
                window.param_base,
                self.interpreter.instruction_limit,
                self._deadline,
            )
        except ExecutionError:
            return False
        self.stats.batched_warps += len(warps)
        if outcome.kind != "yield":
            self.stats.batch_fallbacks += len(warps)
        # A warp of a batch that stopped short of a yield (divergence,
        # a precise/untranslated block, a conservative limit/deadline
        # exit) carries a continuation: it resumes on the sequential
        # path exactly where the array program left it, at its turn.
        # The key is the entry point, so one restore count serves all.
        restored = executable.function.restore_counts.get(entry_point, 0)
        entries = [
            (warp, executable, restored, continuation, outcome)
            for warp, continuation in zip(
                warps, outcome.continuations or [None] * len(warps)
            )
        ]
        window.ready.take_batch(limit * len(warps), entries[1:])
        self._run_warp(window, *entries[0])
        return True

    # -- watchdog ------------------------------------------------------------

    def _check_watchdog(self, window: _Window) -> None:
        """Between-warp watchdog: terminate the launch when the modeled
        cycle budget or the wall-clock deadline has been exhausted and
        threads are still live."""
        if not window.ready and not any(window.barrier_pools.values()):
            return
        if (
            self._cycle_budget is not None
            and self.stats.total_cycles >= self._cycle_budget
        ):
            raise self._timeout(window, False)
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise self._timeout(window, True)

    def _timeout(self, window: _Window, deadline: bool, running=None):
        """The counted LaunchTimeout of an expired wall-clock
        ``deadline`` (else: modeled cycle budget), listing every live
        thread (``running``: the warp it interrupted)."""
        self.stats.watchdog_timeouts += 1
        reason = (
            f"wall-clock deadline of {self.config.launch_timeout_s}s"
            if deadline
            else f"modeled cycle budget of {self._cycle_budget} cycles"
        ) + " exceeded"
        return build_timeout(
            window.kernel_name, reason, self._program_points(window, running)
        )

    def _program_points(
        self, window: _Window, running: Optional[Warp] = None
    ) -> List[ProgramPoint]:
        """Every live thread's program point, for watchdog reports."""
        points: List[ProgramPoint] = []

        def _collect(contexts, state):
            for context in contexts:
                points.append(
                    ProgramPoint(
                        ctaid=context.ctaid,
                        tid=context.tid,
                        entry_point=context.resume_point,
                        label=window.entry_labels.get(context.resume_point),
                        state=state,
                    )
                )

        if running is not None:
            _collect(running.contexts, "running")
        _collect(window.ready.contexts(), "ready")
        for waiting in window.barrier_pools.values():
            _collect(waiting, "barrier")
        return points

    # -- warp formation ------------------------------------------------------

    def _form_warp(self, kernel_name: str, ready: _ReadyPool) -> Warp:
        limit = self._max_warp_size
        degraded = self.cache.degraded_widths(kernel_name)
        if self.config.static_warps:
            members = self._form_static(ready, limit, degraded)
        else:
            members = ready.pop_group(limit)
            if degraded or len(members) < limit:  # else: the widest fits
                size = self._choose_width(len(members), degraded)
                for extra in members[size:]:
                    ready.push(extra)
                del members[size:]
        warp = Warp(contexts=members, warp_id=self._warp_counter)
        self._warp_counter += 1
        return warp

    def _choose_width(self, available: int, degraded) -> int:
        """Formation-time width query, skipping degraded widths (and
        counting the warp as degraded when that changed the answer)."""
        size = self.cache.specialization_for(available, exclude=degraded)
        if degraded and size < self.cache.specialization_for(available):
            self.stats.degraded_warps += 1
        return size

    def _form_static(
        self, ready: _ReadyPool, limit: int, degraded=frozenset()
    ) -> List[ThreadContext]:
        """Static warp formation: a run of consecutively indexed
        ``tid.x`` threads from one CTA row (§6.2)."""
        group = ready.pop_group(limit * 4)
        anchor = group[0]
        window_base = (anchor.tid[0] // limit) * limit
        rest: List[ThreadContext] = []
        by_x: Dict[int, ThreadContext] = {anchor.tid[0]: anchor}
        for candidate in group[1:]:
            same_row = (
                candidate.ctaid == anchor.ctaid
                and candidate.tid[1] == anchor.tid[1]
                and candidate.tid[2] == anchor.tid[2]
                and window_base
                <= candidate.tid[0]
                < window_base + limit
            )
            if same_row and candidate.tid[0] not in by_x:
                by_x[candidate.tid[0]] = candidate
            else:
                rest.append(candidate)
        # The pool order after divergent re-entry is arbitrary, so the
        # FIFO anchor need not be the lowest thread of its aligned
        # window: the run starts at the lowest present tid.x, not at
        # the anchor, or re-formation builds sub-maximal warps.
        run: List[ThreadContext] = []
        next_x = min(by_x)
        while next_x in by_x and len(run) < limit:
            run.append(by_x.pop(next_x))
            next_x += 1
        rest.extend(by_x.values())
        size = self._choose_width(len(run), degraded)
        members = run[:size]
        for extra in run[size:]:
            ready.push(extra)
        for extra in rest:
            ready.push(extra)
        return members

    # -- yield handling ------------------------------------------------------

    def _handle_yield(self, window: _Window, status: int, warp: Warp) -> None:
        if status == ResumeStatus.THREAD_BRANCH:
            push = window.ready.push
            for context in warp.contexts:
                push(context)
            return
        if status == ResumeStatus.THREAD_EXIT:
            for context in warp.contexts:
                window.live_counts[context.linear_ctaid] -= 1
        elif status == ResumeStatus.THREAD_BARRIER:
            self.stats.em_cycles += (
                self.machine.em_barrier_cost * warp.size
            )
            for context in warp.contexts:
                window.barrier_pools[context.linear_ctaid].append(context)
        else:
            raise LaunchError(f"kernel yielded unknown status {status}")
        # An exit may leave, and an arrival may make, every live thread
        # of a CTA wait at the barrier.
        for cta in {context.linear_ctaid for context in warp.contexts}:
            self._maybe_release_barrier(window, cta)

    def _maybe_release_barrier(self, window: _Window, cta: int) -> None:
        waiting = window.barrier_pools[cta]
        if waiting and len(waiting) == window.live_counts[cta]:
            self.stats.em_cycles += (
                self.machine.em_barrier_cost * len(waiting)
            )
            sanitizer = self.memory.sanitizer
            if sanitizer is not None:
                # bar.sync orders everything before it against
                # everything after: the race detector's epoch for this
                # CTA advances, retiring the interval's access logs.
                sanitizer.barrier_released(cta)
            if self.trace is not None:
                self.trace(
                    "barrier_release",
                    {
                        "worker": self.worker_id,
                        "cta": cta,
                        "threads": len(waiting),
                    },
                )
            for context in waiting:
                window.ready.push(context)
            waiting.clear()

