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
    threads with the same entry point".
    """

    def __init__(self, cross_cta: bool = False):
        self._queues: "OrderedDict[tuple, deque]" = OrderedDict()
        #: Deferred batch results per key (array backend): warps the
        #: batch runner already executed but whose yield handling (and
        #: any sequential fallback resume) must happen at the position
        #: the round-robin would have reached them, so downstream
        #: re-formation sees the exact sequential arrival order.
        self._pending: Dict[tuple, deque] = {}
        #: How many such results wait, over all keys.
        self.deferred = 0
        self._cross_cta = cross_cta
        self.size = 0

    def _prune(self) -> Optional[tuple]:
        """Drop emptied head keys; return the live head key or None."""
        while self._queues:
            key, queue = next(iter(self._queues.items()))
            if queue or self._pending.get(key):
                return key
            del self._queues[key]
            self._pending.pop(key, None)
        return None

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

    def head_batch(self, floor: int) -> Optional[tuple]:
        """Peek at the head key without consuming anything:
        ``(entry_point, linear_ctaid, queue_length)``, or None when
        fewer than ``floor`` threads wait there (the size rule: below
        it a batch costs more than the warps it replaces) or deferred
        batch results are still draining. Lets the batch runner decide
        eligibility before committing to a pop."""
        key = self._prune()
        if key is None:
            return None
        queue = self._queues[key]
        if len(queue) < floor or self._pending.get(key):
            return None
        head = queue[0]
        return (head.resume_point, head.linear_ctaid, len(queue))

    def pop_chunks(self, limit: int) -> List[List[ThreadContext]]:
        """Batch formation (array backend): every full ``limit``-sized
        chunk of the head key's queue, in FIFO order — the same warp
        compositions :meth:`pop_group` would produce across its visits
        to this key, taken at once (arrivals always append, so the
        chunk memberships are interleaving-independent). The remainder
        (fewer than ``limit`` threads) stays queued for the sequential
        former. The key keeps its round-robin position: the caller
        has asked :meth:`head_batch` and must follow up with
        :meth:`defer`."""
        key = self._prune()
        if key is None:
            return []
        queue = self._queues[key]
        chunks = []
        while len(queue) >= limit:
            chunks.append([queue.popleft() for _ in range(limit)])
        self.size -= limit * len(chunks)
        return chunks

    def defer(self, items) -> None:
        """Park executed-but-unhandled batch warps at the head key and
        advance the round-robin one step, exactly as if the first warp
        of the batch had just been popped: later pops drain these
        deferred items (in order, ahead of the key's remainder and any
        new arrivals) interleaved with the other keys' visits."""
        key = next(iter(self._queues.items()))[0]
        if items:
            pending = self._pending.get(key)
            if pending is None:
                pending = deque()
                self._pending[key] = pending
            for item in items:
                pending.append(item)
                self.size += len(item[0].contexts)
            self.deferred += len(items)
        if self._queues[key] or self._pending.get(key):
            self._queues.move_to_end(key)
        else:
            del self._queues[key]
            self._pending.pop(key, None)

    def restore(self, chunks) -> None:
        """Push chunks popped by :meth:`pop_chunks` back onto the head
        of their key's queue, in their original order — the exact
        inverse of the pop (the key never moved). Used when a batch
        attempt is abandoned so the sequential path re-executes the
        same threads in the same formation."""
        key = next(iter(self._queues.items()))[0]
        queue = self._queues[key]
        for chunk in reversed(chunks):
            for context in reversed(chunk):
                queue.appendleft(context)
                self.size += 1

    def pop_deferred(self):
        """The head key's next deferred batch item, or None when the
        head key has none. Advances the round-robin like
        :meth:`pop_group`."""
        key = self._prune()
        if key is None:
            return None
        pending = self._pending.get(key)
        if not pending:
            return None
        item = pending.popleft()
        self.size -= len(item[0].contexts)
        self.deferred -= 1
        if not pending:
            del self._pending[key]
        if self._queues[key] or self._pending.get(key):
            self._queues.move_to_end(key)
        else:
            del self._queues[key]
        return item

    def pop_group(self, limit: int) -> List[ThreadContext]:
        """Take up to ``limit`` threads waiting at the next entry point
        in round-robin order."""
        while self._queues:
            key, queue = next(iter(self._queues.items()))
            if not queue:
                if self._pending.get(key):  # pragma: no cover -
                    # deferred items are drained by the caller first
                    return []
                del self._queues[key]
                continue
            members = [
                queue.popleft() for _ in range(min(limit, len(queue)))
            ]
            self.size -= len(members)
            if not queue and not self._pending.get(key):
                del self._queues[key]
            else:
                # Round-robin: move the group to the back.
                self._queues.move_to_end(key)
            return members
        return []

    def contexts(self) -> Iterator[ThreadContext]:
        """All queued contexts, including deferred batch warps' (for
        watchdog/deadlock reports)."""
        for queue in self._queues.values():
            for context in queue:
                yield context
        for pending in self._pending.values():
            for item in pending:
                for context in item[0].contexts:
                    yield context

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
        #: Batched execution (array backend): discovered by feature
        #: test, and only meaningful for dynamic formation on an
        #: unsanitized device (checked code runs one warp at a time).
        self._batching = bool(
            getattr(interpreter, "supports_batching", False)
            and interpreter.sanitizer is None
            and not config.static_warps
            # Cross-CTA formation keys mix CTAs inside one chunk;
            # same-CTA keys keep each chunk's barrier/exit bookkeeping
            # confined to a single CTA.
            and not config.allow_cross_cta_warps
        )
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
        scalar = self.cache.scalar_ir(kernel_name)
        _, spill_size = self.cache.spill_layout(kernel_name)
        local_bytes = _align(scalar.local_segment_size + spill_size, 16)
        shared_bytes = _align(max(kernel.shared_size, 1), 16)
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
        # warp: the watchdog's limits and — unless a trace callback
        # runs between warps (it may do anything, in the host's numpy
        # error state) — the guest error state and the inline access
        # template. Checked and late-bound access stay per warp: a
        # sanitizer report is host code, an injector may disarm itself.
        state = self._warp_state
        state.deadline = deadline
        state.limit = self.interpreter.instruction_limit
        state.access = self.interpreter.access()
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
        # What decides against batching for the whole window is asked
        # once, here: a loop iteration that cannot batch compares one
        # length. ``threshold`` is ``floor`` (the size rule: no key
        # holds that many threads unless the pool does), or 0 while
        # batch results wait to be drained at their round-robin turn.
        batchable = self._batchable(kernel_name)
        floor = (
            _NEVER if batchable is None
            else MIN_BATCH_WARPS * self._max_warp_size
        )
        threshold = floor
        while ready.size:
            if ready.size >= threshold:
                deferred = ready.pop_deferred() if ready.deferred else None
                if deferred is not None:
                    self._run_warp(window, *deferred)
                    continue
                if ready.size >= floor and self._execute_batch_round(
                    window, batchable
                ):
                    threshold = 0
                    continue
                if not ready.deferred:
                    threshold = floor
            warp = self._form_warp(kernel_name, ready)
            size = len(warp.contexts)
            executable, width = self.cache.get_or_degrade(kernel_name, size)
            if width < size:
                # The wider build failed and was degraded mid-launch:
                # shrink to the width that did build and re-queue the
                # excess threads for later (narrower) warps. Formation
                # now skips a width, which a batch's full-width chunks
                # would not: none is formed for the rest of the window
                # (the next iteration drains what waits, if anything).
                self.stats.degraded_warps += 1
                floor, threshold = _NEVER, 0
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
        sequential one exactly: a sanitized device, static or
        cross-CTA formation (``_batching``), a trace callback or a
        patched memory system (``scoped``), a cycle budget (whose
        per-warp clamp is inherently sequential), an instance-patched
        ``execute`` (a fault injector), a degraded width, no
        maximal-width executable in the cache yet, or none with an
        array lowering. None of these changes while a window runs,
        except a width degrading, which the loop sees where it counts
        the degraded warp."""
        if (
            not self._batching
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

        Scheduling parity with the sequential round-robin is preserved
        by *deferring* the results: the chunk compositions are FIFO-
        stable (arrivals always append, so :meth:`_ReadyPool.pop_chunks`
        takes the same memberships :meth:`_ReadyPool.pop_group` would
        across its visits), the warps' kernel-body effects are computed
        in the batch, but their yield handling — the order-sensitive
        part, where THREAD_BRANCH arrivals and barrier parks re-shape
        downstream queues — happens one warp per round-robin visit via
        the deferred queue, exactly when the sequential former would
        have popped that chunk.

        Returns False, having consumed nothing (no pop, no cache
        lookup), when fewer than ``MIN_BATCH_WARPS`` full warps wait
        at the head key or the record of past batches refuses its entry
        point
        (``_ArrayBlocks.admits``); the caller then forms one warp.
        Both read modeled state only — a queue length, batch outcomes
        — so which warps batch is a function of the launch history."""
        kernel_name, ready = window.kernel_name, window.ready
        limit = self._max_warp_size
        peek = ready.head_batch(MIN_BATCH_WARPS * limit)
        if peek is None or not executable.array_blocks.admits(peek[0]):
            return False
        chunks = ready.pop_chunks(limit)
        warps = []
        for chunk in chunks:
            # One cache access per warp, as the sequential path makes.
            self.cache.get_or_degrade(kernel_name, limit)
            warps.append(Warp(contexts=chunk, warp_id=self._warp_counter))
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
            # A faulting batch is abandoned wholesale: the popped
            # threads go back to the head of their queue in their
            # original formation and the sequential path re-executes
            # them, so the trap carries the exact thread attribution,
            # register snapshot and partial statistics sequential
            # execution would have produced. (Stores the batch
            # committed before the fault persist — a trapped launch's
            # memory is partial either way.) Nothing was recorded for
            # the attempt, so nothing needs undoing.
            ready.restore(chunks)
            return False
        self.stats.batched_warps += len(warps)
        if outcome.kind != "yield":
            self.stats.batch_fallbacks += len(warps)
        # A warp of a batch that stopped short of a yield (divergence,
        # a precise/untranslated block, a conservative limit/deadline
        # exit) carries a continuation: it resumes on the sequential
        # path exactly where the array program left it, when its
        # round-robin turn comes. The key is the entry point, so one
        # restore count serves the batch.
        restored = executable.function.restore_counts.get(peek[0], 0)
        items = [
            (warp, executable, restored, continuation, outcome)
            for warp, continuation in zip(
                warps, outcome.continuations or [None] * len(warps)
            )
        ]
        # The first item stands in for the pop this round replaced; the
        # rest drain one per later visit to this key.
        ready.defer(items[1:])
        self._run_warp(window, *items[0])
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


def _align(value: int, alignment: int) -> int:
    remainder = value % alignment
    if remainder:
        return value + alignment - remainder
    return value
