"""The dynamic execution manager (§3, §5.2).

One execution manager runs per worker thread. It owns the thread
contexts of its assigned CTAs, per-CTA shared memory and per-thread
local memory, a ready pool, and the warp former. The main loop:

1. pick a ready formation key (round-robin over the pool),
2. form the largest possible warp of threads waiting there (dynamic
   formation; or a consecutive-``tid.x`` run under static formation),
3. query the translation cache for the matching specialization and
   execute it,
4. act on the warp's resume status: re-insert branching threads into
   the ready pool, park barrier threads in their CTA's barrier pool
   (releasing the pool when every live CTA thread has arrived), and
   discard exited threads.

This iterates until all threads of the window have terminated (§3:
"This process iterates until all threads have terminated"). The
launcher opens every worker's first window before any worker runs, so
their first batch rounds can run as one (``KernelLauncher``).

Formation is data: the pool queues *chunks* (the threads one arrival
brings to one key), a :class:`Warp` carries its key, and what a warp
execution counts reaches the launch's statistics once per window.

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
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain
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

#: How many CTAs an execution manager keeps active at once: the bound
#: on its shared/local memory footprint.
CTA_WINDOW = 4

_BRANCH = ResumeStatus.THREAD_BRANCH
_BARRIER = ResumeStatus.THREAD_BARRIER
_EXIT = ResumeStatus.THREAD_EXIT


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
        return _unflatten(linear, self.grid)

    def thread_coordinates(self, linear: int) -> Tuple[int, int, int]:
        return _unflatten(linear, self.block)


def _unflatten(linear: int, dims: Tuple[int, int, int]):
    nx, ny, _ = dims
    return (linear % nx, (linear // nx) % ny, linear // (nx * ny))


class _ReadyPool:
    """Ready threads in chunks grouped by formation key, visited
    round-robin.

    The key is ``(entry point, CTA)``, the CTA None when cross-CTA
    warps are allowed: §5.2's "largest warp possible from other ready
    threads with the same entry point". The schedulable unit is a
    *chunk*, the threads one arrival brings to one key, in lane order:
    a yielding warp's threads bound for one entry point, a released
    barrier's, a new window's CTA, the extras a formation hands back.
    Chunks queue in arrival order and a key joins the round-robin with
    its first chunk, so the queues and the key order are exactly what
    appending the threads one by one gives. :meth:`pop_group` takes
    whole chunks while they fit the width and splits only the last.

    A key's queue may begin with *pre-run* entries, ``(warp,
    executable, restored, continuation, outcome)``: warps a batch
    formed from the key's first threads and already ran, whose yield
    is still to be handled. Arrivals only append, so handing them out
    first, one per visit, hands each out exactly when the sequential
    former would have formed it. No key's queue is ever left empty.
    """

    def __init__(self, cross_cta: bool = False):
        #: key -> its queue; the round-robin is the dict's order (a
        #: visited key is taken out and put back at the end)
        self._queues: Dict[tuple, list] = {}
        self._cross_cta = cross_cta
        #: threads queued, a pre-run warp's included
        self.size = 0
        #: pre-run entries queued: :meth:`pop_ran` is asked only then
        self.pre_run = 0

    def push(self, contexts: List[ThreadContext], cta: Optional[int]) -> None:
        """Append ``contexts``, threads of CTA ``cta``, as one chunk per
        resume point, in order of first appearance. The pool owns the
        list from now on; a chunk is never changed in place."""
        point = contexts[0].resume_point
        chunks = ((point, contexts),)
        for context in contexts:
            if context.resume_point != point:
                split: Dict[int, List[ThreadContext]] = {}
                for context in contexts:
                    split.setdefault(context.resume_point, []).append(context)
                chunks = split.items()
                break
        if self._cross_cta:
            cta = None
        queues = self._queues
        for point, chunk in chunks:
            queue = queues.get((point, cta))
            if queue is None:
                queues[point, cta] = [chunk]
            else:
                queue.append(chunk)
        self.size += len(contexts)

    def pop_ran(self) -> Optional[tuple]:
        """The head key's first entry when it is pre-run — taken, the
        round-robin advanced as by :meth:`pop_group` — else None."""
        queues = self._queues
        key = next(iter(queues))
        queue = queues[key]
        entry = queue[0]
        if entry.__class__ is not tuple:
            return None
        del queue[0], queues[key]
        if queue:
            queues[key] = queue
        self.size -= entry[0].size
        self.pre_run -= 1
        return entry

    def head_batch(self, floor: int) -> Optional[Tuple[tuple, Iterator]]:
        """The head key and an iterator over its threads, nothing
        taken, when at least ``floor`` threads wait there (the size
        rule: below it a batch costs more than the warps it replaces),
        else None. Asked when the head holds no pre-run entry; a key
        holds a few chunks, and this sums their lengths."""
        key = next(iter(self._queues))
        queue = self._queues[key]
        if sum(map(len, queue)) < floor:
            return None
        return key, chain.from_iterable(queue)

    def keys(self) -> List[Tuple[tuple, Iterator]]:
        """Every key and its threads in round-robin order, nothing taken."""
        return [(key, chain(*queue)) for key, queue in self._queues.items()]

    def take_batch(self, key: tuple, threads: int, entries: List[tuple]):
        """A batch ran ``key``'s first ``threads`` threads: they leave
        and ``entries``, its warps, take their place at the front of the
        key's queue, pre-run. The round-robin does not move: the key's
        next visit hands out the first warp."""
        queue = self._queues[key]
        rest = list(chain.from_iterable(queue))[threads:]
        queue[:] = entries + [rest] if rest else entries
        self.size -= threads - sum(entry[0].size for entry in entries)
        self.pre_run += len(entries)

    def pop_group(self, limit: int) -> Tuple[tuple, List[ThreadContext]]:
        """The next key in round-robin order and up to ``limit`` of its
        threads, taken (asked when its head is not pre-run)."""
        queues = self._queues
        key = next(iter(queues))
        queue = queues.pop(key)
        members = queue.pop(0)
        while queue and len(members) < limit:
            members = members + queue.pop(0)
        if len(members) > limit:
            queue.insert(0, members[limit:])
            members = members[:limit]
        if queue:
            queues[key] = queue
        self.size -= len(members)
        return key, members

    def contexts(self) -> Iterator[ThreadContext]:
        """All queued contexts in queue order, a pre-run warp's in its
        place (for watchdog/deadlock reports)."""
        for queue in self._queues.values():
            for entry in queue:
                yield from (
                    entry[0].contexts if entry.__class__ is tuple else entry
                )

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
    #: what its warps counted since :meth:`ExecutionManager._flush`
    tally: LaunchStatistics = field(default_factory=LaunchStatistics)


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
        self._warp_counter = 0
        self._max_warp_size = config.max_warp_size
        #: threads available -> the widest specialization they fill
        self._fits = [
            cache.specialization_for(threads)
            for threads in range(self._max_warp_size + 1)
        ]
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
        #: (kernel, geometry, param base, shared bytes, local stride) of
        #: the current launch (installed by open()).
        self._launch: Optional[tuple] = None

    # -- public --------------------------------------------------------------

    def open(
        self, kernel_name: str, geometry: LaunchGeometry, cta_ids: List[int],
        param_base: int, deadline: Optional[float] = None,
    ) -> "_Window":
        """Ready the assigned CTAs for :meth:`run` and open the window
        of the first of them.

        ``deadline`` is an absolute ``time.monotonic`` value installed
        by the launcher when ``launch_timeout_s`` is configured; it is
        shared by all workers of one launch."""
        self._cycle_budget = self.config.max_kernel_cycles
        self._deadline = deadline
        kernel = self.cache.kernel(kernel_name)
        local_bytes = self.cache.scalar_ir(kernel_name).frame_bytes
        shared_bytes = -(-max(kernel.shared_size, 1) // 16) * 16
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
            shared_bytes, local_stride, geometry.threads_per_cta
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
        # holds fits (frames_fit: its extremes decide), and with the
        # inline access template the guest error state (entered by
        # run()). Checked access stays per warp: a sanitizer report is
        # host code, an injector may disarm itself.
        state = self._warp_state
        state.deadline = deadline
        state.limit = self.interpreter.instruction_limit
        frames = geometry.threads_per_cta * min(CTA_WINDOW, len(cta_ids))
        state.access = self.interpreter.access(frames_fit(
            local_bytes, self._local_slab, local_stride, frames, self.memory.size
        ))
        state.scoped = state.access == "inline"
        self._launch = (
            kernel_name, geometry, param_base, shared_bytes, local_stride
        )
        return self._open_window(cta_ids[:CTA_WINDOW])

    def run(self, window: "_Window", cta_ids: List[int]) -> LaunchStatistics:
        """Execute the assigned CTAs ``cta_ids`` to completion:
        ``window``, which :meth:`open` opened on the first of them, then
        the rest a window at a time."""
        state = self._warp_state
        try:
            with guest_errstate() if state.scoped else nullcontext():
                self._drain(window)
                for start in range(CTA_WINDOW, len(cta_ids), CTA_WINDOW):
                    self._drain(
                        self._open_window(cta_ids[start : start + CTA_WINDOW])
                    )
        finally:
            state.scoped = False
        return self.stats

    def recover(self) -> None:
        """Restore launch-ready invariants after a contained fault.

        The pooled warp state is replaced (its register file may hold
        the faulted warp's values) and the watchdog disarmed. Reserved
        shared/local slabs are deliberately kept: they are reset per
        window by :meth:`_open_window`, and keeping them means a
        trap-then-relaunch sequence does not grow the arena."""
        self._warp_state = self.interpreter.new_state()
        self._cycle_budget = None
        self._deadline = None

    # -- memory slabs ----------------------------------------------------

    def _reserve_slabs(
        self, shared_bytes: int, local_stride: int, threads_per_cta: int
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
        while len(self._shared_slabs) < CTA_WINDOW:
            self._shared_slabs.append(
                self.memory.allocate(
                    self._shared_slab_bytes,
                    kind="shared",
                    label=f"worker {self.worker_id} shared slab "
                    f"{len(self._shared_slabs)}",
                )
            )
        total_local = max(local_stride * threads_per_cta * CTA_WINDOW, 16)
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

    def _open_window(self, cta_ids: List[int]) -> "_Window":
        """A window of the CTAs ``cta_ids``: their slabs cleared, their
        threads queued at the kernel's entry, one chunk per CTA."""
        kernel_name, geometry, param_base, shared_bytes, local_stride = (
            self._launch
        )
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
        cta_local = local_stride * threads_per_cta
        if cta_local:
            self.memory.fill(self._local_slab, cta_local * len(cta_ids), 0)

        tids = list(map(geometry.thread_coordinates, range(threads_per_cta)))
        for slot, cta_linear in enumerate(cta_ids):
            ctaid = geometry.cta_coordinates(cta_linear)
            shared_base = self._shared_slabs[slot]
            local_base = self._local_slab + slot * cta_local
            live_counts[cta_linear] = threads_per_cta
            barrier_pools[cta_linear] = []
            ready.push([
                ThreadContext(
                    tid, geometry.block, ctaid, geometry.grid, shared_base,
                    local_base + lane * local_stride, 0, cta_linear,
                )
                for lane, tid in enumerate(tids)
            ], cta_linear)
        self.stats.threads_launched += threads_per_cta * len(cta_ids)
        return _Window(
            kernel_name, geometry, param_base,
            self.cache.scalar_ir(kernel_name).entry_points, ready,
            live_counts, barrier_pools,
            self._cycle_budget is not None or self._deadline is not None,
        )

    def _drain(self, window: "_Window") -> None:
        """Run ``window``'s threads until none is ready (§3's loop)."""
        ready, kernel_name = window.ready, window.kernel_name
        # Whether the window may batch is asked once, here: when it may
        # not, the size rule's floor is one no key reaches. While pre-run
        # warps wait, a visit asks the head entry first: a warp a batch
        # ran has its yield handled at the turn it would have been formed.
        get, fits = self.cache.get, self._fits
        limit, static = self._max_warp_size, self.config.static_warps
        batchable = self._batchable(kernel_name)
        floor = _NEVER if batchable is None else MIN_BATCH_WARPS * limit
        try:
            while ready.size:
                if ready.pre_run:
                    ran = ready.pop_ran()
                    if ran is not None:
                        self._run_warp(window, *ran)
                        continue
                # (no key holds ``floor`` threads unless the pool does)
                if ready.size >= floor:
                    head = ready.head_batch(floor)
                    if head is not None and self._execute_batch_round(
                        window, batchable, *head
                    ):
                        continue
                # Formation: the head key's threads, as many as fill the
                # widest specialization; the rest go back as one chunk.
                if static:
                    key, members = self._form_static(ready, limit)
                else:
                    key, members = ready.pop_group(limit)
                    size = fits[len(members)]
                    if size < len(members):
                        ready.push(members[size:], key[1])
                        members = members[:size]
                entry_point, cta = key
                warp = Warp(members, self._warp_counter, entry_point, cta)
                self._warp_counter += 1
                executable = get(kernel_name, warp.size)
                restored = executable.function.restore_counts.get(key[0], 0)
                self._run_warp(window, warp, executable, restored)
        finally:
            # a launch that traps part-way counts every warp that ran
            self._flush(window)

        # (the pool is empty: every thread left waits at a barrier)
        points = self._program_points(window)
        if points:
            leftovers = [
                cta for cta, left in window.barrier_pools.items() if left
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
        self, window: _Window, warp: Warp, executable, restored: int,
        continuation=None, batch=None,
    ) -> None:
        """One warp execution, accounted (in the window's tally): its
        entry, what it executed, its yield and the scheduling
        consequences of that. The warp runs here — an ExecutionError
        leaves as a KernelTrap, or a LaunchTimeout when the watchdog
        fired — unless a ``batch`` already ran it to its yield (its
        outcome is passed), or to its ``continuation``."""
        tally = window.tally
        size = warp.size
        histogram = tally.warp_size_histogram
        histogram[size] = histogram.get(size, 0) + 1
        tally.values_restored += restored * size
        # A watched window's tally reaches the statistics around every
        # warp: before it runs, as the cycle budget's clamp of its
        # instruction cap reads its charge (an instruction costs a cycle
        # at least), and after it, before the watchdog reads them.
        clamped = False
        if window.watched:
            self._flush(window)
            if self._cycle_budget is not None:
                state = self._warp_state
                state.limit = self.interpreter.instruction_limit
                remaining = self._cycle_budget - self.stats.total_cycles
                if remaining < state.limit:
                    state.limit = max(remaining, 1)
                    clamped = True
        if batch is None or continuation is not None:
            state = self._warp_state
            try:
                status = self.interpreter.execute(
                    executable, warp, window.param_base, None, state,
                    continuation,
                )
            except ExecutionError as fault:
                raise self._contain(
                    window, warp, executable, fault, clamped
                ) from fault
            execution = state.stats
        else:
            status, execution = batch.status, batch.stats
        ExecutionStats.merge(tally, execution)
        yields = tally.yields_by_status
        yields[status] = yields.get(status, 0) + 1
        # The yield: branching threads go back to the pool; exited ones
        # leave, arrivals wait in their CTA's barrier pool (released
        # once every live thread of the CTA waits there).
        cta = warp.cta
        if status == _BRANCH:
            window.ready.push(warp.contexts, cta)
        else:
            if status == _BARRIER:
                tally.em_cycles += self.machine.em_barrier_cost * size
            elif status != _EXIT:
                raise LaunchError(f"kernel yielded unknown status {status}")
            if cta is None:
                self._park_across(window, status, warp)
            else:
                if status == _EXIT:
                    window.live_counts[cta] -= size
                else:
                    window.barrier_pools[cta].extend(warp.contexts)
                self._maybe_release_barrier(window, cta)
        if window.watched:
            self._flush(window)
            self._check_watchdog(window)

    def _flush(self, window: _Window) -> None:
        """Fold the window's tally into the launch's statistics (their
        declared ``merge``) and start it over; warp executions, thread
        entries and the per-warp manager charge derive from the
        histogram."""
        tally = window.tally
        sizes = tally.warp_size_histogram
        tally.warp_executions = sum(sizes.values())
        tally.thread_entries = sum(size * n for size, n in sizes.items())
        tally.em_cycles += (
            self.machine.em_event_cost * tally.warp_executions
            + self.machine.em_per_thread_cost * tally.thread_entries
        )
        self.stats.merge(tally)
        tally.reset()

    def _contain(
        self, window: _Window, warp: Warp, executable, fault, clamped: bool
    ) -> Exception:
        """What ``fault``, escaping ``warp``'s execution, leaves the
        launch as; the faulted warp's partial counters still count."""
        state = self._warp_state
        ExecutionStats.merge(window.tally, state.stats)
        deadline = isinstance(fault, DeadlineExceeded)
        if deadline or (
            clamped and isinstance(fault, InstructionLimitExceeded)
        ):
            return self._timeout(window, deadline, warp)
        # A guest fault — or the interpreter's own global runaway cap
        # firing with no cycle budget configured: a trap.
        self.stats.traps += 1
        return build_trap(
            window.kernel_name, window.geometry, warp, executable, state,
            fault, self.worker_id,
        )

    # -- batched execution ---------------------------------------------------

    def _batchable(self, kernel_name: str):
        """The maximal-width executable whose warps this window may
        batch, or None when the batched path cannot reproduce the
        sequential one exactly: static or cross-CTA formation (a batch
        keeps each warp's bookkeeping inside one CTA), a patched
        guest-access seam or a sanitized device (not ``scoped``), a
        cycle budget (its clamp is per warp), an instance-patched
        ``execute`` (a fault injector), or no maximal-width executable
        with an array lowering yet (the reference oracle, atomics).
        None of these changes while a window runs."""
        if (
            self.config.static_warps
            or self.config.allow_cross_cta_warps
            or not self._warp_state.scoped
            or self._cycle_budget is not None
            or "execute" in self.interpreter.__dict__
        ):
            return None
        executable = self.cache.resident(kernel_name, self._max_warp_size)
        if executable is None or executable.array_blocks is None:
            return None
        return executable

    def _execute_batch_round(
        self, window: _Window, executable, key: tuple, threads: Iterator
    ) -> bool:
        """One batched round: every full maximal-width warp of the head
        key's ``threads`` (:meth:`_ReadyPool.head_batch` found the size
        rule's ``MIN_BATCH_WARPS`` warps there), run at once through
        the array lowering of ``executable`` (:meth:`_batchable`) and
        filed at the front of the key's queue (:meth:`_file_batch`).

        Returns False, having taken nothing, when the record of past
        batches refuses the entry point (``_ArrayBlocks.admits``) or
        when the batch faults; the caller then forms one warp. After a
        fault the sequential path re-runs the same threads in the same
        formation, so the trap carries what sequential execution gives
        (stores the batch committed persist — a trapped launch's memory
        is partial either way). Both rules read modeled state only, so
        which warps batch is a function of the launch history."""
        if not executable.array_blocks.admits(key[0]):
            return False
        warps = self._batch_warps(key, threads, self._warp_counter)
        try:
            outcome = self.interpreter.execute_batch(
                executable, warps, window.param_base,
                self.interpreter.instruction_limit, self._deadline,
            )
        except ExecutionError:
            return False
        self._file_batch(window, executable, warps, outcome)
        return True

    def _batch_warps(self, key: tuple, threads: Iterator, first: int):
        """The full maximal-width warps of ``threads``, ``key``'s queue
        in order, numbered from ``first``: the warps ``pop_group`` would
        form across its visits to the key (arrivals only append, so the
        memberships do not depend on the interleaving)."""
        limit, threads = self._max_warp_size, list(threads)
        starts = range(0, len(threads) - limit + 1, limit)
        return [
            Warp(threads[start : start + limit], first + n, *key)
            for n, start in enumerate(starts)
        ]

    def _opening(self, window: _Window) -> List[List[Warp]]:
        """The launch's opening round's share of ``window``, opened and
        not yet drained: per key in visit order (one per CTA, at the
        entry), the warps its first batch round would form — none when
        a CTA is below the size rule, the window may not batch or the
        entry does not hold the full credit (``_ArrayBlocks.merges``)."""
        floor = MIN_BATCH_WARPS * self._max_warp_size
        groups, first = [], self._warp_counter
        executable = self._batchable(window.kernel_name)
        if (
            window.geometry.threads_per_cta < floor
            or executable is None
            or not executable.array_blocks.merges(0)  # 0: the entry
        ):
            return groups
        for key, threads in window.ready.keys():
            groups.append(self._batch_warps(key, threads, first))
            first += len(groups[-1])
        return groups

    def _file_batch(
        self, window: _Window, executable, warps: List[Warp], outcome,
        position: int = 0,
    ) -> None:
        """File ``warps``, one key's warps of a batch from ``position``
        on, as pre-run entries at the front of the key's queue: the
        batch ran what they compute; their yield handling — where
        arrivals and barrier parks reshape downstream queues — comes at
        the turns the sequential former would have formed them. Each is
        numbered and makes one cache access, as the sequential path
        does. A warp of a batch that stopped short of a yield carries a
        continuation: it resumes on the sequential path where the array
        program left it. One restore count serves all: the key is the
        entry point."""
        limit, count = self._max_warp_size, len(warps)
        for _ in warps:
            self.cache.get(window.kernel_name, limit)
        self._warp_counter += count
        self.stats.batched_warps += count
        if outcome.kind != "yield":
            self.stats.batch_fallbacks += count
        first = warps[0]
        restored = executable.function.restore_counts.get(first.entry_point, 0)
        continuations = (
            outcome.continuations[position : position + count]
            or [None] * count
        )
        window.ready.take_batch((first.entry_point, first.cta), limit * count, [
            (warp, executable, restored, continuation, outcome)
            for warp, continuation in zip(warps, continuations)
        ])

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
        """Every live thread's program point, for watchdog and deadlock
        reports."""
        groups = [(window.ready.contexts(), "ready")] + [
            (waiting, "barrier") for waiting in window.barrier_pools.values()
        ]
        if running is not None:
            groups.insert(0, (running.contexts, "running"))
        return [
            ProgramPoint(
                ctaid=context.ctaid,
                tid=context.tid,
                entry_point=context.resume_point,
                label=window.entry_labels.get(context.resume_point),
                state=state,
            )
            for contexts, state in groups
            for context in contexts
        ]

    # -- warp formation ------------------------------------------------------

    def _form_static(
        self, ready: _ReadyPool, limit: int
    ) -> Tuple[tuple, List[ThreadContext]]:
        """Static warp formation: a run of consecutively indexed
        ``tid.x`` threads from one CTA row (§6.2), and its key."""
        key, group = ready.pop_group(limit * 4)
        anchor = group[0]
        window_base = (anchor.tid[0] // limit) * limit
        rest: List[ThreadContext] = []
        by_x: Dict[int, ThreadContext] = {anchor.tid[0]: anchor}
        for candidate in group[1:]:
            same_row = (
                candidate.ctaid == anchor.ctaid
                and candidate.tid[1:] == anchor.tid[1:]
                and window_base <= candidate.tid[0] < window_base + limit
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
        size = self._fits[len(run)]
        extras = run[size:] + rest
        if extras:
            ready.push(extras, key[1])
        return key, run[:size]

    # -- yield handling ------------------------------------------------------

    def _park_across(self, window: _Window, status: int, warp: Warp) -> None:
        """Exits or barrier arrivals of a warp that may span CTAs (cross-
        CTA formation): booked per thread, each CTA then asked."""
        for context in warp.contexts:
            if status == _EXIT:
                window.live_counts[context.linear_ctaid] -= 1
            else:
                window.barrier_pools[context.linear_ctaid].append(context)
        for cta in {context.linear_ctaid for context in warp.contexts}:
            self._maybe_release_barrier(window, cta)

    def _maybe_release_barrier(self, window: _Window, cta: int) -> None:
        waiting = window.barrier_pools[cta]
        if waiting and len(waiting) == window.live_counts[cta]:
            cost = self.machine.em_barrier_cost
            window.tally.em_cycles += cost * len(waiting)
            sanitizer = self.memory.sanitizer
            if sanitizer is not None:
                # bar.sync orders everything before it against
                # everything after: the race detector's epoch for this
                # CTA advances, retiring the interval's access logs.
                sanitizer.barrier_released(cta)
            window.barrier_pools[cta] = []
            window.ready.push(waiting, cta)
