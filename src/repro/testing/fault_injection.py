"""Seeded, deterministic fault injection for the containment runtime.

A :class:`FaultInjector` patches well-defined *sites* inside one
in-process :class:`~repro.api.device.Device` (no pool tenant can arm
one) so tests drive every containment path on demand. The four memory sites
patch the device's guest-access seam
(:class:`~repro.machine.memory.GuestAccess`, the sanitizer on a
sanitized device) once, sanitized or not: ``guest_load`` and
``guest_store`` for ``memory_fault``, ``guest_store`` for
``oob_within_arena`` and ``shared_race``, ``guest_load`` for
``use_after_free``. The reference backend never calls the seam, so
arming one of them there raises :class:`ValueError`.

``memory_fault``
    Scalar guest loads/stores raise :class:`~repro.errors.MemoryFault`
    with the armed probability — exercising the KernelTrap boundary.
``interpreter_error``
    Warp executions raise a bare :class:`~repro.errors.ExecutionError`
    before running — a fault with no program counter attached.
``cache_corruption``
    Persistent-tier entries are corrupted on disk just before they are
    read — exercising the store's corrupt-entry recovery path.
``slow_warp``
    Warp executions sleep before running — exercising the wall-clock
    watchdog deterministically.
``barrier_starvation``
    Barrier releases are suppressed, stranding arrived threads —
    exercising :class:`~repro.errors.BarrierDeadlock` reporting.
``oob_within_arena``
    Guest stores aimed inside one allocation are redirected to just
    past its end — still inside the arena, so only the sanitizer's
    redzones can tell. Sanitized devices trap with exact coordinates;
    unsanitized devices complete silently (corrupting the neighbour).
``use_after_free``
    Guest loads aimed inside one allocation are redirected to the
    corresponding offset of a buffer the test already freed. Sanitized
    devices fault on the quarantined bytes; unsanitized devices
    silently read whatever the arena holds there.
``shared_race``
    Fired shared-memory guest stores (the seam's ``shared`` argument)
    are redirected to byte 0 of the storing thread's CTA shared
    segment, manufacturing a same-interval write-write conflict
    between threads. Only the sanitizer's race detector can see it —
    the stores themselves are in bounds.

Process-level chaos sites target a
:class:`~repro.runtime.pool.DevicePool` instead of a Device — pass
the *pool* as the injector's first argument. They patch the
parent-side ``_Worker`` send hooks, so the worker process itself runs
unmodified code:

``kill_worker``
    The worker process is ``kill()``-ed around a matching request
    (``when="after_send"`` by default: the request was delivered —
    behind a ``chaos_hang``, so the worker never answers it first — and
    its future resolves to :class:`~repro.errors.DeviceLost` with
    ``delivered=True``) — exercising crash detection, warm respawn,
    epoch bumping, and a durable session's restore, which
    re-dispatches the casualty and the launches queued behind it.
``hang_worker``
    A ``chaos_hang`` request is slipped into the pipe ahead of the
    real one, wedging the worker's serve loop for ``duration``
    seconds — exercising stuck-call supervision (and the stale-reply
    discard when the hang reply eventually surfaces).
``drop_pipe``
    The parent's end of the worker pipe is closed around a matching
    request — exercising broken-pipe loss detection
    (``delivered=False``: the request never left the parent).
``kill_during_restore``
    The worker being restored is ``kill()``-ed after ``after_steps``
    restore steps (journal entries replayed) — exercising
    restore-crash recovery: the supervisor respawns again and the
    restore retries from scratch on the fresh epoch.

Determinism: every probabilistic decision comes from one
``random.Random`` seeded explicitly or from ``$REPRO_FAULT_SEED``
(default 0), so a failing CI seed reproduces locally bit-for-bit.

Injectors are context managers; on exit every patched site is restored
to the original bound behavior::

    with FaultInjector(device, seed=7) as inject:
        inject.arm("memory_fault", probability=0.05)
        ...
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ExecutionError, MemoryFault

#: How long ``kill_worker`` (after the send) keeps the worker asleep
#: ahead of the request it kills: far longer than the kill takes to
#: land. Should the kill never come (the injector restored between the
#: send and the kill), the worker resumes after this long.
_KILL_STALL_S = 5.0


def _region(allocation) -> Tuple[int, int]:
    """``(base, size)`` of an Allocation-like object or a bare pair."""
    if isinstance(allocation, tuple):
        base, size = allocation
        return int(base), int(size)
    return int(allocation), int(allocation.size)


def fault_seed(default: int = 0) -> int:
    """The fault-injection seed for this process: ``$REPRO_FAULT_SEED``
    when set, otherwise ``default``."""
    try:
        return int(os.environ.get("REPRO_FAULT_SEED", default))
    except ValueError:
        return default


class FaultInjector:
    """Patches fault sites on one Device — or, for the
    :attr:`PROCESS_SITES`, on one DevicePool's parent side, where a
    durable tenant's journal (its checkpoints included) lives in
    memory and no site reaches it; seeded and restorable."""

    SITES = (
        "memory_fault",
        "interpreter_error",
        "cache_corruption",
        "slow_warp",
        "barrier_starvation",
        "oob_within_arena",
        "use_after_free",
        "shared_race",
        "kill_worker",
        "hang_worker",
        "drop_pipe",
        "kill_during_restore",
    )

    #: Sites whose target is a DevicePool (parent-side process chaos),
    #: not a Device.
    PROCESS_SITES = (
        "kill_worker",
        "hang_worker",
        "drop_pipe",
        "kill_during_restore",
    )

    def __init__(self, device, seed: Optional[int] = None):
        self.device = device
        self.seed = fault_seed() if seed is None else seed
        self.rng = random.Random(self.seed)
        #: Per-site count of injections actually fired.
        self.fired: Dict[str, int] = {}
        self._restores: List[Tuple[object, str, bool, object]] = []
        self._armed = False

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Undo every patch, most recent first, and disarm the
        injector outright, so a wrapper somebody still holds a
        reference to stops firing too. Nothing the device generates
        holds one: block code inlines its memory access only while the
        guest-access seam is not patched and otherwise looks the seam's
        methods up per call, so a restore takes effect with the next
        warp whatever was lowered in between."""
        self._armed = False
        while self._restores:
            target, name, had_instance_attr, original = self._restores.pop()
            if had_instance_attr:
                setattr(target, name, original)
            else:
                try:
                    delattr(target, name)
                except AttributeError:  # pragma: no cover - already gone
                    pass

    # -- arming --------------------------------------------------------------

    def arm(self, site: str, probability: float = 1.0, **options) -> None:
        """Arm one fault site. ``probability`` is evaluated per call
        against this injector's seeded RNG."""
        if site not in self.SITES:
            raise ValueError(
                f"unknown fault site {site!r} (have {self.SITES})"
            )
        getattr(self, f"_arm_{site}")(probability, **options)
        self._armed = True

    # -- internals -----------------------------------------------------------

    def _draws(self, probability: float) -> bool:
        """One seeded decision; none while disarmed."""
        return self._armed and self.rng.random() < probability

    def _count(self, site: str) -> None:
        self.fired[site] = self.fired.get(site, 0) + 1

    def _fires(self, site: str, probability: float) -> bool:
        if not self._draws(probability):
            return False
        self._count(site)
        return True

    def _patch(self, target, name: str, wrapper: Callable) -> None:
        had_instance_attr = name in target.__dict__
        original = target.__dict__.get(name)
        setattr(target, name, wrapper)
        self._restores.append((target, name, had_instance_attr, original))

    def _redirect(self, site: str, entry_point: str, redirect) -> None:
        """Patch the device's guest-access seam (the sanitizer on a
        sanitized device) so that each scalar access through
        ``entry_point`` — ``guest_load`` or ``guest_store`` — goes
        where ``redirect(state, lane, address, dtype, shared)`` says.
        Takes effect with the next warp execution, for kernels
        launched before as well as after arming: the interpreter asks
        the seam whether it is patched per warp and runs the checked
        template while it is."""
        if self.device.config.backend == "reference":
            raise ValueError(
                f"{site} cannot fire on backend='reference': the oracle "
                "calls the memory system, not the guest-access seam"
            )
        seam = self.device.interpreter.guest
        original = getattr(seam, entry_point)

        def access(state, lane, address, dtype, *rest, atomic=False):
            # rest: (value,) for a store, then shared, label, index
            address = redirect(state, lane, int(address), dtype, rest[-3])
            return original(
                state, lane, address, dtype, *rest, atomic=atomic
            )

        self._patch(seam, entry_point, access)

    def _arm_memory_fault(
        self, probability: float, kind: str = "both"
    ) -> None:
        """``kind``: "load", "store", or "both"."""

        def fault(state, lane, address, dtype, shared):
            if self._fires("memory_fault", probability):
                raise MemoryFault(address, dtype.size, reason="injected fault")
            return address

        for side in ("load", "store"):
            if kind in (side, "both"):
                self._redirect("memory_fault", f"guest_{side}", fault)

    def _arm_interpreter_error(self, probability: float) -> None:
        interpreter = self.device.interpreter
        original = interpreter.execute

        def execute(*args, **kwargs):
            if self._fires("interpreter_error", probability):
                raise ExecutionError("injected interpreter fault")
            return original(*args, **kwargs)

        self._patch(interpreter, "execute", execute)

    def _arm_cache_corruption(self, probability: float) -> None:
        store = self.device.cache.store
        if store is None:
            raise ValueError(
                "cache_corruption needs a device with a persistent "
                "cache store attached"
            )
        original = store.load

        def load(digest, statistics=None):
            if self._fires("cache_corruption", probability):
                path = store.path(digest)
                try:
                    with open(path, "r+b") as handle:
                        handle.write(b"\x00corrupt\x00")
                except OSError:
                    pass
            return original(digest, statistics=statistics)

        self._patch(store, "load", load)

    def _arm_slow_warp(
        self, probability: float, delay_s: float = 0.05
    ) -> None:
        interpreter = self.device.interpreter
        original = interpreter.execute

        def execute(*args, **kwargs):
            if self._fires("slow_warp", probability):
                time.sleep(delay_s)
            return original(*args, **kwargs)

        self._patch(interpreter, "execute", execute)

    def _arm_oob_within_arena(
        self, probability: float, allocation=None, delta: int = 4
    ) -> None:
        """Redirect global stores aimed inside ``allocation`` (an
        :class:`~repro.machine.memory.Allocation` or ``(base, size)``)
        to ``delta`` bytes past its end."""
        if allocation is None:
            raise ValueError("oob_within_arena needs allocation=")
        base, size = _region(allocation)

        def past_the_end(state, lane, address, dtype, shared):
            if (
                not shared
                and base <= address < base + size
                and self._fires("oob_within_arena", probability)
            ):
                return base + size + delta
            return address

        self._redirect("oob_within_arena", "guest_store", past_the_end)

    def _arm_use_after_free(
        self, probability: float, allocation=None, freed=None
    ) -> None:
        """Redirect global loads aimed inside ``allocation`` to the
        matching offset of ``freed`` — a buffer the test has already
        freed."""
        if allocation is None or freed is None:
            raise ValueError(
                "use_after_free needs allocation= and freed="
            )
        base, size = _region(allocation)
        victim = int(freed)

        def into_freed(state, lane, address, dtype, shared):
            if (
                not shared
                and base <= address < base + size
                and self._fires("use_after_free", probability)
            ):
                return victim + (address - base)
            return address

        self._redirect("use_after_free", "guest_load", into_freed)

    def _arm_shared_race(self, probability: float) -> None:
        """Redirect fired shared-memory stores to byte 0 of the storing
        thread's CTA shared segment: two different threads firing
        within one barrier interval manufacture a W-W race."""

        def to_byte_zero(state, lane, address, dtype, shared):
            if shared and self._fires("shared_race", probability):
                return state.contexts[lane].shared_base
            return address

        self._redirect("shared_race", "guest_store", to_byte_zero)

    def _arm_barrier_starvation(self, probability: float) -> None:
        for manager in self.device.launcher.managers:
            original = manager._maybe_release_barrier

            def released(window, cta, _original=original):
                if self._fires("barrier_starvation", probability):
                    return
                _original(window, cta)

            self._patch(manager, "_maybe_release_barrier", released)

    # -- process-level chaos (target: DevicePool) ----------------------------

    def _pool_workers(self, worker: Optional[int]) -> list:
        workers = getattr(self.device, "_workers", None)
        if workers is None:
            raise ValueError(
                "process chaos sites need a DevicePool as the "
                "injector target, not a Device"
            )
        if worker is None:
            return list(workers)
        return [workers[worker]]

    def _arm_kill_worker(
        self,
        probability: float,
        worker: Optional[int] = None,
        op: Optional[str] = "launch",
        when: str = "after_send",
        kernel: Optional[str] = None,
    ) -> None:
        """``kill()`` the worker process around a matching request.
        ``op`` filters which RPC triggers the decision (None = any)
        and ``kernel`` narrows launch requests to one kernel name;
        ``when`` is ``"after_send"`` (request delivered — the future
        fails with ``DeviceLost(delivered=True)``) or
        ``"before_send"``. Either way the decision is taken before the
        send: a request to be killed after it has a ``chaos_hang``
        slipped in ahead (as ``hang_worker`` does), so the worker
        cannot answer it before the kill lands. ``fired`` counts
        kills."""
        doomed = threading.local()

        def kill(target) -> None:
            doomed.kill = False
            self._count("kill_worker")
            target.process.kill()

        for target in self._pool_workers(worker):

            def decide(op_, payload, _target=target,
                       _original=target._hook_before_send):
                doomed.kill = (
                    (op is None or op_ == op)
                    and (kernel is None or payload.get("kernel") == kernel)
                    and self._draws(probability)
                )
                if doomed.kill and when == "after_send":
                    self._slip_hang(_target, _KILL_STALL_S)
                elif doomed.kill:
                    kill(_target)
                _original(op_, payload)

            def fire(op_, payload, _target=target,
                     _original=target._hook_after_send):
                if getattr(doomed, "kill", False):
                    kill(_target)
                _original(op_, payload)

            self._patch(target, "_hook_before_send", decide)
            self._patch(target, "_hook_after_send", fire)

    def _slip_hang(self, target, duration: float) -> None:
        """Send ``target``'s worker a ``chaos_hang`` (request id 0 —
        its reply is never pending, so the parent discards it as
        stale): the worker sleeps ``duration`` seconds before it reads
        whatever is sent next."""
        try:
            target.conn.send((0, "chaos_hang", {"duration": duration}))
        except (OSError, ValueError):
            pass

    def _arm_hang_worker(
        self,
        probability: float,
        worker: Optional[int] = None,
        op: Optional[str] = "launch",
        duration: float = 5.0,
    ) -> None:
        """Wedge the worker's serve loop by slipping a ``chaos_hang``
        into the pipe ahead of the real request, which then sits
        unanswered for ``duration`` seconds."""
        for target in self._pool_workers(worker):
            original = target._hook_before_send

            def fire(op_, payload, _target=target, _original=original):
                if (op is None or op_ == op) and self._fires(
                    "hang_worker", probability
                ):
                    self._slip_hang(_target, duration)
                _original(op_, payload)

            self._patch(target, "_hook_before_send", fire)

    def _arm_kill_during_restore(
        self,
        probability: float,
        worker: Optional[int] = None,
        after_steps: int = 1,
        times: int = 1,
    ) -> None:
        """Kill the worker being restored after ``after_steps``
        restore steps (journal entries replayed) have been applied to
        it, at most ``times`` times overall (so the retried restore
        eventually converges). The in-progress restore fails with
        ``DeviceLost``; the supervisor respawns the worker again and
        retries the restore from scratch on the fresh epoch (a fresh
        arena — nothing is double-applied)."""
        pool = self.device
        if not hasattr(pool, "_hook_restore_step"):
            raise ValueError(
                "kill_during_restore needs a DevicePool as the "
                "injector target, not a Device"
            )
        original = pool._hook_restore_step
        state = {"applied": 0, "kills": 0}

        def fire(worker_, op, _original=original):
            if worker is None or worker_.index == worker:
                state["applied"] += 1
                if (
                    state["applied"] > after_steps
                    and state["kills"] < times
                    and self._fires("kill_during_restore", probability)
                ):
                    state["applied"] = 0
                    state["kills"] += 1
                    try:
                        worker_.process.kill()
                    except OSError:  # pragma: no cover - defensive
                        pass
            _original(worker_, op)

        self._patch(pool, "_hook_restore_step", fire)

    def _arm_drop_pipe(
        self,
        probability: float,
        worker: Optional[int] = None,
        op: Optional[str] = "launch",
    ) -> None:
        """Close the parent's end of the worker pipe just before a
        matching request is sent: the send fails, the worker is marked
        lost with ``delivered=False`` (the request never left the
        parent), and the supervisor recycles the process."""
        for target in self._pool_workers(worker):
            original = target._hook_before_send

            def fire(op_, payload, _target=target, _original=original):
                if (op is None or op_ == op) and self._fires(
                    "drop_pipe", probability
                ):
                    try:
                        _target.conn.close()
                    except OSError:
                        pass
                _original(op_, payload)

            self._patch(target, "_hook_before_send", fire)
