"""Multi-tenant device pool: independent launches sharded across
persistent worker processes, with process-level self-healing.

Each worker process hosts one :class:`~repro.api.device.Device`
(kernels registered at startup, optionally compiled ahead with
``Device.warm()`` — with ``REPRO_CACHE=1`` the persistent translation
cache makes workers warm-startable across pool restarts). Tenants are
pinned to a worker (their allocations live in that worker's arena);
launches of the tenants sharing a worker are scheduled by weighted
fair queueing, and per-tenant quotas bound how much work any one
tenant can have in flight.

Two failure domains are handled separately:

*Launch* faults (KernelTrap / LaunchTimeout / BarrierDeadlock) are the
tenant's: the fault is reported back with its structured payload and
partial statistics, the worker device is recovered immediately
(arena-neutral ``Device.reset()``), and the *tenant* becomes
sticky-failed until ``TenantSession.reset()`` while other tenants on
the same worker keep launching.

*Process* faults are infrastructure's. A worker slot's life is one
state moved only through :data:`SLOT_TRANSITIONS`: a supervisor
thread reaps a crashed, hung or cut-off worker and respawns it warm
at the next *device epoch*. A loss resolves every request in flight
to a :class:`~repro.errors.DeviceLost` naming the worker, the cause
and the epoch that died (its ``delivered`` says whether the request
may have run), so handles nothing rebuilt fail fast instead of
aliasing a stranger's memory. A *durable* session (opt-in; the modes
are :class:`TenantSession`'s) journals what it applied in the
parent's memory, is replayed onto the next epoch bit-identically
behind its unchanged handles, and the launches the loss caught ride
the restore (``restored=True``). DESIGN.md "Failure domains &
recovery" has the slot table and the restore protocol.

Worker processes always use the ``spawn`` start method: it is safe in
threaded parents (the pool runs dispatcher + supervisor threads) and
identical across platforms.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..counting import added, counted, kept, logged, nested, render
from ..errors import (
    BarrierDeadlock,
    DeadlineExpired,
    DeviceLost,
    KernelTrap,
    LaunchError,
    LaunchTimeout,
    QuotaExceeded,
    ServiceUnavailable,
)
from .launcher import LaunchFuture, _normalize_dim
from .statistics import LaunchStatistics, WorkerHealth

#: Most trap report strings retained per tenant.
_TRAP_REPORT_LIMIT = 8

_FAULT_TYPES = (KernelTrap, LaunchTimeout, BarrierDeadlock)

#: Per-session durability modes (see TenantSession).
_DURABILITY_MODES = ("none", "journal", "checkpoint")

#: Times a parked launch may ride through a restore before its
#: DeviceLost is surfaced (bounds kill-loop livelock).
_RESTORE_DISPATCH_LIMIT = 3

#: Seconds a durable session's memory op waits for its restore.
_RESTORE_TIMEOUT = 60.0

#: Seconds a live worker may sit idle before the supervisor pings it.
_PROBE_INTERVAL = 5.0

#: Seconds a shed client is told to wait before retrying (the
#: ``Retry-After`` of a 503).
RETRY_AFTER = 1.0

#: Consecutive losses, with no first reply in between, that leave a
#: worker slot ``broken`` until the pool's cooldown elapses.
_BREAKER_THRESHOLD = 3

#: A worker slot's life: state -> {event: next state}; nothing else
#: moves :attr:`_Worker.state`, and an event a state has no entry for
#: is ignored. DESIGN.md "Failure domains & recovery" tabulates it.
SLOT_TRANSITIONS: Dict[str, Dict[str, str]] = {
    "starting": {"reply": "live", "loss": "lost", "shutdown": "closed"},
    "live": {"loss": "lost", "shutdown": "closed"},
    "lost": {"reap": "down", "trip": "broken", "shutdown": "closed"},
    "down": {"respawn": "starting", "shutdown": "closed"},
    "broken": {"cooldown": "down", "shutdown": "closed"},
    "closed": {},
}

#: The slot states that take calls.
_SERVING = ("starting", "live")

#: Request id of the one message a worker sends unasked, once its
#: device is built: the slot's first reply (request ids start at 1).
_BOOTED = 0


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _describe_error(error: BaseException) -> dict:
    """Serialize an exception into a structured, picklable payload.

    Exceptions themselves don't round-trip a pipe reliably (custom
    ``__init__`` signatures break unpickling), so the worker ships the
    pieces — type name, message, TrapInfo, partial statistics,
    rendered report — and the parent rebuilds an equivalent error."""
    payload = {
        "type": type(error).__name__,
        "message": str(error),
        "kernel": getattr(error, "kernel", None),
    }
    for attribute in ("info", "statistics"):
        try:
            value = getattr(error, attribute, None)
        except Exception:  # pragma: no cover - defensive
            value = None
        payload[attribute] = value
    try:
        from .traps import format_timeout, format_trap

        if isinstance(error, KernelTrap):
            payload["report"] = format_trap(error)
        elif isinstance(error, LaunchTimeout):
            payload["report"] = format_timeout(error)
    except Exception:  # pragma: no cover - report rendering best-effort
        pass
    return payload


def _rebuild_error(payload: dict) -> BaseException:
    """Reconstruct the worker-side exception class from its payload.
    The structured extras ride along: ``info`` (KernelTrap),
    ``statistics`` (partial LaunchStatistics), and ``remote_report``
    (the pre-rendered format_trap/format_timeout text)."""
    kind = payload.get("type", "LaunchError")
    message = payload.get("message", "")
    if kind == "KernelTrap":
        error: BaseException = KernelTrap(message, info=payload.get("info"))
    elif kind == "LaunchTimeout":
        error = LaunchTimeout(message, kernel=payload.get("kernel"))
    elif kind == "BarrierDeadlock":
        error = BarrierDeadlock(message)
    elif kind == "QuotaExceeded":
        error = QuotaExceeded(message)
    elif kind == "LaunchError":
        error = LaunchError(message)
    else:
        error = LaunchError(f"{kind}: {message}")
    error.statistics = payload.get("statistics")
    error.remote_report = payload.get("report")
    return error


class _WorkerDevice:
    """A worker process's side of every op, one public method per op
    name taking the op's payload: one Device and the one table of the
    tenants' buffers, keyed ``(tenant, handle)`` by the handles their
    sessions issue. Every value arrives as a session checked it."""

    def __init__(self, device):
        self.device = device
        self.allocations: Dict[Tuple[str, int], object] = {}
        self.serving = True

    def serve(self, op: str, payload: dict):
        method = None if op.startswith("_") else getattr(self, op, None)
        if method is None:
            raise LaunchError(f"unknown pool worker op {op!r}")
        return method(**payload)

    def _buffer(self, tenant: str, marker: dict):
        """The allocation a ``__handle__`` marker names."""
        found = self.allocations.get((tenant, marker["__handle__"]))
        if found is None:
            raise LaunchError(
                f"allocation handle {marker['__handle__']} of tenant "
                f"{tenant!r} was freed (or never existed)"
            )
        return found

    def register(self, source):
        return sorted(self.device.register_module(source).kernels)

    def malloc(self, tenant, handle, size, label):
        self.allocations[tenant, handle] = self.device.malloc(size, label)

    def upload(self, tenant, handle, data, label):
        self.allocations[tenant, handle] = self.device.upload(data, label)

    def write(self, tenant, allocation, data):
        self._buffer(tenant, allocation).write(data)

    def read(self, tenant, allocation, dtype, count):
        return self._buffer(tenant, allocation).read(dtype, count)

    def free(self, tenant, allocation):
        self.device.free(self._buffer(tenant, allocation))
        del self.allocations[tenant, allocation["__handle__"]]

    def reset(self, tenant):
        self.device.reset()

    def launch(self, tenant, kernel, grid, block, args):
        try:
            return self.device.launch(kernel, grid, block, [
                self._buffer(tenant, value) if isinstance(value, dict)
                else value
                for value in args
            ])
        except _FAULT_TYPES:
            # Recover the shared device immediately: the fault is
            # the *tenant's*, tracked sticky in the parent; other
            # tenants on this worker must keep launching.
            self.device.reset()
            raise

    def snapshot(self, tenant):
        # The tenant's live buffers, in handle order, as the journal
        # entries a checkpoint compacts the journal to.
        return [
            ("upload", handle, found.read(np.uint8, found.size), found.label)
            for (owner, handle), found in sorted(self.allocations.items())
            if owner == tenant
        ]

    def ping(self):
        # Supervision heartbeat: a pure round-trip proving the worker
        # loop is serving requests.
        return {"pid": os.getpid()}

    def statistics(self):
        return self.device.statistics_report()

    def chaos_hang(self, duration):
        # Testing hook (FaultInjector hang_worker): wedge the worker
        # loop so the parent's stuck-call supervision fires. SIGTERM
        # still interrupts the sleep.
        time.sleep(duration)

    def chaos_ignore_term(self):
        # Testing hook: survive terminate() so the parent's terminate
        # -> kill shutdown escalation is exercised.
        import signal

        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        return {"pid": os.getpid()}

    def shutdown(self):
        self.serving = False


def _pool_worker_main(
    conn,
    config,
    machine,
    memory_size: int,
    modules: Sequence[str],
    warm: bool,
) -> None:
    """Entry point of one worker process: builds a Device, registers
    the journaled modules, says so (a ``_BOOTED`` reply), then serves
    (request_id, op, payload) RPCs until shutdown or EOF. ``modules``
    is the parent's full
    module-registration journal, so a respawned worker comes back with
    every module its predecessor knew."""
    from ..api.device import Device

    device = Device(config=config, machine=machine, memory_size=memory_size)
    for source in modules:
        device.register_module(source)
    if warm:
        device.warm()
    conn.send((_BOOTED, True, {"pid": os.getpid()}))
    worker = _WorkerDevice(device)
    while worker.serving:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        request_id, op, payload = request
        try:
            result = worker.serve(op, payload)
        except Exception as error:
            described = _describe_error(error)
            try:
                conn.send((request_id, False, described))
            except Exception:
                described.pop("info", None)
                described.pop("statistics", None)
                conn.send((request_id, False, described))
        else:
            conn.send((request_id, True, result))
    conn.close()


# ---------------------------------------------------------------------------
# parent-side worker handle
# ---------------------------------------------------------------------------


def _lost(worker, epoch, cause, op, delivered) -> DeviceLost:
    return DeviceLost(
        f"pool worker {worker} lost at epoch {epoch}: {cause} "
        f"(during {op!r})",
        worker=worker, cause=cause, epoch=epoch, delivered=delivered,
    )


class _Worker:
    """Parent-side handle of one worker process slot.

    The slot outlives any single worker *process*: its :attr:`state`
    follows :data:`SLOT_TRANSITIONS` (:meth:`fire` is the one mover),
    and each respawn starts a new process in the slot at the next
    device ``epoch``. RPCs are multiplexed over the pipe — the lock
    covers only send/bookkeeping, never the reply wait, so a slow
    launch cannot block ``shutdown()`` or another caller, and replies
    are correlated by request id (a stale reply left over from a
    timed-out call or a lost epoch is drained and discarded, never
    mis-attributed)."""

    def __init__(
        self, index, context, config, machine, memory_size, modules, warm
    ):
        self.index = index
        self._context = context
        self._config = config
        self._machine = machine
        self._memory_size = memory_size
        self._warm = warm
        #: Module-registration journal: every distinct source ever
        #: registered on this slot (pool-wide or by a tenant), replayed
        #: into a respawned worker. A Device re-binds a source it holds
        #: (no parse, no allocation), so each is journaled once.
        self.journal: Dict[str, None] = dict.fromkeys(modules)
        self.state = "starting"
        self.epoch = 0
        self.respawns = 0
        #: Losses since the last first reply (the breaker's count).
        self.failures = 0
        #: Monotonic time of the slot's last transition: when a boot,
        #: a live epoch or a cooldown began.
        self.since = time.monotonic()
        #: Tenant restores completed onto this slot (durability layer)
        #: and the duration of the most recent one.
        self.restores = 0
        self.last_restore_seconds: Optional[float] = None
        self.last_cause: Optional[str] = None
        #: Pool callback fired (outside the lock) on a loss — wakes
        #: the supervisor immediately.
        self._on_lost: Optional[Callable[["_Worker"], None]] = None
        self.lock = threading.RLock()
        self._reply_ready = threading.Condition(self.lock)
        self._request_ids = 0
        #: request_id -> send time (monotonic) of in-flight RPCs.
        self._pending: Dict[int, float] = {}
        #: request_id -> (ok, result) replies awaiting their caller;
        #: ``(None, (epoch, cause))`` for a request a loss resolved.
        self._replies: Dict[int, Tuple[Optional[bool], object]] = {}
        self._reader_active = False
        self.process, self.conn = self._start_process()
        self.last_seen = time.monotonic()

    # -- chaos hooks (patched by testing.FaultInjector) -------------------

    def _hook_before_send(self, op: str, payload: dict) -> None:
        """No-op seam: FaultInjector's parent-side process chaos sites
        (kill_worker / hang_worker / drop_pipe) patch this."""

    def _hook_after_send(self, op: str, payload: dict) -> None:
        """No-op seam, fired after the request reached the pipe."""

    # -- the slot's life ---------------------------------------------------

    def _start_process(self):
        """Start one worker process on a fresh pipe; returns
        ``(process, parent end of the pipe)``."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_pool_worker_main,
            args=(
                child_conn, self._config, self._machine,
                self._memory_size, list(self.journal), self._warm,
            ),
            name=f"repro-pool-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def fire(self, event: str, cause: Optional[str] = None) -> bool:
        """Move the slot along :data:`SLOT_TRANSITIONS` on ``event``;
        returns whether it moved. A ``reap`` at the breaker threshold
        is a ``trip``. What an event counts is kept here too: a loss
        is a failure and a first reply clears them, a respawn starts
        the next epoch, and a slot that stops serving (a loss, or a
        shutdown — for ``cause``) resolves every request in flight."""
        with self.lock:
            if event == "reap" and self.failures >= _BREAKER_THRESHOLD:
                event = "trip"
            state = SLOT_TRANSITIONS[self.state].get(event)
            if state is None:
                return False
            serving = self.state in _SERVING
            self.state = state
            self.since = time.monotonic()
            if event == "loss":
                self.failures += 1
            elif event == "reply":
                self.failures = 0
            elif event == "respawn":
                self.epoch += 1
                self.respawns += 1
            if serving and state not in _SERVING:
                self.last_cause = cause
                for request_id in self._pending:
                    self._replies.setdefault(
                        request_id, (None, (self.epoch, cause))
                    )
                self._pending.clear()
                self._reply_ready.notify_all()
        if event == "loss" and self._on_lost is not None:
            self._on_lost(self)
        return True

    def lost_error(self, op: str) -> DeviceLost:
        """The DeviceLost of a call the slot refuses: its last loss."""
        return _lost(self.index, self.epoch, self.last_cause, op, False)

    def reap(self, timeout: float = 5.0) -> None:
        """Tear down a lost process and fire ``reap``."""
        if self.state == "lost":
            self._teardown(timeout)
            self.fire("reap")

    def _teardown(self, timeout: float) -> None:
        """Close the pipe, terminate, and escalate to kill() for a
        process that survives terminate. Never raises — teardown
        during interpreter exit must be silent."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        process = self.process
        try:
            if process.is_alive():
                process.terminate()
                process.join(timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout)
            if not process.is_alive():
                process.close()
        except (ValueError, OSError):  # pragma: no cover - defensive
            # ValueError: the handle is already closed, or close() on
            # a still-running process (it survived even kill; leave
            # the daemon to die with us).
            pass

    def respawn(self) -> None:
        """Start a replacement process in a ``down`` slot and fire
        ``respawn`` (the next epoch)."""
        if self.state != "down":
            return
        process, conn = self._start_process()
        with self.lock:
            moved = self.fire("respawn")
            if moved:
                self.process, self.conn = process, conn
        if not moved:  # closed while the process started
            conn.close()
            process.kill()
            process.join()

    # -- RPC ---------------------------------------------------------------

    def call(self, op: str, timeout: Optional[float] = None, **payload):
        deadline = None if timeout is None else time.monotonic() + timeout
        self._hook_before_send(op, payload)
        with self.lock:
            if self.state not in _SERVING:
                raise self.lost_error(op)
            self._request_ids += 1
            request_id = self._request_ids
            try:
                self.conn.send((request_id, op, payload))
            except (OSError, ValueError) as error:
                self.fire("loss", f"pipe dropped: {error}")
                raise self.lost_error(op) from error
            self._pending[request_id] = time.monotonic()
        self._hook_after_send(op, payload)
        try:
            ok, result = self._await_reply(request_id, op, deadline, timeout)
        finally:
            with self.lock:
                self._pending.pop(request_id, None)
                self._replies.pop(request_id, None)
        if ok:
            return result
        if ok is None:
            raise _lost(self.index, *result, op, delivered=True)
        raise _rebuild_error(result)

    def _await_reply(self, request_id, op, deadline, timeout):
        """Wait (lock-free) for this request's reply, or for the loss
        that resolved it. One caller at a time volunteers as the pipe
        reader and distributes replies by id; replies whose request is
        no longer pending — e.g. left in the pipe by a call that timed
        out — are discarded."""
        while True:
            with self._reply_ready:
                reply = self._replies.pop(request_id, None)
                if reply is not None:
                    return reply
                if deadline is not None and time.monotonic() > deadline:
                    # Abandon the request: the reply, if it ever
                    # arrives, is discarded by whoever reads it.
                    self._pending.pop(request_id, None)
                    raise LaunchError(
                        f"pool worker {self.index} timed out after "
                        f"{timeout}s during {op!r}"
                    )
                if self._reader_active:
                    self._reply_ready.wait(0.05)
                    continue
            self.poll(0.05)

    def poll(self, wait: float = 0.0) -> None:
        """Read the pipe once, for up to ``wait`` seconds, as its one
        reader — unless a caller is reading it already. The supervisor
        calls it to look at a booting slot nobody is calling."""
        with self._reply_ready:
            if self._reader_active:
                return
            self._reader_active = True
        try:
            self._read_once(wait)
        finally:
            with self._reply_ready:
                self._reader_active = False
                self._reply_ready.notify_all()

    def _read_once(self, wait: float) -> None:
        """One poll of the pipe by its reader: deliver a correlated
        reply, drop a stale one, or detect process death."""
        conn = self.conn
        process = self.process
        try:
            if conn.poll(wait):
                self._deliver(conn.recv(), conn)
                return
        except (EOFError, OSError) as error:
            # Only declare a loss against the pipe we actually read:
            # a reap/respawn may have swapped in a fresh epoch while
            # this poll was blocked on the old (now closed) pipe.
            with self.lock:
                if conn is not self.conn:
                    return
            self.fire(
                "loss", f"pipe closed: {error or type(error).__name__}"
            )
            return
        try:
            alive = process.is_alive()
        except ValueError:
            # reap() closed the handle while this poll was in flight;
            # the respawn (or shutdown) already owns the loss.
            return
        if not alive:
            # The worker may have replied just before exiting: drain
            # what's buffered before declaring the requests lost.
            try:
                while conn.poll(0):
                    self._deliver(conn.recv(), conn)
            except (EOFError, OSError):
                pass
            with self.lock:
                if process is not self.process:
                    return
            self.fire("loss", f"died (exit code {process.exitcode})")

    def _deliver(self, reply, conn) -> None:
        """Take one message read from ``conn``: the worker's boot
        message fires ``reply`` (the slot's first), a reply goes to its
        waiting caller. A message of a process the slot no longer runs,
        or for a request no longer pending (timed out, or resolved by a
        loss), is dropped."""
        reply_id, ok, result = reply
        with self.lock:
            if conn is not self.conn:
                return
            self.last_seen = time.monotonic()
            if reply_id == _BOOTED:
                self.fire("reply")
            elif reply_id in self._pending:
                self._replies[reply_id] = (ok, result)
                self._reply_ready.notify_all()

    def register(self, source: str) -> List[str]:
        """Register a module and journal it for respawn replay (each
        distinct source is journaled once)."""
        kernels = self.call("register", source=source)
        with self.lock:
            self.journal[source] = None
        return kernels

    # -- supervision probes ------------------------------------------------

    def in_flight(self) -> int:
        with self.lock:
            return len(self._pending)

    def oldest_in_flight_age(self) -> Optional[float]:
        """Age of the oldest request in flight, counted from no earlier
        than the slot's last transition: a request sent while the
        worker booted has not been stuck for the boot."""
        with self.lock:
            if not self._pending:
                return None
            oldest = max(min(self._pending.values()), self.since)
            return time.monotonic() - oldest

    def health(self) -> WorkerHealth:
        with self.lock:
            return WorkerHealth(
                worker=self.index,
                alive=self.state in _SERVING and self.process.is_alive(),
                state=self.state,
                epoch=self.epoch,
                respawns=self.respawns,
                failures=self.failures,
                in_flight=len(self._pending),
                last_cause=self.last_cause,
                restores=self.restores,
                last_restore_seconds=self.last_restore_seconds,
            )

    def shutdown(self, timeout: float = 5.0) -> None:
        """Close the slot for good: a graceful shutdown RPC when the
        worker is live and idle, then ``shutdown`` (which resolves any
        request still in flight) and terminate -> kill escalation."""
        if self.state == "live" and self.in_flight() == 0:
            try:
                self.call("shutdown", timeout=timeout)
            except LaunchError:
                pass
        self.fire("shutdown", "pool shut down")
        self._teardown(timeout)


# ---------------------------------------------------------------------------
# weighted fair queueing
# ---------------------------------------------------------------------------


class WeightedFairQueue:
    """Stride scheduler over per-tenant FIFO queues.

    Every tenant carries a virtual *pass*; :meth:`pop` serves the
    backlogged tenant with the smallest pass (ties broken by name for
    determinism) and advances it by ``1 / weight`` — so over any busy
    interval tenants receive service proportional to their weights. A
    tenant going idle re-enters at the current virtual clock (no
    banked credit, no starvation)."""

    def __init__(self):
        self._queues: Dict[str, deque] = {}
        self._weights: Dict[str, float] = {}
        self._passes: Dict[str, float] = {}
        self._clock = 0.0

    def add(self, tenant: str, weight: float = 1.0) -> None:
        # NaN fails both comparisons; an infinite weight would make a
        # stride of zero, served ahead of every co-tenant.
        if not _is_number(weight) or not 0 < weight < math.inf:
            raise ValueError(
                f"weight must be positive and finite, got {weight!r}"
            )
        if tenant in self._queues:
            raise ValueError(f"tenant {tenant!r} already queued")
        self._queues[tenant] = deque()
        self._weights[tenant] = float(weight)
        self._passes[tenant] = self._clock

    def push(self, tenant: str, item) -> None:
        backlog = self._queues[tenant]
        if not backlog:
            self._passes[tenant] = max(self._passes[tenant], self._clock)
        backlog.append(item)

    def pop(self) -> Optional[Tuple[str, object]]:
        candidates = [
            (virtual_pass, tenant)
            for tenant, virtual_pass in self._passes.items()
            if self._queues[tenant]
        ]
        if not candidates:
            return None
        virtual_pass, tenant = min(candidates)
        self._clock = virtual_pass
        self._passes[tenant] = virtual_pass + 1.0 / self._weights[tenant]
        return tenant, self._queues[tenant].popleft()


# ---------------------------------------------------------------------------
# tenants
# ---------------------------------------------------------------------------


@counted
class TenantStatistics:
    """Per-tenant serving counters + merged launch statistics."""

    tenant: str = kept()
    worker: int = kept()
    weight: float = kept()
    submitted: int = added()
    completed: int = added()
    failed: int = added()
    traps: int = added()
    timeouts: int = added()
    rejected: int = added()
    #: Launches that resolved to DeviceLost (their worker's process
    #: crashed, hung, or dropped its pipe while they were in flight).
    device_lost: int = added()
    #: Launches that aged past their request deadline in the queue.
    expired: int = added()
    #: Durability layer: completed restores onto a respawned worker,
    #: total time spent restoring, journal ops replayed, and launches
    #: that rode a restore to success instead of DeviceLost.
    restores: int = added()
    restore_seconds: float = added(0.0)
    replayed_ops: int = added()
    restored_launches: int = added()
    #: Restores abandoned because the replay failed.
    restore_failures: int = added()
    #: Checkpoints taken / bytes snapshotted / attempts that failed
    #: (worker lost mid-snapshot).
    checkpoints: int = added()
    checkpoint_bytes: int = added()
    checkpoint_errors: int = added()
    host_seconds: float = added(0.0)
    #: Merged LaunchStatistics over completed launches and the partial
    #: statistics riding on contained faults.
    statistics: LaunchStatistics = nested(LaunchStatistics)
    #: Most recent rendered trap/timeout reports (bounded).
    trap_reports: List[str] = logged()

    #: One row of the tenant table of ``DevicePool.report()``.
    REPORT_HEADER = (
        f"{'tenant':<16} {'worker':>6} {'weight':>6} {'done':>6} "
        f"{'fail':>5} {'traps':>5} {'lost':>5} "
        f"{'rest':>4} {'ckpt':>4} {'rejected':>8} {'host s':>8}"
    )
    REPORT = (
        "{tenant:<16} {worker:>6} {weight:>6.1f} {completed:>6} "
        "{failed:>5} {traps:>5} {device_lost:>5} "
        "{restores:>4} {checkpoints:>4} {rejected:>8} {host_seconds:>8.2f}",
    )

    def record_trap_report(self, report: Optional[str]) -> None:
        if not report:
            return
        self.trap_reports.append(report)
        del self.trap_reports[:-_TRAP_REPORT_LIMIT]


@dataclass(frozen=True)
class RemoteAllocation:
    """A tenant's handle to a buffer living in its worker's arena.

    ``handle`` is tenant-local, and the worker keys the tenant's
    buffers by it, so it survives a restore onto a respawned worker. A
    session with nothing to restore from fails a pre-loss handle fast
    with :class:`~repro.errors.DeviceLost` instead of aliasing
    whatever the replacement worker put there."""

    tenant: str
    handle: int


class _LaunchJob:
    def __init__(self, future, entry: tuple, deadline=None):
        self.future = future
        #: The launch's journal entry: its args' RemoteAllocations
        #: already replaced by their ``__handle__`` markers.
        self.entry = entry
        self.kernel = entry[1]
        self.submitted_at = time.monotonic()
        #: Absolute queue deadline (monotonic), or None.
        self.deadline = (
            None if deadline is None else self.submitted_at + deadline
        )
        #: Times this job was parked behind a restore (durability);
        #: once it was, ``result.restored`` shows the caller the launch
        #: survived a worker loss.
        self.restore_attempts = 0

    def expired(self, tenant: str) -> Optional[DeadlineExpired]:
        """The DeadlineExpired of a job past its deadline, else None."""
        if self.deadline is None or time.monotonic() <= self.deadline:
            return None
        return DeadlineExpired(
            f"launch of {self.kernel!r} for tenant {tenant!r} aged past "
            f"its {self.deadline - self.submitted_at:.3f}s request "
            "deadline before dispatch"
        )


def _check_int(
    name: str, value, least: Optional[int] = None, optional: bool = False
) -> Optional[int]:
    """Refuse a parameter that is not an int (a bool is not one) of at
    least ``least``; ``optional`` admits None."""
    if value is None and optional:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or (least is not None and value < least)
    ):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an int{bound}, not {value!r}")
    return int(value)


#: What a launch argument may be; a weight or a wait too, if no bool.
_NUMBERS = (int, float, np.integer, np.floating)


def _is_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, _NUMBERS)


def _check_seconds(name: str, value, optional: bool = False):
    """Refuse a wait or a deadline that is not a finite number of
    seconds >= 0 (a bool is not one); ``optional`` admits None."""
    if value is None and optional:
        return None
    if not _is_number(value) or not 0 <= value < math.inf:
        raise ValueError(
            f"{name} must be a finite number of seconds >= 0, not {value!r}"
        )
    return value


def _check_is(name: str, value, kind: type, optional: bool = False):
    if not isinstance(value, kind) and not (value is None and optional):
        raise ValueError(f"{name} must be a {kind.__name__}, not {value!r}")
    return value


def _check_dtype(name: str, value) -> str:
    """The numeric dtype ``value`` names (bool, int, uint or float: the
    kinds guest memory holds and both HTTP encodings carry), as its
    ``str`` — what pickles small."""
    try:
        dtype = None if value is None else np.dtype(value)
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.kind not in "biuf":
        raise ValueError(f"{name} must name a numeric type, not {value!r}")
    return dtype.str


def _check_data(name: str, value) -> np.ndarray:
    try:
        array = np.array(value, copy=True)
    except (TypeError, ValueError) as error:
        raise ValueError(f"{name} is not an array of numbers: {error}")
    _check_dtype(f"{name}'s dtype", array.dtype)
    return array


def _check_args(name: str, value) -> list:
    """A launch's arguments: each a number, a sequence of numbers (an
    array parameter) or a RemoteAllocation. Packing is Device.launch's."""
    if not isinstance(value, (list, tuple)):
        raise LaunchError(f"{name} must be a list, not {value!r}")
    for index, item in enumerate(value):
        array = isinstance(item, (list, tuple, np.ndarray))
        numbers = item if array else [item]
        if not isinstance(item, RemoteAllocation) and not all(
            isinstance(number, _NUMBERS) for number in numbers
        ):
            raise LaunchError(
                f"{name}[{index}] must be a number, numbers or a "
                f"RemoteAllocation, not {item!r}"
            )
    return list(value)


_size = partial(_check_int, least=0)
_text = partial(_check_is, kind=str)

#: Each field of a tenant op -> the check that turns a caller's value
#: into what the worker gets, or refuses it naming the field (a new
#: buffer's ``handle`` is the session's own).
_FIELD_CHECKS: Dict[str, Callable] = {
    "source": _text, "kernel": _text,
    "label": partial(_check_is, kind=str, optional=True),
    "size": _size, "count": _size, "dtype": _check_dtype,
    "data": _check_data,
    "allocation": partial(_check_is, kind=RemoteAllocation),
    "args": _check_args,
    "grid": _normalize_dim, "block": _normalize_dim,
}


class TenantOp(NamedTuple):
    """One tenant op: the :class:`TenantSession` method that makes it,
    its worker payload fields in journal order, whether it mutates
    (then it is journaled, a registration by its worker slot, and never
    resent by a client) and its HTTP reply's key for the result."""

    method: str
    fields: Tuple[str, ...]
    mutates: bool
    reply: Optional[str] = None


#: The tenant API, stated once: the worker serves each op by the method
#: of its name, a session journals its fields in this order, and the
#: HTTP service posts it to ``/v1/<name>``.
OPS: Dict[str, TenantOp] = {
    "register": TenantOp("register_module", ("source",), True, "kernels"),
    "malloc": TenantOp(
        "malloc", ("handle", "size", "label"), True, "allocation"
    ),
    "upload": TenantOp(
        "upload", ("handle", "data", "label"), True, "allocation"
    ),
    "write": TenantOp("write", ("allocation", "data"), True),
    "read": TenantOp("read", ("allocation", "dtype", "count"), False, "data"),
    "free": TenantOp("free", ("allocation",), True),
    "reset": TenantOp("reset", (), True),
    "launch": TenantOp(
        "launch_async", ("kernel", "grid", "block", "args"), True
    ),
}


class TenantSession:
    """One tenant's connection to the pool: pinned to a worker, with
    its own quotas, weight, durability, sticky-error state, and
    statistics. It hands out *tenant-local* allocation handles, which
    the worker keys the tenant's buffers by, and serializes its own
    ops under its state lock, held across the worker RPC (journal
    order must match execution order; co-tenants' RPCs are
    multiplexed). ``durability`` selects what a worker loss costs the
    tenant (DESIGN.md "State durability & restore"):

    ``"none"``
        The default. Nothing is journaled: handles made before the
        loss fail fast with ``DeviceLost(cause="stale allocation
        epoch")``, and a launch the loss caught fails with it (its
        ``delivered`` says whether it may have run).
    ``"journal"``
        Every op that mutates is journaled in the parent; the
        supervisor replays the journal onto the respawned worker
        (bit-identically: execution is deterministic) under the same
        handles, and the launches the loss caught ride the restore.
    ``"checkpoint"``
        Journal plus compaction (every ``checkpoint_interval``
        executed launches, or :meth:`checkpoint`) to one ``upload``
        per live buffer, held in the parent's memory."""

    def __init__(
        self,
        pool: "DevicePool",
        tenant: str,
        worker: _Worker,
        weight: float = 1.0,
        max_pending: Optional[int] = None,
        max_launches: Optional[int] = None,
        durability: str = "none",
        checkpoint_interval: int = 32,
    ):
        self.pool = pool
        self.tenant = tenant
        self.weight = weight
        self.max_pending = max_pending
        self.max_launches = max_launches
        self.durability = durability
        self.checkpoint_interval = checkpoint_interval
        self._worker = worker
        self.stats = TenantStatistics(
            tenant=tenant, worker=worker.index, weight=weight
        )
        #: Sticky per-tenant fault: set when one of this tenant's
        #: launches traps; cleared by :meth:`reset`. Infrastructure
        #: failures (DeviceLost) are *not* sticky — the respawned
        #: worker serves the tenant's next launch.
        self.last_error: Optional[BaseException] = None
        self._pending = 0
        self._condition = threading.Condition()
        #: Operation journal: the entries (:meth:`_entry`) of the ops
        #: that mutate, in worker execution order, which :meth:`_apply`
        #: runs; durability="none" never appends, and :meth:`checkpoint`
        #: compacts it to one upload per live buffer.
        self._journal: List[tuple] = []
        self._next_local = 1
        #: Local handles below this were lost with a worker epoch
        #: that nothing rebuilt (durability="none", or a failed
        #: restore) — what the worker, a fresh process, cannot know.
        self._stale_below = 1
        #: Worker epoch the tenant's buffers are valid for; a respawn
        #: bumps the worker epoch and :meth:`_restore` catches this up.
        #: The tenant's whole lifecycle is this one comparison
        #: (:meth:`_ready_now`): behind the worker's epoch, it parks
        #: launches and waits (or, with nothing to replay, lets its
        #: handles go stale); level with it, it serves.
        self._ready_epoch = worker.epoch
        #: Serializes operations + journal appends + restore.
        self._state_lock = threading.RLock()
        self._restored = threading.Condition(self._state_lock)
        #: Launches caught by a worker loss, waiting for restore.
        self._parked_lock = threading.Lock()
        self._parked: List[_LaunchJob] = []
        self._launches_since_checkpoint = 0

    @property
    def worker_index(self) -> int:
        return self._worker.index

    @property
    def pending(self) -> int:
        """Launches submitted but not yet completed (queue depth)."""
        with self._condition:
            return self._pending

    # -- memory & modules -------------------------------------------------

    def register_module(self, source: str) -> List[str]:
        """Register a module on this tenant's worker. Kernel names are
        the worker's, not the tenant's: the last registration of a name
        binds it for every tenant there. The slot journals the source,
        whatever the session's durability."""
        _, source = self._entry("register", (source,))
        return self._run(lambda worker: worker.register(source))

    def malloc(
        self, size: int, label: Optional[str] = None
    ) -> RemoteAllocation:
        return self._allocate("malloc", size, label)

    def upload(
        self, array: np.ndarray, label: Optional[str] = None
    ) -> RemoteAllocation:
        return self._allocate("upload", array, label)

    def _allocate(self, name: str, *values) -> RemoteAllocation:
        with self._state_lock:
            local = self._next_local
            self._call(name, local, *values)
            self._next_local += 1
            return RemoteAllocation(self.tenant, local)

    def write(self, allocation: RemoteAllocation, array) -> None:
        self._call("write", allocation, array)

    def read(
        self, allocation: RemoteAllocation, dtype, count: int
    ) -> np.ndarray:
        return self._call("read", allocation, dtype, count)

    def free(self, allocation: RemoteAllocation) -> None:
        self._call("free", allocation)

    def reset(self) -> None:
        """Clear this tenant's sticky fault (the worker device was
        already recovered when the fault was contained)."""
        self._call("reset")
        self.last_error = None

    # -- the one state path -------------------------------------------------

    @property
    def _rides_out_loss(self) -> bool:
        """Whether a worker loss is absorbed (memory ops wait for the
        restore and retry, launches park) or surfaced as DeviceLost."""
        return self.durability != "none"

    def _absorbs(self, error: BaseException) -> bool:
        return (
            self._rides_out_loss
            and isinstance(error, DeviceLost)
            and error.cause not in ("restore failed", "stale allocation epoch")
        )

    def _record(self, entry: tuple) -> None:
        """Journal an op that is now known to have executed."""
        if self.durability != "none":
            self._journal.append(entry)

    def _fresh(self, local: int) -> int:
        """``local``, unless it was lost with a worker epoch nothing
        rebuilt. Whether a handle was freed, or never existed, the
        worker answers."""
        if local >= self._stale_below:
            return local
        worker = self._worker
        raise DeviceLost(
            f"allocation handle {local} of tenant {self.tenant!r} "
            f"was created before device epoch {self._ready_epoch}, "
            f"but worker {worker.index} was lost and respawned; "
            f"its memory is gone — re-allocate and re-upload",
            worker=worker.index,
            cause="stale allocation epoch",
            epoch=self._ready_epoch - 1,
            delivered=False,
        )

    def _marker(self, value):
        """``value`` (an entry's fields, one of them or a launch's
        arguments) with each buffer in it as the ``__handle__`` marker
        the worker resolves, once it is this tenant's and not stale."""
        if isinstance(value, list):
            return [self._marker(item) for item in value]
        if isinstance(value, dict):  # a marker: is it still fresh?
            return {"__handle__": self._fresh(value["__handle__"])}
        if not isinstance(value, RemoteAllocation):
            return value
        if value.tenant != self.tenant:
            raise LaunchError(
                f"allocation belongs to tenant "
                f"{value.tenant!r}, not {self.tenant!r}"
            )
        handle = _check_int("allocation id", value.handle)
        return {"__handle__": self._fresh(handle)}

    def _entry(self, name: str, values: Sequence[object]) -> tuple:
        """The journal entry of op ``name`` with ``values``, each as its
        field's check returns it: a bad one is refused before anything
        is sent, counted or journaled."""
        return (name, *[
            self._marker(
                value if field == "handle"
                else _FIELD_CHECKS[field](field, value)
            )
            for field, value in zip(OPS[name].fields, values)
        ])

    def _call(self, name: str, *values):
        """Make op ``name`` with ``values`` on the live worker; one that
        mutates is journaled after it ran, under the same hold of the
        lock, so the journal is the worker's execution order."""
        entry = self._entry(name, values)
        with self._state_lock:
            result = self._run(partial(self._apply, entry=entry))
            if OPS[name].mutates:
                self._record(entry)
            return result

    def _apply(self, worker: _Worker, entry: tuple):
        """The one op applier: send ``entry`` to ``worker``, for the
        public methods, the dispatcher and :meth:`_replay` alike, once
        none of the buffers it names is stale."""
        name, *fields = entry
        if self._stale_below > 1:  # a handle went stale: one of these?
            fields = self._marker(fields)
        return worker.call(
            name, tenant=self.tenant, **dict(zip(OPS[name].fields, fields))
        )

    def _run(self, send: Callable[[_Worker], object]):
        """Make one op other than a launch on the live worker:
        ``send(worker)``. A DeviceLost the session absorbs is waited out
        and retried — safe because the failed attempt was never
        journaled: the restore rewinds the worker to the journaled
        state, and the retry re-applies the op exactly once."""
        with self._state_lock:
            self._await_ready_locked()
            attempts = 0
            while True:
                try:
                    return send(self._worker)
                except DeviceLost as error:
                    attempts += 1
                    if (
                        not self._absorbs(error)
                        or attempts >= _RESTORE_DISPATCH_LIMIT
                    ):
                        raise
                    self._await_ready_locked()

    def _ready_now(self) -> bool:
        """True when the worker serves and the session is level with
        its epoch (no restore pending). Lock-free: reads of these fields
        are atomic and restore publishes ``_ready_epoch`` last."""
        worker = self._worker
        return worker.state in _SERVING and self._ready_epoch == worker.epoch

    def _await_ready_locked(self, block: bool = True) -> None:
        """Bring the session up to the worker's live epoch (under
        ``_state_lock``). A session that surfaces losses never waits:
        it catches up inline, and if the worker is still lost the RPC
        that follows fails fast. One that rides them out waits (lock
        released) for the supervisor's restore — or, with
        ``block=False``, raises ``restore pending`` so the launch
        parks: the per-worker dispatcher is shared and must never
        block on a restore. A slot that will not come back (closed, or
        in a pool with supervision or respawn off) raises its loss at
        once."""
        if self._ready_now():
            return
        worker = self._worker
        if not self._rides_out_loss:
            self._restore(worker)
            return
        deadline = time.monotonic() + _RESTORE_TIMEOUT
        while not self._ready_now():
            if worker.state == "closed" or not self.pool._recovers:
                raise worker.lost_error("restore")
            if not block:
                raise DeviceLost(
                    f"tenant {self.tenant!r} is not yet restored onto "
                    f"worker {worker.index}",
                    worker=worker.index,
                    cause="restore pending",
                    epoch=worker.epoch,
                    delivered=False,
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeviceLost(
                    f"tenant {self.tenant!r} was not restored onto "
                    f"worker {worker.index} within "
                    f"{_RESTORE_TIMEOUT}s",
                    worker=worker.index,
                    cause="restore timeout",
                    epoch=worker.epoch,
                    delivered=False,
                )
            self._restored.wait(min(0.05, remaining))

    # -- launches ----------------------------------------------------------

    def launch_async(
        self,
        kernel: str,
        grid,
        block,
        args: Sequence[object] = (),
        deadline: Optional[float] = None,
    ) -> LaunchFuture:
        """Queue one launch through the pool's fair scheduler; returns
        a LaunchFuture of what :meth:`launch` would return or raise (a
        trap is sticky until :meth:`reset`). ``deadline`` (seconds)
        bounds queue wait: a launch not dispatched in time fails with
        :class:`~repro.errors.DeadlineExpired` instead of running
        late. Every field, and a deadline that is not None or a finite
        number >= 0, is refused before the launch is counted."""
        entry = self._entry("launch", (kernel, grid, block, args))
        _check_seconds("deadline", deadline, optional=True)
        self.pool._admit()
        if self.last_error is not None:
            raise LaunchError(
                f"tenant {self.tenant!r} is in a failed state "
                f"({type(self.last_error).__name__}: {self.last_error}); "
                f"call TenantSession.reset() to clear it"
            )
        with self._condition:
            if (
                self.max_launches is not None
                and self.stats.submitted >= self.max_launches
            ):
                self.stats.rejected += 1
                raise QuotaExceeded(
                    f"tenant {self.tenant!r} exhausted its lifetime "
                    f"launch quota ({self.max_launches})"
                )
            if (
                self.max_pending is not None
                and self._pending >= self.max_pending
            ):
                self.stats.rejected += 1
                raise QuotaExceeded(
                    f"tenant {self.tenant!r} has {self._pending} "
                    f"launches outstanding (quota {self.max_pending}); "
                    f"collect results before submitting more"
                )
            self.stats.submitted += 1
            self._pending += 1
        future = LaunchFuture(kernel)
        job = _LaunchJob(future, entry, deadline=deadline)
        try:
            self.pool._submit(self, job)
        except Exception:
            with self._condition:
                self.stats.submitted -= 1
                self._pending -= 1
                self._condition.notify_all()
            raise
        return future

    def launch(self, kernel: str, grid, block, args: Sequence[object] = ()):
        """Synchronous launch: submit + wait."""
        return self.launch_async(kernel, grid, block, args).result()

    def synchronize(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted launch has completed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while self._pending:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise LaunchError(
                            f"tenant {self.tenant!r} still has "
                            f"{self._pending} launches outstanding "
                            f"after {timeout}s"
                        )
                self._condition.wait(remaining)

    # -- introspection ------------------------------------------------------

    def statistics(self) -> TenantStatistics:
        """A snapshot: the live record keeps changing under the
        dispatcher's hand."""
        with self._condition:
            return self.stats.snapshot()

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> Optional[int]:
        """Compact the journal: snapshot every live allocation on the
        worker and replace the journal with one ``upload`` per buffer,
        in handle order — the entries replay runs first, so restore
        replays the snapshot plus the ops since. Returns the number of
        checkpoints taken so far, or ``None`` when the worker was lost
        mid-snapshot (the journal is left as it was). Requires
        ``durability="checkpoint"``."""
        if self.durability != "checkpoint":
            raise LaunchError(
                f"tenant {self.tenant!r} has durability="
                f"{self.durability!r}; checkpoints need "
                f"durability=\"checkpoint\""
            )
        with self._state_lock:
            self._await_ready_locked()
            try:
                snapshot = self._worker.call("snapshot", tenant=self.tenant)
            except DeviceLost:
                self.stats.checkpoint_errors += 1
                return None
            self._journal = snapshot
            self.stats.checkpoints += 1
            self.stats.checkpoint_bytes += sum(
                data.nbytes for _, _, data, _ in snapshot
            )
            self._launches_since_checkpoint = 0
            return self.stats.checkpoints

    def _maybe_checkpoint(self) -> None:
        """Auto-checkpoint trigger, fired by the dispatcher after a
        completed launch (outside the session's accounting locks)."""
        if (
            self.durability != "checkpoint"
            or self._launches_since_checkpoint < self.checkpoint_interval
        ):
            return
        try:
            self.checkpoint()
        except (LaunchError, DeviceLost):
            pass

    # -- dispatch & restore (called by pool threads) ------------------------

    def _launch_on_worker(self, worker: _Worker, job: _LaunchJob):
        """Run one launch RPC for the pool dispatcher, and journal it
        once it is known to have executed (success or contained
        fault). A launch that fails with DeviceLost is *not*
        journaled — the restore rewinds guest state to before it ran,
        which is what makes re-dispatching even a delivered casualty
        safe."""
        entry = job.entry
        with self._state_lock:
            self._await_ready_locked(block=False)
            fault = None
            try:
                result = self._apply(worker, entry)
            except _FAULT_TYPES as error:
                # A contained fault still executed (deterministically,
                # partial writes included): replay must reproduce it.
                fault = error
            self._record(entry)
            self._launches_since_checkpoint += 1
            if fault is not None:
                raise fault
            return result

    def _parks(self, job: _LaunchJob, error: BaseException) -> bool:
        """Whether a launch that failed with ``error`` waits for the
        worker's next epoch (:meth:`_park`): a loss a durable session
        absorbs — the restore rewinds guest state to before any
        un-journaled launch, so even a delivered casualty is safe to
        re-dispatch — at most ``_RESTORE_DISPATCH_LIMIT`` times, and
        only in a pool that brings a lost slot back."""
        if (
            not self.pool._recovers
            or not self._absorbs(error)
            or job.restore_attempts >= _RESTORE_DISPATCH_LIMIT
        ):
            return False
        job.restore_attempts += 1
        return True

    def _park(self, job: _LaunchJob) -> None:
        """Park a launch until the session catches up with the
        worker's next epoch or it may wait no longer."""
        with self._parked_lock:
            self._parked.append(job)
        self._release_parked()

    def _parked_error(self, job: _LaunchJob) -> Optional[BaseException]:
        """Why a parked launch may wait no longer — its slot closed or
        its deadline passed — or None while it may."""
        if self._worker.state == "closed":
            return self._worker.lost_error(job.kernel)
        return job.expired(self.tenant)

    def _release_parked(self, error: Optional[BaseException] = None):
        """Settle the parked launches: fail each with ``error``, or with
        :meth:`_parked_error`; re-queue the rest once the session is
        level with the worker; keep them otherwise. Everything it reads
        is published before it is called — by :meth:`_park`, the
        catch-up, a closing slot and every supervisor pass — so no
        wakeup is lost."""
        if not self._parked:
            return
        failed, level = [], []
        with self._parked_lock:
            ready = self._ready_now()
            waiting = []
            for job in self._parked:
                reason = error or self._parked_error(job)
                if reason is not None:
                    failed.append((job, reason))
                else:
                    (level if ready else waiting).append(job)
            self._parked = waiting
        for job, reason in failed:
            self._fail(job, reason)
        for job in level:
            self.pool._requeue(self, job)

    def _restore(self, worker: _Worker) -> None:
        """Catch this session up to a respawned worker's epoch, then
        re-queue its parked launches.

        With nothing journaled (durability="none") there is nothing
        to rebuild from: every handle issued so far goes stale,
        inline — no RPC. Otherwise
        (supervisor thread) :meth:`_replay` rebuilds the guest state.
        Raises DeviceLost when the worker dies mid-restore; the next
        supervision pass retries on the following epoch."""
        with self._state_lock:
            if self._ready_now() or worker.state not in _SERVING:
                return
            epoch = worker.epoch
            if self.durability == "none":
                self._stale_below = self._next_local
            elif not self._replay(worker):
                return
            self._ready_epoch = epoch
            self._restored.notify_all()
        self._release_parked()

    def _replay(self, worker: _Worker) -> bool:
        """Rebuild the guest state by running the journal, in order,
        through the same applier the live methods use — deterministic
        execution guarantees the rebuilt guest memory is
        bit-identical, under the same tenant-local handles. False when
        the replay failed (:meth:`_restore_failed`)."""
        started = time.monotonic()
        try:
            for entry in self._journal:
                self.pool._hook_restore_step(worker, entry[0])
                try:
                    self._apply(worker, entry)
                except _FAULT_TYPES:
                    # Deterministic replay reproduces a launch's
                    # original contained fault (partial writes
                    # included); the worker device already reset
                    # itself.
                    pass
        except DeviceLost:
            raise
        except Exception as error:
            # A non-infrastructure replay failure is deterministic:
            # retrying cannot converge.
            self._restore_failed(worker, f"replay error: {error}")
            return False
        elapsed = time.monotonic() - started
        self.stats.restores += 1
        self.stats.restore_seconds += elapsed
        self.stats.replayed_ops += len(self._journal)
        with worker.lock:
            worker.restores += 1
            worker.last_restore_seconds = elapsed
        return True

    def _restore_failed(self, worker: _Worker, reason: str) -> None:
        """Give up restoring (the replay failed): every handle
        issued so far goes stale — what a partial replay left on the
        worker stays out of reach — the session is published ready
        with an empty journal so it stays usable, and the parked
        launches fail with a structured DeviceLost."""
        self.stats.restore_failures += 1
        self._stale_below = self._next_local
        self._journal = []
        self._ready_epoch = worker.epoch
        self._restored.notify_all()
        self._release_parked(DeviceLost(
            f"tenant {self.tenant!r} could not be restored onto "
            f"worker {worker.index}: {reason}",
            worker=worker.index,
            cause="restore failed",
            epoch=worker.epoch,
            delivered=False,
        ))

    # -- internal accounting (called by the pool dispatcher) ---------------

    def _fail(self, job: _LaunchJob, error: BaseException) -> None:
        job.future._fail(error)
        self._complete(job, None, error)

    def _complete(self, job: _LaunchJob, result, error) -> None:
        elapsed = time.monotonic() - job.submitted_at
        with self._condition:
            self.stats.host_seconds += elapsed
            if error is None:
                self.stats.completed += 1
                self.stats.statistics.merge(result.statistics)
            else:
                self.stats.failed += 1
                if isinstance(error, KernelTrap):
                    self.stats.traps += 1
                elif isinstance(error, LaunchTimeout):
                    self.stats.timeouts += 1
                elif isinstance(error, DeviceLost):
                    self.stats.device_lost += 1
                elif isinstance(error, DeadlineExpired):
                    self.stats.expired += 1
                partial = getattr(error, "statistics", None)
                if partial is not None:
                    self.stats.statistics.merge(partial)
                self.stats.record_trap_report(
                    getattr(error, "remote_report", None)
                )
                if isinstance(error, _FAULT_TYPES):
                    self.last_error = error
            self._pending -= 1
            self._condition.notify_all()


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class DevicePool:
    """Shards independent kernel launches across persistent worker
    processes, with per-tenant quotas, weighted fair queueing,
    per-tenant statistics/trap reporting, and process-level
    self-healing (supervision, warm respawn, a breaker on repeated
    losses, and restore of durable sessions).

    ::

        pool = DevicePool(workers=4, modules=[PTX], warm=True)
        session = pool.session("alice", weight=2.0, max_pending=8,
                               durability="journal")
        buffer = session.upload(host_array)
        future = session.launch_async("vecAdd", grid=8, block=64,
                                      args=[buffer, buffer, out, n])
        result = future.result()
        pool.shutdown()

    Workers always start with ``spawn``. Supervision knobs:
    ``supervise`` runs the health thread (on by default); ``respawn``
    re-creates lost workers warm (off: a lost slot closes for good); a
    live worker is declared hung with a request in flight longer than
    ``hang_timeout`` seconds, or when idle for ``_PROBE_INTERVAL`` (5 s)
    it misses a heartbeat within ``probe_timeout`` — a starting one,
    when it has not booted ``probe_timeout`` seconds after its spawn;
    a broken slot cools down for ``circuit_cooldown`` seconds. A
    durable session's lost launch parks for the next epoch only while
    ``supervise`` and ``respawn`` are both on. The pool's own
    :attr:`state` is ``serving``, ``draining`` (:meth:`drain`) or
    ``closed``. ``state_dir`` is accepted and ignored: a checkpoint
    lives in the parent's memory (:meth:`TenantSession.checkpoint`),
    and the argument stays only for callers written when it named a
    checkpoint directory."""

    def __init__(
        self,
        workers: int = 2,
        config=None,
        machine=None,
        memory_size: int = 1 << 26,
        modules: Sequence[str] = (),
        warm: bool = False,
        supervise: bool = True,
        respawn: bool = True,
        hang_timeout: Optional[float] = 120.0,
        probe_timeout: float = 30.0,
        circuit_cooldown: float = 2.0,
        state_dir: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError(f"invalid worker count {workers}")
        context = multiprocessing.get_context("spawn")
        self.state = "serving"
        self._respawn = respawn
        #: Whether a lost slot comes back by itself: only then does a
        #: launch caught by the loss park for the next epoch.
        self._recovers = supervise and respawn
        self._hang_timeout = hang_timeout
        self._probe_timeout = probe_timeout
        self._cooldown = circuit_cooldown
        self._workers = [
            _Worker(
                index, context, config, machine, memory_size,
                modules, warm,
            )
            for index in range(workers)
        ]
        for worker in self._workers:
            worker._on_lost = self._worker_lost
        self._sessions: Dict[str, TenantSession] = {}
        #: Guards the session table and moves of :attr:`state`.
        self._sessions_lock = threading.Lock()
        self._queues = [WeightedFairQueue() for _ in self._workers]
        self._conditions = [threading.Condition() for _ in self._workers]
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(worker,),
                name=f"repro-pool-dispatch-{worker.index}",
                daemon=True,
            )
            for worker in self._workers
        ]
        for dispatcher in self._dispatchers:
            dispatcher.start()
        self._supervisor_wake = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop,
                name="repro-pool-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "DevicePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop admitting new launches (submissions fail with
        :class:`~repro.errors.ServiceUnavailable`), then block until
        every already-queued launch has completed."""
        with self._sessions_lock:
            if self.state == "serving":
                self.state = "draining"
        deadline = None if timeout is None else time.monotonic() + timeout
        for session in self.sessions():
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            session.synchronize(timeout=remaining)

    def shutdown(self) -> None:
        """Stop supervision and dispatchers, then close every worker
        slot (terminating its process, escalating to kill for
        survivors). Queued launches that never ran fail fast through
        their futures; a dispatcher blocked on a slow worker is
        interrupted rather than waited out."""
        with self._sessions_lock:
            if self.state == "closed":
                return
            self.state = "closed"
        self._supervisor_wake.set()
        for condition in self._conditions:
            with condition:
                condition.notify_all()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10)
        # Interrupt any dispatcher (or tenant thread) still waiting on
        # a worker reply, and fail what was parked on the slots.
        for worker in self._workers:
            self._close_slot(worker)
        for dispatcher in self._dispatchers:
            dispatcher.join(timeout=10)
        # Fail whatever never got dispatched.
        for queue_ in self._queues:
            while (entry := queue_.pop()) is not None:
                tenant, job = entry
                self._sessions[tenant]._fail(
                    job, LaunchError("device pool was shut down")
                )

    def _close_slot(self, worker: _Worker) -> None:
        """Close a worker slot for good (pool shutdown, or a loss with
        respawn off) and fail its tenants' parked launches with the
        slot's loss."""
        worker.shutdown()
        for session in self.sessions():
            if session._worker is worker:
                session._release_parked()

    # -- tenants -----------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._workers)

    def register_module(self, source: str) -> List[str]:
        """Register a module on every worker (pool-wide kernels). Once
        any worker took it, every slot journals it, so a lost worker's
        respawn registers it; raises only when no worker took it."""
        taken = []
        for worker in self._workers:
            try:
                taken.append(worker.register(source))
            except LaunchError as error:
                refusal = error
        if not taken:
            raise refusal
        for worker in self._workers:
            with worker.lock:
                worker.journal[source] = None
        return taken[0]

    def ready(self, timeout: Optional[float] = None) -> None:
        """Block until every worker process has finished starting up
        (device built, modules registered, warm() done). Purely a
        round-trip; new tenants can launch immediately afterwards
        without paying worker-start latency."""
        for worker in self._workers:
            worker.call("statistics", timeout=timeout)

    def session(
        self,
        tenant: str,
        weight: float = 1.0,
        max_pending: Optional[int] = None,
        max_launches: Optional[int] = None,
        worker: Optional[int] = None,
        durability: str = "none",
        checkpoint_interval: int = 32,
    ) -> TenantSession:
        """Create (or fetch) the tenant's session, pinned to the
        least-populated worker unless ``worker`` pins one.
        ``durability`` is :class:`TenantSession`'s; ``checkpoint_
        interval`` its auto-checkpoint period in executed launches.
        Each parameter is checked before anything is stored (a
        non-empty str ``tenant``, a positive finite ``weight``, ints in
        range, None where it is optional); a bad one is a ValueError."""
        if not isinstance(tenant, str) or not tenant:
            raise ValueError(f"tenant must be a non-empty str, not {tenant!r}")
        if durability not in _DURABILITY_MODES:
            raise ValueError(
                f"unknown durability {durability!r} "
                f"(have {_DURABILITY_MODES})"
            )
        _check_int("max_pending", max_pending, least=1, optional=True)
        _check_int("max_launches", max_launches, least=0, optional=True)
        _check_int("worker", worker, optional=True)
        _check_int("checkpoint_interval", checkpoint_interval, least=1)
        with self._sessions_lock:
            existing = self._sessions.get(tenant)
            if existing is not None:
                return existing
            if worker is None:
                population = {index: 0 for index in range(self.workers)}
                for session in self._sessions.values():
                    population[session.worker_index] += 1
                worker = min(
                    population, key=lambda index: (population[index], index)
                )
            if not 0 <= worker < self.workers:
                raise ValueError(
                    f"worker {worker} out of range (have {self.workers})"
                )
            session = TenantSession(
                self,
                tenant,
                self._workers[worker],
                weight=weight,
                max_pending=max_pending,
                max_launches=max_launches,
                durability=durability,
                checkpoint_interval=checkpoint_interval,
            )
            # The queue validates the weight: a refused one leaves no
            # session behind.
            with self._conditions[worker]:
                self._queues[worker].add(tenant, weight)
            self._sessions[tenant] = session
            return session

    def sessions(self) -> List[TenantSession]:
        with self._sessions_lock:
            return list(self._sessions.values())

    # -- scheduling --------------------------------------------------------

    def _admit(self) -> None:
        """Gate new submissions: closed and draining pools shed."""
        if self.state == "closed":
            raise LaunchError("device pool is shut down")
        if self.state == "draining":
            raise ServiceUnavailable(
                "device pool is draining for shutdown",
                retry_after=RETRY_AFTER,
            )

    def _submit(self, session: TenantSession, job: _LaunchJob) -> None:
        self._admit()
        self._requeue(session, job)

    def _requeue(self, session: TenantSession, job: _LaunchJob) -> None:
        """Enter a job into its worker's fair queue: a new one, or a
        parked one its session released."""
        if self.state == "closed":
            session._fail(job, LaunchError("device pool was shut down"))
            return
        index = session.worker_index
        with self._conditions[index]:
            self._queues[index].push(session.tenant, job)
            self._conditions[index].notify()

    def _dispatch_job(
        self, worker: _Worker, session: TenantSession, job: _LaunchJob
    ) -> None:
        if session.last_error is not None:
            # Sticky tenant fault: fail queued launches fast, like
            # Device.launch on a faulted device.
            session._fail(job, LaunchError(
                f"tenant {session.tenant!r} is in a failed state "
                f"({type(session.last_error).__name__}); call "
                f"TenantSession.reset() to clear it"
            ))
            return
        expired = job.expired(session.tenant)
        if expired is not None:
            session._fail(job, expired)
            return
        try:
            result = session._launch_on_worker(worker, job)
        except Exception as error:
            if session._parks(job, error):
                session._park(job)
            else:
                session._fail(job, error)
        else:
            if job.restore_attempts:
                result.restored = True
                session.stats.restored_launches += 1
            job.future._resolve(result)
            session._complete(job, result, None)
            session._maybe_checkpoint()

    def _dispatch_loop(self, worker: _Worker) -> None:
        queue_ = self._queues[worker.index]
        condition = self._conditions[worker.index]
        while True:
            with condition:
                while (entry := queue_.pop()) is None:
                    if self.state == "closed":
                        return
                    condition.wait(0.5)
            tenant, job = entry
            self._dispatch_job(worker, self._sessions[tenant], job)

    def synchronize(self) -> None:
        """Block until every tenant's submitted launches completed."""
        for session in self.sessions():
            session.synchronize()

    # -- supervision -------------------------------------------------------

    def _worker_lost(self, worker: _Worker) -> None:
        """Loss callback from any thread: wake the supervisor now."""
        self._supervisor_wake.set()

    def _hook_restore_step(self, worker: _Worker, op: str) -> None:
        """No-op seam fired before every restore step (each journal
        entry replayed); the testing FaultInjector's
        ``kill_during_restore`` site patches this."""

    def _restore_tenants(self, worker: _Worker) -> None:
        """Catch up every tenant pinned to a live worker that lags the
        worker's epoch. Idempotent; a worker lost
        mid-restore is retried on the next supervision pass."""
        for session in self.sessions():
            if (
                session.worker_index != worker.index
                or session._ready_now()
            ):
                continue
            try:
                session._restore(worker)
            except DeviceLost:
                return  # lost again mid-restore; next pass retries

    def _supervise_loop(self) -> None:
        while True:
            self._supervisor_wake.wait(0.1)
            self._supervisor_wake.clear()
            for worker in self._workers:
                if self.state == "closed":
                    return
                try:
                    self._supervise_worker(worker)
                except Exception:  # pragma: no cover - must survive
                    pass
            for session in self.sessions():
                session._release_parked()

    def _supervise_worker(self, worker: _Worker) -> None:
        """Apply the slot's rule until the slot stays put (a loss is
        reaped and respawned in one pass), then catch its tenants up
        if it is live."""
        while self.state != "closed":
            state = worker.state
            self._supervise_step(worker, state)
            if worker.state == state:
                break
        if worker.state == "live":
            self._restore_tenants(worker)

    def _supervise_step(self, worker: _Worker, state: str) -> None:
        """Read the slot's state, fire the event its rule calls for."""
        now = time.monotonic()
        if state == "lost":
            worker.reap()
        elif state == "down":
            if self._respawn:
                worker.respawn()
            else:
                self._close_slot(worker)
        elif state == "broken":
            if now - worker.since >= self._cooldown:
                worker.fire("cooldown")
        elif state in _SERVING:
            process = worker.process
            age = worker.oldest_in_flight_age()
            if not process.is_alive():
                # Let the elected reader drain any final replies
                # first; if nobody is waiting, declare the loss here.
                if age is None:
                    worker.fire(
                        "loss", f"died (exit code {process.exitcode})"
                    )
            elif state == "starting":
                # Only the boot is judged here: the worker says it is
                # booted, unasked, once its device is built (a caller
                # waiting on a reply reads that; otherwise this look).
                if now - worker.since > self._probe_timeout:
                    worker.fire(
                        "loss",
                        f"hung: not booted within {self._probe_timeout}s",
                    )
                else:
                    worker.poll()
            elif self._hang_timeout is not None and (
                age is not None and age > self._hang_timeout
            ):
                worker.fire(
                    "loss",
                    f"hung: request in flight for {age:.1f}s "
                    f"(hang timeout {self._hang_timeout}s)",
                )
            elif age is None and now - worker.last_seen >= _PROBE_INTERVAL:
                self._probe(worker)

    def _probe(self, worker: _Worker) -> None:
        """Ping an idle live worker; a timeout is a hang. Only a worker
        that *should* have been idle is declared hung — a request
        racing in behind the ping legitimately delays the reply."""
        try:
            worker.call("ping", timeout=self._probe_timeout)
        except DeviceLost:
            pass  # lost meanwhile; the loss is already declared
        except LaunchError:
            if worker.in_flight() == 0:
                worker.fire(
                    "loss",
                    f"hung: missed heartbeat (no ping reply in "
                    f"{self._probe_timeout}s)",
                )

    # -- reporting ---------------------------------------------------------

    def statistics(self) -> Dict[str, TenantStatistics]:
        return {
            session.tenant: session.statistics()
            for session in self.sessions()
        }

    def health(self) -> List[WorkerHealth]:
        """Supervision snapshot of every worker slot."""
        return [worker.health() for worker in self._workers]

    def worker_reports(self) -> List[str]:
        """Each worker device's ``statistics_report()`` line."""
        return [worker.call("statistics") for worker in self._workers]

    def report(self) -> str:
        """Pool-level serving report: per-tenant counters, worker
        health, and the aggregate."""
        tenants = self.statistics()
        lines = [
            f"== device pool: {self.workers} workers, "
            f"{len(tenants)} tenants ==",
            TenantStatistics.REPORT_HEADER,
        ]
        total = TenantStatistics(tenant="aggregate", worker=-1, weight=0.0)
        for _, stats in sorted(tenants.items()):
            lines.append(render(stats))
            total.merge(stats)
        lines.append("worker health:")
        for health in self.health():
            lines.append(f"  {health.describe()}")
        lines.append(
            f"aggregate: launches={total.completed} "
            f"failures={total.failed} traps={total.traps} "
            f"device-lost={total.device_lost} "
            f"instructions={total.statistics.instructions} "
            f"modeled cycles={total.statistics.total_cycles}"
        )
        return "\n".join(lines)
