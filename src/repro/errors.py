"""Exception hierarchy for the repro dynamic compilation framework."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class PTXSyntaxError(ReproError):
    """Raised by the PTX parser on malformed source.

    Carries the line/column of the offending token when available.
    """

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PTXValidationError(ReproError):
    """Raised when a parsed PTX module violates a structural invariant."""


class TranslationError(ReproError):
    """Raised when PTX cannot be translated to the scalar IR."""


class IRVerificationError(ReproError):
    """Raised by the IR verifier when a function is malformed."""


class VectorizationError(ReproError):
    """Raised when the vectorization transform encounters an
    instruction it cannot replicate or promote."""


class ExecutionError(ReproError):
    """Raised by the vector machine interpreter on a runtime fault
    (bad address, type mismatch, unsupported opcode)."""


class MemoryFault(ExecutionError):
    """Out-of-bounds or misaligned access in the simulated memory."""

    def __init__(self, address, size, reason="out-of-bounds access"):
        super().__init__(f"{reason}: address=0x{address:x} size={size}")
        self.address = address
        self.size = size
        self.reason = reason


class SanitizerError(ExecutionError):
    """A checked-mode violation detected by the kernel sanitizer
    (out-of-bounds access into a redzone, use-after-free, read of
    uninitialized memory, or an unsynchronized shared-memory race).

    Raised inside checked guest memory access when
    ``ExecutionConfig(sanitize=..., sanitize_fatal=True)``, so it is
    contained at the warp-execution boundary like any other
    :class:`ExecutionError` and surfaces as a :class:`KernelTrap`. The
    structured finding (kind, coordinates, offending allocation,
    conflicting access) rides on ``report`` (a
    :class:`repro.sanitizer.SanitizerReport`).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InstructionLimitExceeded(ExecutionError):
    """The per-warp-execution instruction budget ran out (either the
    interpreter's hard backstop or a watchdog budget installed by the
    execution manager)."""


class DeadlineExceeded(ExecutionError):
    """Internal watchdog signal: the wall-clock deadline passed while a
    warp was executing. Converted to :class:`LaunchTimeout` (with the
    full live-thread report) at the warp-execution boundary."""


class KernelTrap(ExecutionError):
    """A runtime fault contained at the warp-execution boundary.

    Wraps the underlying :class:`ExecutionError` (memory fault, bad
    opcode, type mismatch, ...) with full execution context: kernel
    name, grid/CTA/thread coordinates of the faulting lanes, the block
    label and instruction index at the fault, warp composition, and a
    bounded register snapshot. The structured payload lives on
    ``info`` (a :class:`repro.runtime.traps.TrapInfo`); render it with
    :func:`repro.runtime.traps.format_trap`.
    """

    def __init__(self, message, info=None):
        super().__init__(message)
        self.info = info


class LaunchTimeout(ReproError):
    """A launch exceeded its watchdog budget (``max_kernel_cycles`` or
    ``launch_timeout_s``). ``program_points`` lists every live thread's
    CTA/thread coordinates, scheduling state, and program point, so
    barrier livelock and runaway loops are diagnosable instead of
    hanging the host."""

    def __init__(self, message, kernel=None, program_points=()):
        super().__init__(message)
        self.kernel = kernel
        self.program_points = list(program_points)


class LaunchError(ReproError):
    """Raised by the runtime API for invalid launch configurations."""


class BarrierDeadlock(LaunchError):
    """Threads are parked at a barrier that can never be released.
    ``waiting`` lists a :class:`repro.runtime.traps.ProgramPoint` (CTA
    and thread coordinates + entry point) for every stranded thread."""

    def __init__(self, message, waiting=()):
        super().__init__(message)
        self.waiting = list(waiting)


class QuotaExceeded(LaunchError):
    """A tenant exceeded one of its :class:`repro.runtime.pool.DevicePool`
    quotas (outstanding launches or lifetime launch budget). The launch
    was rejected before it was queued; the tenant's other work is
    unaffected."""


class DeviceLost(LaunchError):
    """A pool worker *process* was lost: it crashed (segfault/OOM/
    nonzero exit), hung past the supervision deadline, or its pipe
    broke. Unlike a contained :class:`KernelTrap` — which is the
    *tenant's* failure — a lost device is an infrastructure failure:
    the supervisor terminates and respawns the worker warm, every
    in-flight launch on it resolves to this error, and the worker's
    allocations are invalidated (their epoch no longer matches).

    ``worker``
        Index of the lost worker in the pool.
    ``cause``
        Human-readable loss cause (``"exit code -11"``,
        ``"hung: ..."``, ``"pipe dropped: ..."``).
    ``epoch``
        The device epoch that died. The respawned worker runs at
        ``epoch + 1``; a :class:`repro.runtime.pool.RemoteAllocation`
        of an older epoch that its session could not rebuild fails
        fast when used.
    ``delivered``
        True when the request had already been handed to the worker
        (it may have started mutating guest memory); False when the
        loss was detected before the request left the parent (it never
        ran). The pool re-dispatches nothing for a non-durable session:
        its caller reads this flag to decide whether to resubmit. A slot
        closed for good (pool shut down, or respawn off) refuses every
        later call with its last loss, ``delivered=False``.

    Sessions opened with ``durability="journal"`` or ``"checkpoint"``
    usually absorb this error instead of surfacing it: the pool
    restores the tenant's guest state onto the respawned worker
    (checkpoint load + deterministic journal replay) and re-dispatches
    the casualties, so callers keep their handles and never observe
    the loss. Durable sessions can still surface it with restore-
    specific causes: ``"restore pending"`` (internal — a dispatch
    raced the restore and was parked/re-queued), ``"restore timeout"``
    (the worker did not come back within 60 s), and ``"restore
    failed"`` (no valid state survived; the session's journal was reset
    and its pre-loss handles are stale).
    """

    def __init__(
        self, message, worker=None, cause=None, epoch=None,
        delivered=True,
    ):
        super().__init__(message)
        self.worker = worker
        self.cause = cause
        self.epoch = epoch
        self.delivered = delivered


class DeadlineExpired(LaunchError):
    """A queued launch aged past its request deadline before it was
    dispatched to a worker. The launch never ran; guest memory is
    untouched. Deadlines bound *queue wait* — a launch that has
    already been handed to a worker is governed by the device watchdog
    (``max_kernel_cycles`` / ``launch_timeout_s``) instead."""


class ServiceUnavailable(LaunchError):
    """The serving layer shed this request: the global or per-tenant
    queue depth limit was reached, or the server is draining for
    shutdown. Maps to HTTP 503 with a ``Retry-After`` header;
    ``retry_after`` carries the suggested backoff in seconds."""

    def __init__(self, message, retry_after=None):
        super().__init__(message)
        self.retry_after = retry_after


class TranslationCacheError(ReproError):
    """Raised when the translation cache cannot satisfy a query."""
