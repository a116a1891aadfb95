"""The kernel sanitizer facade: checked guest memory access.

One :class:`KernelSanitizer` attaches to a device's
:class:`~repro.machine.memory.MemorySystem` (``memory.sanitizer``) and
its :class:`~repro.machine.interpreter.Interpreter`. When attached:

- ``MemorySystem.allocate``/``free`` route through the shadow layer
  (redzones, registry, quarantine — :mod:`repro.sanitizer.shadow`);
- the interpreter prints memory instructions against its *checked*
  access template — calls of :meth:`guest_load` / :meth:`guest_store`
  etc. with the program point as arguments — which
  classify every access before performing it and feed shared accesses
  to the race detector (:mod:`repro.sanitizer.racecheck`);
- findings become :class:`~repro.errors.SanitizerError` (fatal mode —
  contained as a KernelTrap at the warp boundary) or accumulate as
  deduplicated :class:`SanitizerReport` objects per launch (non-fatal
  mode), drained onto ``LaunchStatistics.sanitizer`` by the launcher.

The three checks are independent: ``memcheck`` (redzones,
use-after-free, wild/null addresses), ``racecheck`` (shared-memory
hazards within one barrier interval), ``initcheck`` (reads of
never-written allocation payload). Shadow state is maintained whenever
any check is on, so the checks compose without lying to each other.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional, Tuple

from ..errors import SanitizerError
from ..machine.memory import GuestAccess
from .racecheck import RaceDetector
from .reports import (
    AccessInfo,
    SanitizerReport,
    format_sanitizer_report,
)
from .shadow import ShadowMemory

#: Canonical check names, in canonical order.
SANITIZE_CHECKS = ("memcheck", "racecheck", "initcheck")

_KIND_VERBS = {
    "oob": "out-of-bounds",
    "use-after-free": "use-after-free",
    "invalid": "invalid",
    "uninit-read": "uninitialized",
}

_SPACE_NAMES = {True: "shared", False: "global"}


def normalize_checks(sanitize) -> Tuple[str, ...]:
    """Normalize an ``ExecutionConfig.sanitize`` value: ``False``/empty
    -> (), ``True`` -> all checks, a name or iterable of names ->
    validated tuple in canonical order."""
    if sanitize is True:
        return SANITIZE_CHECKS
    if not sanitize:
        return ()
    if isinstance(sanitize, str):
        wanted = (sanitize,)
    else:
        wanted = tuple(sanitize)
    for check in wanted:
        if check not in SANITIZE_CHECKS:
            raise ValueError(
                f"unknown sanitizer check {check!r} "
                f"(expected a subset of {SANITIZE_CHECKS})"
            )
    return tuple(c for c in SANITIZE_CHECKS if c in wanted)


def apply_sanitize_env(config):
    """Resolve the ``REPRO_SANITIZE`` environment alias onto a config:
    ``1``/``true``/``all`` enables every check, a comma-separated list
    enables a subset. A config that already sanitizes is returned
    unchanged."""
    value = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    if not value or value == "0":
        return config
    if config.sanitize:
        return config
    if value in ("1", "true", "on", "all"):
        checks = True
    else:
        names = tuple(
            part for part in value.replace("+", ",").split(",") if part
        )
        try:
            checks = normalize_checks(names)
        except ValueError:
            checks = True
    return dataclasses.replace(config, sanitize=checks)


class KernelSanitizer(GuestAccess):
    """Checked-execution services for one device (see module docs): the
    guest-access seam, checking every access before it forwards it."""

    #: Guard bytes on each side of every payload (and between the
    #: per-thread local segments).
    REDZONE_BYTES = 16

    def __init__(
        self,
        memory,
        checks=SANITIZE_CHECKS,
        fatal: bool = True,
        quarantine_bytes: int = 1 << 20,
        max_reports: int = 64,
    ):
        super().__init__(memory)
        self.checks = normalize_checks(checks) or SANITIZE_CHECKS
        self.memcheck = "memcheck" in self.checks
        self.racecheck = "racecheck" in self.checks
        self.initcheck = "initcheck" in self.checks
        self.fatal = fatal
        self.max_reports = max_reports
        self.shadow = ShadowMemory(
            memory,
            redzone=self.REDZONE_BYTES,
            quarantine_capacity=quarantine_bytes,
        )
        self.race = RaceDetector()
        #: Kernel of the launch in flight (begin_launch).
        self.kernel: Optional[str] = None
        #: Non-fatal findings of the launch in flight.
        self.reports: List[SanitizerReport] = []
        #: Findings dropped after max_reports distinct sites.
        self.suppressed = 0
        #: Leak-check findings of the last Device.reset().
        self.leak_reports: List[SanitizerReport] = []
        self._seen: dict = {}

    # -- allocation routing (called by MemorySystem) -------------------------

    def allocate(self, size, align=16, kind="device", label=None) -> int:
        return self.shadow.allocate(size, align=align, kind=kind, label=label)

    def free(self, address: int, size: int) -> None:
        self.shadow.free(address, size)

    def note_host_write(self, address: int, size: int) -> None:
        self.shadow.note_host_write(address, size)

    def reset(self) -> None:
        self.shadow.reset()
        self.race.begin_launch()
        self.reports = []
        self._seen = {}
        self.suppressed = 0

    # -- launch lifecycle ----------------------------------------------------

    def begin_launch(self, kernel: str) -> None:
        self.kernel = kernel
        self.reports = []
        self._seen = {}
        self.suppressed = 0
        self.race.begin_launch()

    def barrier_released(self, cta: int) -> None:
        if self.racecheck:
            self.race.barrier_released(cta)

    def take_reports(self) -> List[SanitizerReport]:
        reports, self.reports = self.reports, []
        self._seen = {}
        return reports

    # -- the checked guest access path --------------------------------------

    def check_access(
        self, state, lane, address, size, is_write, shared, label,
        index, atomic,
    ) -> None:
        finding = self.shadow.check(
            address, size, is_write,
            want_init=self.initcheck and not is_write,
        )
        if finding is not None:
            kind, record, detail = finding
            wanted = (
                self.initcheck if kind == "uninit-read" else self.memcheck
            )
            if wanted:
                self._emit(
                    self._access_report(
                        kind, state, lane, address, size, is_write,
                        shared, label, index, record, detail,
                    )
                )
        if shared and self.racecheck:
            context = state.contexts[lane]
            conflict = self.race.record(
                cta=context.linear_ctaid,
                thread=context.linear_tid,
                ctaid=context.ctaid,
                tid=context.tid,
                address=address,
                size=size,
                is_write=is_write,
                atomic=atomic,
                label=label,
                index=index,
            )
            if conflict is not None:
                self._emit(
                    self._race_report(
                        state, lane, address, size, is_write, atomic,
                        label, index, conflict,
                    )
                )

    # -- leak check ----------------------------------------------------------

    def leak_check(self) -> List[SanitizerReport]:
        """List device allocations that were never freed (called by
        ``Device.reset()``). Informational: buffers surviving a reset
        are by design, but a workload that mallocs per iteration
        without freeing shows up here."""
        reports: List[SanitizerReport] = []
        for record in sorted(
            self.shadow.live_records(), key=lambda r: r.sequence
        ):
            if record.kind != "device":
                continue
            reports.append(
                SanitizerReport(
                    kind="leak",
                    kernel=self.kernel or "<no launch>",
                    message=(
                        f"{record.size} bytes at 0x{record.base:x} "
                        f"never freed"
                    ),
                    address=record.base,
                    size=record.size,
                    allocation=record.info(),
                )
            )
        self.leak_reports = reports
        return reports

    # -- report assembly -----------------------------------------------------

    def _access_report(
        self, kind, state, lane, address, size, is_write, shared,
        label, index, record, detail,
    ) -> SanitizerReport:
        context = state.contexts[lane]
        access = "store" if is_write else "load"
        verb = _KIND_VERBS.get(kind, kind)
        message = (
            f"{verb} {access} of {size} byte(s) at 0x{address:x} "
            f"({detail})"
        )
        return SanitizerReport(
            kind=kind,
            kernel=self.kernel or state.executable.name,
            message=message,
            address=address,
            size=size,
            ctaid=context.ctaid,
            tid=context.tid,
            block_label=label,
            op_index=index,
            space=_SPACE_NAMES[bool(shared)],
            allocation=record.info() if record is not None else None,
        )

    def _race_report(
        self, state, lane, address, size, is_write, atomic, label,
        index, conflict,
    ) -> SanitizerReport:
        context = state.contexts[lane]
        access = "store" if is_write else "load"
        prior = conflict.prior_access()
        record = self.shadow.find_record(address)
        message = (
            f"shared-memory race on byte 0x{conflict.byte:x} "
            f"(barrier interval {conflict.epoch}): {access} of "
            f"{size} byte(s) at 0x{address:x} is unordered against "
            f"a {'write' if prior.write else 'read'} by another thread"
        )
        return SanitizerReport(
            kind="race",
            kernel=self.kernel or state.executable.name,
            message=message,
            address=address,
            size=size,
            ctaid=context.ctaid,
            tid=context.tid,
            block_label=label,
            op_index=index,
            space="shared",
            allocation=record.info() if record is not None else None,
            conflict=AccessInfo(
                ctaid=prior.ctaid,
                tid=prior.tid,
                block_label=prior.block_label,
                op_index=prior.op_index,
                write=prior.write,
                atomic=prior.atomic,
            ),
        )

    def _emit(self, report: SanitizerReport) -> None:
        if self.fatal:
            raise SanitizerError(
                format_sanitizer_report(report), report=report
            )
        key = report.dedup_key()
        existing = self._seen.get(key)
        if existing is not None:
            existing.count += 1
            return
        if len(self.reports) >= self.max_reports:
            self.suppressed += 1
            return
        self._seen[key] = report
        self.reports.append(report)


__all__ = [
    "KernelSanitizer",
    "SANITIZE_CHECKS",
    "apply_sanitize_env",
    "normalize_checks",
]
