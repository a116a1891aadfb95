"""Runtime statistics: the quantities Figures 6-10 are built from."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..counting import (
    added,
    added_by_key,
    counted,
    kept,
    logged,
    nested,
    render,
)
from ..ir.instructions import ResumeStatus
from ..machine.interpreter import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sanitizer.reports import SanitizerReport
    from .translation_cache import CacheStatistics


@counted
class WorkerHealth:
    """Supervision snapshot of one :class:`~repro.runtime.pool.
    DevicePool` worker, rendered into ``DevicePool.report()``.

    ``state`` is the slot's state (``repro.runtime.pool.
    SLOT_TRANSITIONS``): ``"starting"`` (a process is booting: it
    takes calls but has not yet said it is booted), ``"live"`` (it
    has),
    ``"lost"`` (a loss was declared; the process awaits its reap),
    ``"down"`` (reaped, awaiting respawn), ``"broken"`` (three
    consecutive losses: respawns are suspended until the cooldown
    elapses) or ``"closed"`` (for good: the pool shut down, or
    respawn is off). ``alive`` is a serving slot whose process runs.
    ``epoch`` counts respawns: a handle of an older epoch that its
    session could not rebuild is invalid."""

    worker: int = kept()
    alive: bool = kept()
    state: str = kept()
    epoch: int = kept()
    respawns: int = added()
    #: losses since the last boot (the breaker's count)
    failures: int = kept(0)
    in_flight: int = kept(0)
    last_cause: Optional[str] = kept(None)
    #: durable-tenant restores completed onto this worker's epochs
    restores: int = added()
    #: wall-clock seconds of the most recent restore (None if never)
    last_restore_seconds: Optional[float] = kept(None)

    REPORT = (
        "worker {worker}: {liveness} state={state} epoch={epoch} "
        "respawns={respawns} failures={failures} in-flight={in_flight}",
        ("restores={restores}", "restores"),
        ("last {last_restore_seconds:.3f}s", "last_restore_seconds"),
        ("({last_cause})", "last_cause"),
    )

    def describe(self) -> str:
        return render(
            self, " ", liveness="alive" if self.alive else "LOST"
        )


@counted
class LaunchStatistics(ExecutionStats):
    """Aggregated over all execution managers of one kernel launch.

    What a warp execution counts itself is inherited: ``kernel_cycles``
    (inside vectorized subkernels — useful work), ``yield_cycles``
    (compiler-inserted yield machinery: spill/restore/scheduler —
    Fig. 9's "yield" category), dynamic IR ``instructions`` and
    single-precision ``flops``."""

    #: cycles spent in the execution manager itself (warp formation,
    #: barrier bookkeeping, status updates — Fig. 9's "EM" category)
    em_cycles: int = added()
    #: kernel entries per warp size (Fig. 7)
    warp_size_histogram: Dict[int, int] = added_by_key()
    #: total threads entering kernels (sum over entries of warp size)
    thread_entries: int = added()
    #: total live values restored across all thread entries (Fig. 8)
    values_restored: int = added()
    #: yields by resume status
    yields_by_status: Dict[int, int] = added_by_key()
    #: number of warp executions
    warp_executions: int = added()
    #: threads launched
    threads_launched: int = added()
    #: per-worker total cycles
    worker_cycles: Dict[int, int] = added_by_key()
    #: runtime faults contained as structured KernelTraps (a trapped
    #: launch raises, but its partial statistics still carry the count)
    traps: int = added()
    #: watchdog expiries (cycle budget or wall-clock deadline)
    watchdog_timeouts: int = added()
    #: warp executions that went through the array backend's batched
    #: path (a host-efficiency counter — it does not participate in
    #: modeled-statistics equivalence between backends)
    batched_warps: int = added()
    #: of those, warps that left their batch through a continuation
    #: and finished sequentially (a host counter like it)
    batch_fallbacks: int = added()
    #: divergent-branch diamonds the melding pass removed from this
    #: launch's kernel (static per-kernel count attached by the
    #: KernelLauncher; the dynamic effect shows up as fewer
    #: THREAD_BRANCH yields and lower cycle totals)
    melded_regions: int = added()
    #: meldable candidate regions the melding pass declined
    #: (unprofitable or structurally unsafe)
    meld_rejections: int = added()
    #: cycles per region execution the profitability model predicts
    #: saved across all melded regions of the kernel
    meld_predicted_saving: float = added(0.0)
    #: translation-cache activity attributed to this launch (the delta
    #: of the device cache's counters over the launch, attached by the
    #: KernelLauncher); None until attached
    cache: Optional[CacheStatistics] = nested()
    #: non-fatal sanitizer findings of this launch (populated by the
    #: KernelLauncher when checked execution runs with
    #: ``sanitize_fatal=False``; always empty in fatal mode, where the
    #: first finding raises instead)
    sanitizer: List[SanitizerReport] = logged()

    # -- derived metrics -----------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return self.kernel_cycles + self.yield_cycles + self.em_cycles

    @property
    def elapsed_cycles(self) -> int:
        """Wall-clock cycles: the slowest worker (workers run
        concurrently on separate cores)."""
        if not self.worker_cycles:
            return self.total_cycles
        return max(self.worker_cycles.values())

    def elapsed_seconds(self, clock_hz: float) -> float:
        return self.elapsed_cycles / clock_hz

    def gflops(self, clock_hz: float) -> float:
        seconds = self.elapsed_seconds(clock_hz)
        if seconds == 0:
            return 0.0
        return self.flops / seconds / 1e9

    @property
    def average_warp_size(self) -> float:
        if self.warp_executions == 0:
            return 0.0
        return self.thread_entries / self.warp_executions

    def warp_size_fractions(self) -> Dict[int, float]:
        """Fraction of kernel entries at each warp size (Fig. 7)."""
        total = sum(self.warp_size_histogram.values())
        if total == 0:
            return {}
        return {
            size: count / total
            for size, count in sorted(self.warp_size_histogram.items())
        }

    @property
    def average_values_restored(self) -> float:
        """Average live values restored per thread entry (Fig. 8)."""
        if self.thread_entries == 0:
            return 0.0
        return self.values_restored / self.thread_entries

    def cycle_fractions(self) -> Dict[str, float]:
        """Fraction of cycles in EM / yield / subkernel (Fig. 9)."""
        total = self.total_cycles
        if total == 0:
            return {"em": 0.0, "yield": 0.0, "kernel": 0.0}
        return {
            "em": self.em_cycles / total,
            "yield": self.yield_cycles / total,
            "kernel": self.kernel_cycles / total,
        }

    @property
    def divergent_yields(self) -> int:
        return self.yields_by_status.get(ResumeStatus.THREAD_BRANCH, 0)

    @property
    def barrier_yields(self) -> int:
        return self.yields_by_status.get(ResumeStatus.THREAD_BARRIER, 0)

    REPORT = (
        "threads launched     {threads_launched}",
        "warp executions      {warp_executions}",
        "average warp size    {average_warp_size:.2f}",
        "avg values restored  {average_values_restored:.2f}",
        "cycles (EM/yld/krn)  {em_cycles}/{yield_cycles}/{kernel_cycles}",
        "cycle fractions      em={fractions[em]:.2%} "
        "yield={fractions[yield]:.2%} kernel={fractions[kernel]:.2%}",
        "elapsed              {elapsed_ms:.3f} ms ({gflops:.1f} GFLOP/s)",
        "robustness           traps={traps} watchdog={watchdog_timeouts}",
        (
            "batching             warps={batched_warps} "
            "fell back={batch_fallbacks}",
            "batched_warps",
        ),
        (
            "melding              regions={melded_regions} "
            "rejected={meld_rejections} "
            "predicted saving={meld_predicted_saving:.1f} cycles",
            "melded_regions meld_rejections",
        ),
        ("{cache}", "cache"),
        ("sanitizer            {sanitizer_summary}", "sanitizer"),
    )

    def report(self, clock_hz: float = 3.4e9) -> str:
        by_kind: Dict[str, int] = {}
        for finding in self.sanitizer:
            count = getattr(finding, "count", 1)
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + count
        return render(
            self,
            average_warp_size=self.average_warp_size,
            average_values_restored=self.average_values_restored,
            fractions=self.cycle_fractions(),
            elapsed_ms=self.elapsed_seconds(clock_hz) * 1e3,
            gflops=self.gflops(clock_hz),
            sanitizer_summary=" ".join(
                f"{kind}={count}" for kind, count in sorted(by_kind.items())
            ),
        )
