"""Runtime statistics: the quantities Figures 6-10 are built from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..ir.instructions import ResumeStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sanitizer.reports import SanitizerReport
    from .translation_cache import CacheStatistics


@dataclass
class WorkerHealth:
    """Supervision snapshot of one :class:`~repro.runtime.pool.
    DevicePool` worker, rendered into ``DevicePool.report()``.

    ``state`` is the worker's circuit-breaker state: ``"closed"``
    (healthy), ``"open"`` (too many consecutive infrastructure
    failures — respawns are suspended until the cooldown elapses),
    or ``"half-open"`` (cooldown elapsed; the next respawn+probe
    decides). ``epoch`` counts respawns: allocations stamped with an
    older epoch are invalid."""

    worker: int
    alive: bool
    state: str
    epoch: int
    respawns: int = 0
    consecutive_failures: int = 0
    in_flight: int = 0
    last_cause: Optional[str] = None
    #: durable-tenant restores completed onto this worker's epochs
    restores: int = 0
    #: wall-clock seconds of the most recent restore (None if never)
    last_restore_seconds: Optional[float] = None

    def describe(self) -> str:
        cause = f" ({self.last_cause})" if self.last_cause else ""
        restored = ""
        if self.restores:
            latency = (
                f" last {self.last_restore_seconds:.3f}s"
                if self.last_restore_seconds is not None
                else ""
            )
            restored = f" restores={self.restores}{latency}"
        return (
            f"worker {self.worker}: "
            f"{'alive' if self.alive else 'LOST'} "
            f"state={self.state} epoch={self.epoch} "
            f"respawns={self.respawns} "
            f"failures={self.consecutive_failures} "
            f"in-flight={self.in_flight}{restored}{cause}"
        )


@dataclass
class LaunchStatistics:
    """Aggregated over all execution managers of one kernel launch."""

    #: cycles spent inside vectorized subkernels (useful work)
    kernel_cycles: int = 0
    #: cycles spent in compiler-inserted yield machinery
    #: (spill/restore/scheduler — Fig. 9's "yield" category)
    yield_cycles: int = 0
    #: cycles spent in the execution manager itself (warp formation,
    #: barrier bookkeeping, status updates — Fig. 9's "EM" category)
    em_cycles: int = 0
    #: dynamic IR instructions executed
    instructions: int = 0
    #: single-precision floating point operations executed
    flops: int = 0
    #: kernel entries per warp size (Fig. 7)
    warp_size_histogram: Dict[int, int] = field(default_factory=dict)
    #: total threads entering kernels (sum over entries of warp size)
    thread_entries: int = 0
    #: total live values restored across all thread entries (Fig. 8)
    values_restored: int = 0
    #: yields by resume status
    yields_by_status: Dict[int, int] = field(default_factory=dict)
    #: number of warp executions
    warp_executions: int = 0
    #: threads launched
    threads_launched: int = 0
    #: per-worker total cycles (kernel + yield + em)
    worker_cycles: Dict[int, int] = field(default_factory=dict)
    #: runtime faults contained as structured KernelTraps (a trapped
    #: launch raises, but its partial statistics still carry the count)
    traps: int = 0
    #: watchdog expiries (cycle budget or wall-clock deadline)
    watchdog_timeouts: int = 0
    #: warp executions that ran at a narrower width than configured
    #: because a wider specialization failed and was degraded
    degraded_warps: int = 0
    #: warp executions that went through the array backend's batched
    #: path (a host-efficiency counter — it does not participate in
    #: modeled-statistics equivalence between backends)
    batched_warps: int = 0
    #: of those, warps that left their batch through a continuation
    #: and finished sequentially (a host counter like it)
    batch_fallbacks: int = 0
    #: divergent-branch diamonds the melding pass removed from this
    #: launch's kernel (static per-kernel count attached by the
    #: KernelLauncher; the dynamic effect shows up as fewer
    #: THREAD_BRANCH yields and lower cycle totals)
    melded_regions: int = 0
    #: meldable candidate regions the melding pass declined
    #: (unprofitable or structurally unsafe)
    meld_rejections: int = 0
    #: cycles per region execution the profitability model predicts
    #: saved across all melded regions of the kernel
    meld_predicted_saving: float = 0.0
    #: translation-cache activity attributed to this launch (the delta
    #: of the device cache's counters over the launch, attached by the
    #: KernelLauncher); None until attached
    cache: Optional["CacheStatistics"] = None
    #: non-fatal sanitizer findings of this launch (populated by the
    #: KernelLauncher when checked execution runs with
    #: ``sanitize_fatal=False``; always empty in fatal mode, where the
    #: first finding raises instead)
    sanitizer: List["SanitizerReport"] = field(default_factory=list)

    # -- accumulation ------------------------------------------------------

    def record_entry(
        self, worker_id: int, warp_size: int, restored_values: int
    ) -> None:
        self.warp_executions += 1
        self.warp_size_histogram[warp_size] = (
            self.warp_size_histogram.get(warp_size, 0) + 1
        )
        self.thread_entries += warp_size
        self.values_restored += restored_values * warp_size

    def record_yield(self, status: int) -> None:
        self.yields_by_status[status] = (
            self.yields_by_status.get(status, 0) + 1
        )

    def merge(self, other: "LaunchStatistics") -> None:
        self.kernel_cycles += other.kernel_cycles
        self.yield_cycles += other.yield_cycles
        self.em_cycles += other.em_cycles
        self.instructions += other.instructions
        self.flops += other.flops
        self.thread_entries += other.thread_entries
        self.values_restored += other.values_restored
        self.warp_executions += other.warp_executions
        self.threads_launched += other.threads_launched
        self.traps += other.traps
        self.watchdog_timeouts += other.watchdog_timeouts
        self.degraded_warps += other.degraded_warps
        self.batched_warps += other.batched_warps
        self.batch_fallbacks += other.batch_fallbacks
        self.melded_regions += other.melded_regions
        self.meld_rejections += other.meld_rejections
        self.meld_predicted_saving += other.meld_predicted_saving
        for key, value in other.warp_size_histogram.items():
            self.warp_size_histogram[key] = (
                self.warp_size_histogram.get(key, 0) + value
            )
        for key, value in other.yields_by_status.items():
            self.yields_by_status[key] = (
                self.yields_by_status.get(key, 0) + value
            )
        for key, value in other.worker_cycles.items():
            self.worker_cycles[key] = (
                self.worker_cycles.get(key, 0) + value
            )
        if other.cache is not None:
            if self.cache is None:
                self.cache = other.cache.snapshot()
            else:
                self.cache.merge(other.cache)
        self.sanitizer.extend(other.sanitizer)

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

    def report(self, clock_hz: float = 3.4e9) -> str:
        fractions = self.cycle_fractions()
        lines = [
            f"threads launched     {self.threads_launched}",
            f"warp executions      {self.warp_executions}",
            f"average warp size    {self.average_warp_size:.2f}",
            f"avg values restored  "
            f"{self.average_values_restored:.2f}",
            f"cycles (EM/yld/krn)  {self.em_cycles}/"
            f"{self.yield_cycles}/{self.kernel_cycles}",
            f"cycle fractions      em={fractions['em']:.2%} "
            f"yield={fractions['yield']:.2%} "
            f"kernel={fractions['kernel']:.2%}",
            f"elapsed              "
            f"{self.elapsed_seconds(clock_hz) * 1e3:.3f} ms "
            f"({self.gflops(clock_hz):.1f} GFLOP/s)",
            f"robustness           traps={self.traps} "
            f"watchdog={self.watchdog_timeouts} "
            f"degraded warps={self.degraded_warps}",
        ]
        if self.batched_warps:
            lines.append(
                f"batching             warps={self.batched_warps} "
                f"fell back={self.batch_fallbacks}"
            )
        if self.melded_regions or self.meld_rejections:
            lines.append(
                f"melding              regions={self.melded_regions} "
                f"rejected={self.meld_rejections} "
                f"predicted saving="
                f"{self.meld_predicted_saving:.1f} cycles"
            )
        if self.cache is not None:
            cache = self.cache
            lines.extend(
                [
                    f"cache                hits={cache.hits} "
                    f"misses={cache.misses} "
                    f"translations={cache.translations} "
                    f"invalidations={cache.invalidations}",
                    f"cache disk           hits={cache.disk_hits} "
                    f"misses={cache.disk_misses} "
                    f"errors={cache.disk_errors} "
                    f"evictions={cache.evictions}",
                    f"translation time     "
                    f"{cache.translation_seconds * 1e3:.3f} ms",
                ]
            )
        if self.sanitizer:
            by_kind: Dict[str, int] = {}
            for finding in self.sanitizer:
                count = getattr(finding, "count", 1)
                by_kind[finding.kind] = by_kind.get(finding.kind, 0) + count
            summary = " ".join(
                f"{kind}={count}" for kind, count in sorted(by_kind.items())
            )
            lines.append(f"sanitizer            {summary}")
        return "\n".join(lines)
