"""Execution configuration: which specializations exist and how warps
are formed. Mirrors the experiment axes of §6."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class ExecutionConfig:
    """Configuration of the dynamic compilation pipeline + runtime.

    Attributes
    ----------
    warp_sizes:
        Specialization widths kept in the translation cache. The paper
        uses (1, 2, 4) on the 4-wide SSE machine (§4.1: "each kernel
        has been specialized for warp sizes of 1 thread, 2 threads, and
        4 threads").
    static_warps:
        Static warp formation (§6.2): warps are consecutive ``tid.x``
        threads of one CTA instead of dynamically re-formed groups.
    thread_invariant_elimination:
        Scalarize provably thread-invariant expressions (§6.2).
    optimize:
        Run the traditional cleanups (§5.1): CSE and DCE once per
        kernel, constant folding and block fusion per width.
    scalar_yields_at_branches:
        Whether the width-1 specialization yields at conditional
        branches so threads can re-form wider warps (Fig. 4b). ``None``
        = automatic: True when wider specializations exist, False for
        the pure scalar baseline.
    allow_cross_cta_warps:
        Permit warps mixing threads of different CTAs (Fig. 2 draws
        the formation pool from several CTAs). Off by default: warp
        primitives (``vote``) are warp-scoped, and same-CTA formation
        matches Ocelot's multicore backend.
    """

    warp_sizes: Tuple[int, ...] = (1, 2, 4)
    static_warps: bool = False
    thread_invariant_elimination: bool = False
    optimize: bool = True
    scalar_yields_at_branches: Optional[bool] = None
    allow_cross_cta_warps: bool = False
    #: Enable the affine vector-memory optimization (§4 future work):
    #: a per-lane access whose addresses are provably contiguous is one
    #: vector access. Requires static_warps (the proof rests on a warp
    #: being consecutive tid.x threads).
    vector_memory: bool = False
    #: Control-flow melding (DARM): align and merge the arms of
    #: divergent diamonds and triangles into predicated straight-line
    #: code before vectorizing (the conditional data flow of §7),
    #: guarded by a cost-model profitability check at the maximum
    #: configured warp width. Can also be forced with
    #: ``REPRO_MELD=1`` in the environment (resolved at Device
    #: construction). See :mod:`repro.transforms.melding`.
    meld: bool = False
    #: Opt into the persistent translation-cache tier: vectorized IR is
    #: pickled on disk so cold processes skip translation. Can also be
    #: force-enabled with ``REPRO_CACHE=1`` in the environment.
    persistent_cache: bool = False
    #: Directory of the persistent tier. ``None`` falls back to
    #: ``$REPRO_CACHE_DIR``, then ``~/.cache/repro``.
    cache_dir: Optional[str] = None
    #: Watchdog: per-worker modeled-cycle budget for one launch. When a
    #: launch's kernel+yield+EM cycles exceed this, it is terminated
    #: with :class:`~repro.errors.LaunchTimeout` naming every live
    #: thread's program point. Runaway loops that never yield are
    #: bounded too: the per-warp instruction cap is clamped to the
    #: remaining cycle budget (every kernel instruction costs at least
    #: one modeled cycle). ``None`` disables the budget.
    max_kernel_cycles: Optional[int] = None
    #: Watchdog: wall-clock deadline (host seconds) for one launch,
    #: measured from launch entry and shared by all workers. Checked at
    #: warp boundaries and every few thousand instructions inside
    #: non-yielding warps. ``None`` disables the deadline.
    launch_timeout_s: Optional[float] = None
    #: Kernel sanitizer (checked execution): ``False`` (off — the
    #: default, leaving the lowered fast path byte-for-byte untouched),
    #: ``True`` (all checks), or an iterable drawn from
    #: ``("memcheck", "racecheck", "initcheck")``. Normalized to a
    #: tuple of check names. Not available on ``backend="reference"``
    #: (checked access is a template of the block emitter). Can also be
    #: forced from the environment with ``REPRO_SANITIZE=1`` (resolved
    #: at Device construction).
    sanitize: object = False
    #: Fatal sanitizer findings raise
    #: :class:`~repro.errors.SanitizerError` (contained as a
    #: KernelTrap); ``False`` accumulates non-fatal
    #: ``SanitizerReport``s on ``LaunchStatistics.sanitizer`` instead.
    sanitize_fatal: bool = True
    #: Executor (:data:`repro.machine.backend.BACKENDS`):
    #: ``"interpreter"`` runs generated block functions one warp at a
    #: time and, where enough same-entry-point warps wait and earlier
    #: batches there mostly reached their yield, all of them at once
    #: as numpy array programs — it decides that itself, from queue
    #: lengths and batch outcomes; ``"reference"`` is the
    #: per-instruction oracle the differential tests compare it
    #: against. ``"array"``, once the name of the batched path, is
    #: accepted and means the default.
    backend: str = "interpreter"

    def __post_init__(self):
        from ..machine.backend import BACKEND_ALIASES, BACKENDS

        alias = BACKEND_ALIASES.get(self.backend)
        if alias is not None:
            # Before cache_key() can be taken: one executor, one key.
            object.__setattr__(self, "backend", alias)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(expected one of {BACKENDS})"
            )
        if self.vector_memory and not self.static_warps:
            raise ValueError("vector_memory requires static_warps")
        if not self.warp_sizes:
            raise ValueError("warp_sizes must not be empty")
        if sorted(self.warp_sizes) != list(self.warp_sizes):
            raise ValueError("warp_sizes must be ascending")
        if 1 not in self.warp_sizes:
            raise ValueError(
                "a width-1 specialization is required (threads resume "
                "scalar execution after divergence)"
            )
        if self.max_kernel_cycles is not None and self.max_kernel_cycles <= 0:
            raise ValueError("max_kernel_cycles must be positive")
        if self.launch_timeout_s is not None and self.launch_timeout_s <= 0:
            raise ValueError("launch_timeout_s must be positive")
        from ..sanitizer.core import normalize_checks

        checks = normalize_checks(self.sanitize)
        object.__setattr__(self, "sanitize", checks)
        if checks and self.backend == "reference":
            raise ValueError(
                "backend='reference' cannot sanitize: checked access "
                "is a template of the block emitter"
            )

    @property
    def max_warp_size(self) -> int:
        return max(self.warp_sizes)

    @property
    def sanitize_checks(self) -> Tuple[str, ...]:
        """The normalized sanitizer check tuple (empty when off)."""
        return self.sanitize  # normalized by __post_init__

    @property
    def vectorized(self) -> bool:
        return self.max_warp_size > 1

    def yields_at_branches(self, warp_size: int) -> bool:
        """Yield policy of one specialization.

        Dynamic formation: sub-maximal widths yield at every formerly
        conditional branch so the execution manager can re-form wider
        warps (Fig. 4b's reconvergence). The maximal width yields only
        on divergence (Algorithm 2's switch).

        Static formation (§6.2): the thread-to-warp mapping is fixed a
        priori, so chasing re-formation is pointless — diverged
        sub-warps run on without yielding and only barriers regroup
        them ("constrained warp formation").
        """
        if self.static_warps:
            return False
        if warp_size >= self.max_warp_size:
            return False
        if warp_size == 1 and self.scalar_yields_at_branches is not None:
            return self.scalar_yields_at_branches
        return True

    def cache_key(self) -> tuple:
        """The axes that change generated code. Part of every
        specialization digest, so two configs differing in any of these
        can never exchange cache entries. ``persistent_cache`` /
        ``cache_dir`` / ``allow_cross_cta_warps`` /
        ``max_kernel_cycles`` / ``launch_timeout_s`` are deliberately
        absent: they affect where code is stored or how warps are
        formed/bounded at runtime, not the code itself.
        ``sanitize`` (checked calls replace the inline memory access),
        ``backend`` (the reference oracle builds its unlowered form,
        so it gets its own cache namespace) and ``meld`` (the scalar
        prepass) participate only when on, each as an appended entry:
        with all three off the key is the six axes above, whatever the
        default executor is called. ``sanitize_fatal`` is runtime
        report routing, not codegen, and stays out."""
        key = (
            self.warp_sizes,
            self.static_warps,
            self.thread_invariant_elimination,
            self.optimize,
            self.scalar_yields_at_branches,
            self.vector_memory,
        )
        if self.sanitize:
            key += (("sanitize",) + tuple(self.sanitize),)
        if self.backend != "interpreter":
            key += (("backend", self.backend),)
        if self.meld:
            key += (("meld",),)
        return key


def apply_meld_env(config: ExecutionConfig) -> ExecutionConfig:
    """Resolve the ``REPRO_MELD`` environment override.

    ``REPRO_MELD=1`` (or any truthy spelling) forces control-flow
    melding on for devices that did not select it explicitly — the CI
    meld leg runs the whole suite this way. A config that already
    enables melding is returned unchanged."""
    import os
    from dataclasses import replace

    override = os.environ.get("REPRO_MELD", "").strip().lower()
    if override in ("", "0", "false", "off", "no"):
        return config
    if config.meld:
        return config
    return replace(config, meld=True)


def baseline_config() -> ExecutionConfig:
    """The paper's baseline: pure scalar serialization with the
    [16]-style thread scheduler — no vectorization, no branch yields."""
    return ExecutionConfig(
        warp_sizes=(1,), scalar_yields_at_branches=False
    )


def vectorized_config(max_warp_size: int = 4) -> ExecutionConfig:
    """Dynamic warp formation with specializations up to
    ``max_warp_size`` (Figure 6's configuration)."""
    sizes = [1]
    while sizes[-1] * 2 <= max_warp_size:
        sizes.append(sizes[-1] * 2)
    return ExecutionConfig(warp_sizes=tuple(sizes))


def static_tie_config(
    max_warp_size: int = 4, vector_memory: bool = False
) -> ExecutionConfig:
    """Static warp formation + thread-invariant elimination
    (Figure 10's configuration). ``vector_memory=True`` additionally
    enables the affine vector-access optimization the paper left as
    future work."""
    sizes = [1]
    while sizes[-1] * 2 <= max_warp_size:
        sizes.append(sizes[-1] * 2)
    return ExecutionConfig(
        warp_sizes=tuple(sizes),
        static_warps=True,
        thread_invariant_elimination=True,
        vector_memory=vector_memory,
    )
