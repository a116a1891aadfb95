"""The dynamic translation cache (§5.1).

Responsible for producing executable specializations of each kernel:
PTX -> scalar IR (translation, cleaned once per kernel), vectorization
for the requested warp size, the per-width cleanup passes, and
lowering for the machine ("JIT compilation"). Execution managers
query by (kernel, warp size) exactly as the paper describes, and
translations happen lazily on first request.

Beyond the paper's in-memory memoization the cache is:

- **Content-addressed.** Every specialization is identified by a
  SHA-256 digest over the kernel's PTX body, the arena addresses of
  its own module's .global/.const symbols, ``ExecutionConfig.
  cache_key()``, the warp size, and the machine descriptor. Distinct
  configs/devices can therefore share one persistent store without
  ever exchanging incompatible code.
- **Precisely invalidated.** Binding a kernel name to another
  module's body or symbols bumps its *generation* and drops the stale
  scalar IR and specializations; re-binding the same content keeps
  everything. :meth:`invalidate` forces the same drop explicitly.
- **Optionally persistent.** With a :class:`~repro.runtime.cache_store.
  CacheStore` attached, misses consult the disk tier (pickled
  vectorized IR) before compiling, and fresh compilations are written
  back — cold processes skip translation entirely.
- **Observable.** :class:`CacheStatistics` counts hits, misses,
  invalidations, disk hits/misses/errors, evictions, and records
  per-specialization compile times; the launcher attaches per-launch
  deltas to :class:`~repro.runtime.statistics.LaunchStatistics`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..counting import added, added_by_key, counted, latest_by_key, render
from ..errors import TranslationCacheError
from ..frontend.translator import translate_kernel
from ..ir.function import IRFunction
from ..machine.descriptor import MachineDescription
from ..machine.interpreter import ExecutableFunction, Interpreter
from ..ptx.module import Kernel, Module
from ..transforms.pass_manager import (
    scalar_prepass_pipeline,
    standard_cleanup_pipeline,
)
from ..transforms.vectorize import (
    ScalarAnalyses,
    VectorizeOptions,
    vectorize_kernel,
)
from .cache_store import SCHEMA_VERSION, CacheStore
from .config import ExecutionConfig


@counted
class CacheStatistics:
    """Observable cache activity (cumulative per cache; the launcher
    derives per-launch deltas with ``snapshot``/``delta``)."""

    #: specializations compiled from scratch
    translations: int = added()
    #: in-memory specialization hits
    hits: int = added()
    #: in-memory specialization misses (before the disk tier is tried)
    misses: int = added()
    #: cached artifacts (scalar IR or specializations) dropped by
    #: invalidation (re-binding to other content, or explicit)
    invalidations: int = added()
    #: specializations loaded from the persistent tier
    disk_hits: int = added()
    #: persistent-tier lookups that found nothing
    disk_misses: int = added()
    #: corrupt/incompatible/unwritable persistent entries encountered
    disk_errors: int = added()
    #: persistent entries evicted by the size bound
    evictions: int = added()
    #: wall seconds spent translating (excludes disk-hit loads)
    translation_seconds: float = added(0.0)
    #: per-specialization static instruction counts (for §6.2's
    #: instruction-reduction measurement)
    instruction_counts: Dict[Tuple[str, int], int] = latest_by_key()
    #: per-specialization compile seconds (0.0 for disk hits)
    compile_seconds: Dict[Tuple[str, int], float] = latest_by_key()
    #: per-kernel control-flow-melding outcome recorded when the scalar
    #: IR is built with ``ExecutionConfig(meld=True)``:
    #: kernel -> (melded regions, rejected candidate regions)
    meld_decisions: Dict[str, Tuple[int, int]] = latest_by_key()
    #: wall seconds per pipeline stage, summed over every compile:
    #: ``translate``, the scalar passes (``meld``, ``cse``, ``dce``),
    #: ``vectorize``, each cleanup pass and ``verify`` (their record)
    stage_seconds: Dict[str, float] = added_by_key()
    #: what each pass reported changing (folds, replacements,
    #: removals, merges), summed likewise
    stage_changes: Dict[str, int] = added_by_key()

    REPORT = (
        "cache                hits={hits} misses={misses} "
        "translations={translations} invalidations={invalidations}",
        "cache disk           hits={disk_hits} misses={disk_misses} "
        "errors={disk_errors} evictions={evictions}",
        "translation time     {translation_seconds:.6f} s",
    )
    report = __str__ = render

    def record_stage(self, name: str, seconds: float, changes: int = 0):
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
        self.stage_changes[name] = self.stage_changes.get(name, 0) + changes


@dataclass
class _Specialization:
    """One cached executable plus the digest it was built under."""

    digest: str
    executable: ExecutableFunction


class TranslationCache:
    """Content-addressed cache of lowered kernel specializations."""

    def __init__(
        self,
        machine: MachineDescription,
        interpreter: Interpreter,
        config: ExecutionConfig,
        store: Optional[CacheStore] = None,
    ):
        self.machine = machine
        self.interpreter = interpreter
        self.config = config
        self.statistics = CacheStatistics()
        #: Persistent tier; None when disabled. Built from the config
        #: (or the REPRO_CACHE / REPRO_CACHE_DIR environment) unless an
        #: explicit store is supplied.
        self.store = store if store is not None else CacheStore.from_config(
            config
        )
        self._kernels: Dict[str, Kernel] = {}
        #: Per kernel, its module's global-symbol addresses.
        self._symbols: Dict[str, Dict[str, int]] = {}
        #: Content fingerprint per kernel: PTX body + its module's
        #: global-symbol addresses.
        self._fingerprints: Dict[str, str] = {}
        #: Monotonic generation per kernel, bumped by every
        #: invalidation (observability + staleness assertions).
        self._generations: Dict[str, int] = {}
        #: Per kernel ``(fingerprint, scalar IR, its analyses)``: what
        #: every width is specialized from. The analyses (liveness,
        #: uniformity, spill layout ...) run once here, not per width.
        self._scalar_ir: Dict[
            str, Tuple[str, IRFunction, ScalarAnalyses]
        ] = {}
        #: Meld-pass reports per kernel (populated by scalar_ir when
        #: ``config.meld``; dropped with the scalar IR on invalidation).
        self._meld_reports: Dict[str, object] = {}
        self._specializations: Dict[Tuple[str, int], _Specialization] = {}
        #: Entries :meth:`get` has checked since the last registration
        #: or invalidation. Only those move a digest, so until the next
        #: one a lookup (one per warp execution) revalidates nothing.
        self._validated: Dict[Tuple[str, int], ExecutableFunction] = {}
        self._digest_memo: Dict[Tuple[str, int], str] = {}
        #: Digest material shared by every kernel of this cache:
        #: schema + execution config + machine descriptor.
        self._environment_digest = hashlib.sha256(
            "|".join(
                [
                    f"schema={SCHEMA_VERSION}",
                    repr(config.cache_key()),
                    repr(machine),
                ]
            ).encode()
        ).hexdigest()

    # -- registration --------------------------------------------------------

    def register_module(
        self, module: Module, global_symbols: Optional[Dict[str, int]] = None
    ) -> None:
        """Bind a module's kernels to ``global_symbols``: the arena
        addresses of that module's own .global/.const variables
        (assigned by the device when it first registered the module).

        A kernel name bound before to other content — another body, or
        another module's symbols — is invalidated, so stale code is
        never served.
        """
        self._validated.clear()
        symbols = dict(global_symbols or {})
        table = repr(sorted(symbols.items()))
        for name, kernel in module.kernels.items():
            material = f"{kernel}|{table}"
            fingerprint = hashlib.sha256(material.encode()).hexdigest()
            previous = self._fingerprints.get(name)
            if previous is not None and previous != fingerprint:
                self.invalidate(name)
            self._kernels[name] = kernel
            self._symbols[name] = symbols
            self._fingerprints[name] = fingerprint
            self._generations.setdefault(name, 1)

    # -- fingerprints / digests ---------------------------------------------

    def fingerprint(self, kernel_name: str) -> str:
        """Content fingerprint of a registered kernel (PTX body plus
        its module's global-symbol addresses)."""
        self.kernel(kernel_name)
        return self._fingerprints[kernel_name]

    def generation(self, kernel_name: str) -> int:
        """How many times ``kernel_name`` has been (re)validated: 1 at
        first registration, +1 per invalidation."""
        self.kernel(kernel_name)
        return self._generations[kernel_name]

    def specialization_digest(self, kernel_name: str, warp_size: int) -> str:
        """Content-addressed key of one specialization: kernel
        fingerprint x execution config x machine x warp size. This is
        the persistent tier's file name."""
        key = (kernel_name, warp_size)
        digest = self._digest_memo.get(key)
        if digest is None:
            material = "|".join(
                [
                    self.fingerprint(kernel_name),
                    self._environment_digest,
                    f"ws={warp_size}",
                ]
            )
            digest = hashlib.sha256(material.encode()).hexdigest()
            self._digest_memo[key] = digest
        return digest

    # -- invalidation --------------------------------------------------------

    def invalidate(self, kernel_name: str) -> int:
        """Drop every cached artifact of ``kernel_name`` (scalar IR and
        all specializations) and bump its generation. Returns the
        number of artifacts dropped. The persistent tier is left
        untouched: its entries are content-addressed, so stale code is
        unreachable once the fingerprint moves."""
        dropped = 0
        self._validated.clear()
        if self._scalar_ir.pop(kernel_name, None) is not None:
            dropped += 1
        self._meld_reports.pop(kernel_name, None)
        for key in [
            key for key in self._specializations if key[0] == kernel_name
        ]:
            del self._specializations[key]
            dropped += 1
        for key in [
            key for key in self._digest_memo if key[0] == kernel_name
        ]:
            del self._digest_memo[key]
        self.statistics.invalidations += dropped
        self._generations[kernel_name] = (
            self._generations.get(kernel_name, 0) + 1
        )
        return dropped

    # -- queries -------------------------------------------------------------

    def kernel(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise TranslationCacheError(
                f"kernel {name!r} is not registered; "
                f"have {sorted(self._kernels)}"
            ) from None

    def scalar_ir(self, kernel_name: str) -> IRFunction:
        """The scalar IR translation (shared by all specializations),
        revalidated against the kernel's current fingerprint."""
        return self._scalar(kernel_name)[1]

    def _scalar(
        self, kernel_name: str
    ) -> Tuple[str, IRFunction, ScalarAnalyses]:
        fingerprint = self.fingerprint(kernel_name)
        entry = self._scalar_ir.get(kernel_name)
        if entry is not None and entry[0] == fingerprint:
            return entry
        kernel = self.kernel(kernel_name)
        start = time.perf_counter()
        translated = translate_kernel(
            kernel, global_symbols=self._symbols[kernel_name]
        )
        self.statistics.record_stage("translate", time.perf_counter() - start)
        # Scalar-stage transforms (melding, CSE, DCE), once per kernel
        # and before entry points are assigned, so every specialization
        # sees the same control structure.
        prepass = scalar_prepass_pipeline(self.config, self.machine)
        if prepass is not None:
            self._run_passes(prepass, translated)
            meld_report = getattr(translated, "meld_report", None)
            if meld_report is not None:
                self._meld_reports[kernel_name] = meld_report
                self.statistics.meld_decisions[kernel_name] = (
                    meld_report.melded_regions,
                    meld_report.rejected_regions,
                )
        analyses = ScalarAnalyses(translated, self._vectorize_options(1))
        # every specialization's, so ``frame_bytes`` is the frame's
        translated.spill_size = analyses.spill_layout[1]
        entry = (fingerprint, translated, analyses)
        self._scalar_ir[kernel_name] = entry
        return entry

    def _run_passes(self, manager, function: IRFunction) -> IRFunction:
        """Run a pass manager and keep its per-pass record."""
        function = manager.run(function)
        for applied in manager.statistics.results:
            self.statistics.record_stage(
                applied.name, applied.seconds, applied.changes
            )
        return function

    def meld_report(self, kernel_name: str):
        """The melding pass's :class:`~repro.transforms.melding.
        MeldReport` for ``kernel_name``, or ``None`` when melding is
        off or the scalar IR has not been built yet."""
        return self._meld_reports.get(kernel_name)

    def get(self, kernel_name: str, warp_size: int) -> ExecutableFunction:
        """Executable specialization of ``kernel_name`` for
        ``warp_size`` threads. Lookup order: in-memory entry (validated
        by digest), persistent tier, full translation."""
        key = (kernel_name, warp_size)
        executable = self._validated.get(key)
        if executable is not None:
            self.statistics.hits += 1
            return executable
        if warp_size not in self.config.warp_sizes:
            raise TranslationCacheError(
                f"no warp-size-{warp_size} specialization configured "
                f"(have {self.config.warp_sizes})"
            )
        digest = self.specialization_digest(kernel_name, warp_size)
        entry = self._specializations.get(key)
        if entry is not None and entry.digest != digest:
            # Safety net: a stale entry that escaped invalidation.
            del self._specializations[key]
            self.statistics.invalidations += 1
            entry = None
        if entry is not None:
            self.statistics.hits += 1
            executable = entry.executable
        else:
            self.statistics.misses += 1
            executable = self._load_from_store(key, digest)
            if executable is None:
                executable = self._compile(key, digest)
            self._specializations[key] = _Specialization(digest, executable)
        self._validated[key] = executable
        return executable

    def resident(self, kernel_name: str, warp_size: int):
        """The specialization a :meth:`get` would hit right now, or
        None — not a lookup: nothing is counted, validated or built."""
        return self._validated.get((kernel_name, warp_size))

    def specialization_for(self, available_threads: int) -> int:
        """Largest configured warp size not exceeding
        ``available_threads`` (§5.2's warp formation query)."""
        sizes = self.config.warp_sizes  # ascending, 1 among them
        return sizes[bisect_right(sizes, max(available_threads, 1)) - 1]

    # -- warm-up -------------------------------------------------------------

    def warm(
        self,
        kernel_name: Optional[str] = None,
        warp_sizes: Optional[Iterable[int]] = None,
    ) -> Dict[Tuple[str, int], float]:
        """Compile-ahead: materialize specializations before the first
        launch (and populate the persistent tier when attached).
        Returns per-specialization compile seconds (0.0 for entries
        served from memory or disk)."""
        names = (
            [kernel_name] if kernel_name is not None else sorted(self._kernels)
        )
        sizes = (
            tuple(warp_sizes)
            if warp_sizes is not None
            else self.config.warp_sizes
        )
        compiled: Dict[Tuple[str, int], float] = {}
        for name in names:
            for size in sizes:
                self.get(name, size)
                compiled[(name, size)] = self.statistics.compile_seconds.get(
                    (name, size), 0.0
                )
        return compiled

    # -- pipeline -----------------------------------------------------------

    def _load_from_store(
        self, key: Tuple[str, int], digest: str
    ) -> Optional[ExecutableFunction]:
        if self.store is None:
            return None
        payload = self.store.load(digest, statistics=self.statistics)
        if payload is None:
            self.statistics.disk_misses += 1
            return None
        try:
            executable = self.interpreter.load_function(payload["function"])
            instruction_count = int(payload["instruction_count"])
        except Exception:
            # Structurally valid pickle, semantically unusable payload.
            self.store.discard(digest)
            self.statistics.disk_errors += 1
            self.statistics.disk_misses += 1
            return None
        self.statistics.disk_hits += 1
        self.statistics.instruction_counts[key] = instruction_count
        self.statistics.compile_seconds.setdefault(key, 0.0)
        return executable

    def _compile(
        self, key: Tuple[str, int], digest: str
    ) -> ExecutableFunction:
        kernel_name, warp_size = key
        start = time.perf_counter()
        function = self._build_specialization(kernel_name, warp_size)
        elapsed = time.perf_counter() - start
        self.statistics.translations += 1
        self.statistics.translation_seconds += elapsed
        self.statistics.compile_seconds[key] = elapsed
        instruction_count = function.instruction_count()
        self.statistics.instruction_counts[key] = instruction_count
        if self.store is not None:
            self.store.store(
                digest,
                {
                    "kernel": kernel_name,
                    "warp_size": warp_size,
                    "function": function,
                    "instruction_count": instruction_count,
                    "compile_seconds": elapsed,
                },
                statistics=self.statistics,
            )
        return self.interpreter.load_function(function)

    def _vectorize_options(self, warp_size: int) -> VectorizeOptions:
        return VectorizeOptions(
            warp_size=warp_size,
            yield_at_branches=self.config.yields_at_branches(warp_size),
            static_warps=self.config.static_warps,
            thread_invariant_elimination=(
                self.config.thread_invariant_elimination
            ),
            vector_memory=self.config.vector_memory,
        )

    def _build_specialization(
        self, kernel_name: str, warp_size: int
    ) -> IRFunction:
        """The translation pipeline proper: scalar IR -> vectorized,
        cleaned IR for one warp size (not yet lowered)."""
        _, scalar, analyses = self._scalar(kernel_name)
        start = time.perf_counter()
        function = vectorize_kernel(
            scalar, self._vectorize_options(warp_size), analyses
        )
        self.statistics.record_stage("vectorize", time.perf_counter() - start)
        if self.config.optimize:
            # Verified on every compile: a function the verifier
            # rejects fails the launch.
            function = self._run_passes(
                standard_cleanup_pipeline(verify=True), function
            )
        return function

    # -- introspection -------------------------------------------------------

    def cached_specializations(self):
        return sorted(self._specializations)

    def instruction_count(self, kernel_name: str, warp_size: int) -> int:
        self.get(kernel_name, warp_size)
        return self.statistics.instruction_counts[(kernel_name, warp_size)]
