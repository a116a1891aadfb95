"""CUDA-Runtime-style front-end (§3: "The proposed compilation model is
wrapped by an API front-end for heterogeneous computing").

A :class:`Device` bundles the simulated machine, its memory, the
translation cache and the launcher:

>>> device = Device()
>>> device.register_module(ptx_source)
>>> a = device.malloc(1024)
>>> device.memcpy_htod(a, host_array)
>>> result = device.launch("vecAdd", grid=(4, 1, 1),
...                        block=(64, 1, 1), args=[a, b, c, 256])
>>> out = device.memcpy_dtoh(c, np.float32, 256)
"""

from __future__ import annotations

import struct
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    BarrierDeadlock,
    KernelTrap,
    LaunchError,
    LaunchTimeout,
    ReproError,
)
from ..machine.backend import create_backend
from ..machine.descriptor import MachineDescription, sandybridge
from ..machine.memory import Allocation, MemorySystem
from ..ptx.module import Module
from ..ptx.parser import parse
from ..ptx.types import DataType
from ..ptx.validator import validate_module
from ..runtime.cache_store import CacheStore
from ..runtime.config import (
    ExecutionConfig,
    apply_meld_env,
)
from ..sanitizer.core import KernelSanitizer, apply_sanitize_env
from ..runtime.launcher import (
    Dim, KernelLauncher, LaunchResult, _normalize_dim,
)
from ..runtime.translation_cache import TranslationCache

_PACK_FORMATS = {
    DataType.u8: "<B",
    DataType.s8: "<b",
    DataType.u16: "<H",
    DataType.s16: "<h",
    DataType.u32: "<I",
    DataType.s32: "<i",
    DataType.u64: "<Q",
    DataType.s64: "<q",
    DataType.f32: "<f",
    DataType.f64: "<d",
    DataType.b8: "<B",
    DataType.b16: "<H",
    DataType.b32: "<I",
    DataType.b64: "<Q",
}

class Device:
    """A simulated vector-processor device with a CUDA-like runtime."""

    def __init__(
        self,
        machine: Optional[MachineDescription] = None,
        config: Optional[ExecutionConfig] = None,
        memory_size: int = 1 << 26,
        cache_store: Optional[CacheStore] = None,
    ):
        self.machine = machine or sandybridge()
        self.config = apply_meld_env(
            apply_sanitize_env(config or ExecutionConfig())
        )
        self.memory = MemorySystem(size=memory_size)
        #: Checked-execution services (``config.sanitize``); None when
        #: running the unchecked fast path. Must attach to the memory
        #: system before anything allocates, so every allocation is in
        #: the registry.
        self.sanitizer = None
        if self.config.sanitize_checks:
            self.sanitizer = KernelSanitizer(
                self.memory,
                checks=self.config.sanitize_checks,
                fatal=self.config.sanitize_fatal,
            )
            self.memory.sanitizer = self.sanitizer
        self.interpreter = create_backend(
            self.config.backend,
            self.machine,
            self.memory,
            sanitizer=self.sanitizer,
        )
        self.cache = TranslationCache(
            self.machine, self.interpreter, self.config, store=cache_store
        )
        self.launcher = KernelLauncher(
            self.machine,
            self.memory,
            self.interpreter,
            self.cache,
            self.config,
        )
        self.modules: List[Module] = []
        #: Each source registered (its text, or a Module's identity) ->
        #: its module and that module's variable addresses.
        self._registered: Dict[object, Tuple[Module, Dict[str, int]]] = {}
        self._allocations: List[Allocation] = []
        #: Serializes kernel execution: callers launching from several
        #: threads take turns, so the single simulated machine never
        #: runs two kernels at once.
        self._launch_lock = threading.Lock()
        #: CUDA-style sticky error: a contained runtime fault
        #: (KernelTrap / LaunchTimeout / BarrierDeadlock) is recorded
        #: here and blocks further launches until :meth:`reset` —
        #: mirroring how a CUDA context becomes unusable after a
        #: sticky error until the device is reset.
        self.last_error: Optional[ReproError] = None

    # -- module management ---------------------------------------------------

    def register_module(self, source: Union[str, Module]) -> Module:
        """Register a PTX module (text or already-parsed). The first
        registration of a source parses and validates it (§3) and
        allocates its .global/.const variables; a later one re-binds
        its kernels to that module and those variables. Translation is
        lazy."""
        key = source if isinstance(source, str) else id(source)
        held = self._registered.get(key)
        if held is None:
            module = parse(source) if isinstance(source, str) else source
            validate_module(module)
            held = (module, self._materialize_module_variables(module))
            self._registered[key] = self._registered[id(module)] = held
            self.modules.append(module)
        self.cache.register_module(*held)
        return held[0]

    def _materialize_module_variables(
        self, module: Module
    ) -> Dict[str, int]:
        """Allocate module-scope .global/.const variables in the arena
        and apply initializers."""
        addresses: Dict[str, int] = {}
        for variable in module.variables:
            if variable.space.value not in ("global", "const"):
                continue
            address = self.memory.allocate(
                max(variable.size, 1),
                align=max(variable.alignment, 1),
                kind=variable.space.value,
                label=variable.name,
            )
            addresses[variable.name] = address
            if variable.initializer:
                array = np.array(
                    variable.initializer,
                    dtype=variable.dtype.numpy_dtype,
                )
                self.memory.write_array(address, array)
        return addresses

    # -- memory management (the cudaMalloc / cudaMemcpy analogues) ---------

    def malloc(self, size: int, label: str = None) -> Allocation:
        address = self.memory.allocate(size, align=16, label=label)
        allocation = Allocation(self.memory, address, size, label=label)
        self._allocations.append(allocation)
        return allocation

    def upload(self, array: np.ndarray, label: str = None) -> Allocation:
        """malloc + memcpy_htod in one step."""
        allocation = self.malloc(array.nbytes, label=label)
        allocation.write(array)
        return allocation

    def memcpy_htod(self, allocation: Allocation, array) -> None:
        allocation.write(np.asarray(array))

    def memcpy_dtoh(
        self, allocation: Allocation, dtype, count: int
    ) -> np.ndarray:
        return allocation.read(dtype, count)

    def memset(self, allocation: Allocation, byte: int = 0) -> None:
        self.memory.fill(allocation.address, allocation.size, byte)

    def free(self, allocation: Allocation) -> None:
        """Return a buffer's arena region for reuse (cudaFree)."""
        allocation.free()
        try:
            self._allocations.remove(allocation)
        except ValueError:
            pass

    # -- launches --------------------------------------------------------

    def launch(
        self,
        kernel_name: str,
        grid: Dim,
        block: Dim,
        args: Sequence[object] = (),
    ) -> LaunchResult:
        """Launch ``kernel_name`` over ``grid`` x ``block`` threads.

        ``args`` entries are matched positionally against the kernel's
        ``.param`` declarations: :class:`Allocation` / int for pointer
        parameters, Python numbers for scalars, and sequences for array
        parameters.

        A previous launch's contained fault is sticky: launching again
        before :meth:`reset` re-raises a LaunchError naming it.
        """
        grid = _normalize_dim("grid", grid)
        block = _normalize_dim("block", block)
        with self._launch_lock:
            if self.last_error is not None:
                raise LaunchError(
                    f"device is in a failed state from a previous launch "
                    f"({type(self.last_error).__name__}: {self.last_error}); "
                    f"call Device.reset() to clear it"
                )
            kernel = self.cache.kernel(kernel_name)
            parameters = kernel.parameters
            if len(args) != len(parameters):
                raise LaunchError(
                    f"{kernel_name} expects {len(parameters)} arguments "
                    f"({[p.name for p in parameters]}), got {len(args)}"
                )
            param_size = max(kernel.param_size, 1)
            param_base = self.memory.allocate(
                param_size, kind="param", label=f"{kernel_name} params"
            )
            try:
                # Marshalling runs inside the reclaim scope: a bad
                # argument value must not leak the parameter segment
                # (the arena break has to stay stable across repeated
                # failed launches).
                for parameter, value in zip(parameters, args):
                    self._write_parameter(param_base, parameter, value)
                return self.launcher.launch(
                    kernel_name, grid, block, param_base
                )
            except (KernelTrap, LaunchTimeout, BarrierDeadlock) as fault:
                self.last_error = fault
                raise
            finally:
                # Launches are synchronous; the parameter segment can be
                # reclaimed immediately so repeated launches don't leak
                # — including when marshalling failed or the launch
                # trapped.
                self.memory.free(param_base, param_size)

    def _write_parameter(self, base: int, parameter, value) -> None:
        fmt = _PACK_FORMATS.get(parameter.dtype)
        if fmt is None:
            raise LaunchError(
                f"cannot pass parameter of type {parameter.dtype}"
            )
        if parameter.count > 1:
            try:
                values = list(value)
            except TypeError as error:
                raise LaunchError(
                    f"parameter {parameter.name!r} expects a sequence "
                    f"of {parameter.count} {parameter.dtype.value} "
                    f"elements, got {value!r}"
                ) from error
            if len(values) != parameter.count:
                raise LaunchError(
                    f"parameter {parameter.name} expects "
                    f"{parameter.count} elements, got {len(values)}"
                )
        else:
            values = [value]
        offset = base + parameter.offset
        size = parameter.dtype.size
        for index, element in enumerate(values):
            if isinstance(element, Allocation):
                element = element.address
            try:
                raw = struct.pack(fmt, element)
            except (struct.error, TypeError, ValueError,
                    OverflowError) as error:
                position = (
                    f" (element {index})" if parameter.count > 1 else ""
                )
                raise LaunchError(
                    f"cannot marshal argument for parameter "
                    f"{parameter.name!r}{position}: "
                    f"{element!r} is not a valid "
                    f"{parameter.dtype.value} value ({error})"
                ) from error
            self.memory.write_array(
                offset + index * size,
                np.frombuffer(raw, dtype=np.uint8),
            )

    # -- warm-up ---------------------------------------------------------

    def warm(
        self,
        kernel_name: Optional[str] = None,
        warp_sizes: Optional[Sequence[int]] = None,
    ) -> Dict[Tuple[str, int], float]:
        """Compile-ahead (§5.1 without the laziness): materialize
        specializations of ``kernel_name`` (default: every registered
        kernel) for ``warp_sizes`` (default: all configured widths)
        before the first launch. With the persistent cache enabled this
        also populates the disk tier. Returns per-specialization
        compile seconds (0.0 for already-cached entries)."""
        return self.cache.warm(kernel_name, warp_sizes)

    # -- fault recovery --------------------------------------------------

    def reset(self) -> None:
        """Clear a sticky launch fault (the cudaDeviceReset analogue,
        minus deallocation: buffers survive so a trapped workload can
        re-launch against the same data).

        The launcher already restored every execution manager's pooled
        state when the fault was contained; reset re-runs that recovery
        defensively and clears :attr:`last_error`. Under checked
        execution the sanitizer's leak check runs here, recording
        device buffers that were never freed on
        ``device.sanitizer.leak_reports``."""
        for manager in self.launcher.managers:
            manager.recover()
        self.last_error = None
        if self.sanitizer is not None:
            self.sanitizer.leak_check()

    # -- introspection -------------------------------------------------------

    def statistics_report(self) -> str:
        """One line: the module count and the cache's report rows."""
        cache = " ".join(self.cache.statistics.report().split())
        return f"modules={len(self.modules)} {cache}"
