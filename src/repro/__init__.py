"""repro — a reproduction of "Dynamic Compilation of Data-Parallel
Kernels for Vector Processors" (Kerr, Diamos, Yalamanchili; CGO 2012).

The package implements the paper's full stack: a PTX-dialect frontend,
a scalar mid-level IR, the vectorization transformation with
yield-on-diverge (Algorithms 1-4), thread-invariant expression
elimination, a dynamic execution manager with dynamic/static warp
formation, a translation cache, and a simulated multicore vector
processor with a calibrated cost model.

Quick start::

    from repro import Device
    device = Device()
    device.register_module(ptx_text)
    out = device.malloc(n * 4)
    device.launch("vecAdd", grid=(blocks, 1, 1),
                  block=(threads, 1, 1), args=[a, b, out, n])
"""

from .api.device import Device
from .errors import (
    BarrierDeadlock,
    DeadlineExpired,
    DeviceLost,
    KernelTrap,
    LaunchError,
    LaunchTimeout,
    QuotaExceeded,
    SanitizerError,
    ServiceUnavailable,
)
from .runtime.cache_store import CacheStore
from .runtime.launcher import LaunchFuture
from .sanitizer import (
    SanitizerReport,
    format_sanitizer_report,
    format_sanitizer_reports,
)
from .machine.descriptor import (
    MachineDescription,
    avx_machine,
    knights_ferry,
    sandybridge,
)
from .runtime.config import (
    ExecutionConfig,
    baseline_config,
    static_tie_config,
    vectorized_config,
)
from .runtime.pool import DevicePool, TenantSession
from .runtime.statistics import WorkerHealth
from .runtime.traps import format_device_lost, format_timeout, format_trap

__version__ = "1.0.0"

__all__ = [
    "BarrierDeadlock",
    "CacheStore",
    "DeadlineExpired",
    "Device",
    "DeviceLost",
    "DevicePool",
    "ExecutionConfig",
    "KernelTrap",
    "LaunchError",
    "LaunchFuture",
    "LaunchTimeout",
    "MachineDescription",
    "QuotaExceeded",
    "ServiceUnavailable",
    "TenantSession",
    "SanitizerError",
    "SanitizerReport",
    "WorkerHealth",
    "avx_machine",
    "baseline_config",
    "format_device_lost",
    "format_sanitizer_report",
    "format_sanitizer_reports",
    "format_timeout",
    "format_trap",
    "knights_ferry",
    "sandybridge",
    "static_tie_config",
    "vectorized_config",
    "__version__",
]
