"""Test-support utilities: deterministic fault injection for the
containment runtime (traps, watchdog, cache recovery)."""

from .fault_injection import FaultInjector, fault_seed

__all__ = ["FaultInjector", "fault_seed"]
