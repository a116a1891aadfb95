"""Public heterogeneous-computing API front-end (CUDA-Runtime-like)."""

from .device import Device

__all__ = ["Device"]
