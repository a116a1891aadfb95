"""Simulated flat memory with segment windows.

One byte-addressable arena backs every PTX state space:

- ``global`` addresses are absolute arena addresses (kernel parameters
  pass them around as 64-bit values, exactly as on hardware);
- ``param`` / ``shared`` / ``local`` accesses are segment-relative and
  resolved against per-launch / per-CTA / per-thread base addresses
  held by the executing context (§2's multiple on-chip address spaces).

Address 0 is reserved so that a null pointer always faults.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import LaunchError, MemoryFault
from ..ptx.types import DataType

#: Bytes reserved at the bottom of the arena (null page).
_NULL_GUARD = 64


class MemorySystem:
    """Bump-allocated arena with typed loads and stores."""

    def __init__(self, size: int = 1 << 24):
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._brk = _NULL_GUARD
        #: Freed regions available for reuse: (address, size) pairs.
        self._free_blocks: List[Tuple[int, int]] = []
        #: Number of loads/stores serviced (machine-level statistic).
        self.load_count = 0
        self.store_count = 0
        #: Attached :class:`repro.sanitizer.KernelSanitizer` (checked
        #: execution): allocation/free route through its shadow layer
        #: (redzones, registry, quarantine) and host copies update
        #: per-byte initialization state. ``None`` = unchecked.
        self.sanitizer = None

    # -- allocation ----------------------------------------------------------

    def allocate(
        self,
        size: int,
        align: int = 16,
        kind: str = "device",
        label: Optional[str] = None,
    ) -> int:
        """Reserve ``size`` bytes and return the base address.

        With a sanitizer attached the region is registered (``kind`` /
        ``label`` classify it in reports) and wrapped in redzones;
        otherwise ``kind``/``label`` are ignored.
        """
        if self.sanitizer is not None:
            return self.sanitizer.allocate(
                size, align=align, kind=kind, label=label
            )
        return self._arena_allocate(size, align)

    def _arena_allocate(self, size: int, align: int = 16) -> int:
        """Raw arena reservation (first-fit free list, then the bump
        pointer; returned memory is always zeroed)."""
        if size < 0:
            raise MemoryFault(self._brk, size, "negative allocation")
        for index, (address, block_size) in enumerate(self._free_blocks):
            aligned = address + (-address % align)
            waste = aligned - address
            if block_size - waste >= size:
                del self._free_blocks[index]
                if waste:
                    self._free_blocks.append((address, waste))
                tail = block_size - waste - size
                if tail:
                    self._free_blocks.append((aligned + size, tail))
                self.data[aligned : aligned + size] = 0
                return aligned
        remainder = self._brk % align
        if remainder:
            # The align bump would otherwise leak the padding bytes
            # forever; keep them reusable (and absorbable when the
            # break later recedes past them).
            padding = align - remainder
            self._free_blocks.append((self._brk, padding))
            self._brk += padding
        base = self._brk
        if base + size > self.size:
            raise MemoryFault(base, size, "arena exhausted")
        self._brk += size
        return base

    def free(self, address: int, size: int) -> None:
        """Return a previously allocated region to the arena.

        With a sanitizer attached the region is validated against the
        allocation registry and quarantined (delayed reuse) instead of
        being returned immediately. Otherwise the raw arena free runs:
        the region that ends at the break lowers the bump pointer,
        interior regions are coalesced with adjacent free blocks and
        kept for reuse by :meth:`allocate`.
        """
        if self.sanitizer is not None:
            self.sanitizer.free(address, size)
            return
        self._arena_free(address, size)

    def _arena_free(self, address: int, size: int) -> None:
        """Raw arena free (validated; coalescing).

        Frees are validated: a region reaching past the break, or
        overlapping an already-free block (double free), raises
        :class:`MemoryFault` instead of silently lowering the break
        underneath live allocations.
        """
        if size <= 0:
            return
        self._check(address, size)
        if address + size > self._brk:
            raise MemoryFault(
                address, size, "free beyond the allocation break"
            )
        for base, length in self._free_blocks:
            if address < base + length and base < address + size:
                raise MemoryFault(
                    address,
                    size,
                    "free overlaps an already-free region "
                    "(double free?)",
                )
        # Coalesce with adjacent free blocks first, so interior
        # fragments merge into maximal regions (an interleaved
        # free(A); free(B) of neighbours can later satisfy one
        # allocation of len(A)+len(B)).
        merged = True
        while merged:
            merged = False
            for index, (base, length) in enumerate(self._free_blocks):
                if base + length == address:
                    address = base
                    size += length
                    del self._free_blocks[index]
                    merged = True
                    break
                if address + size == base:
                    size += length
                    del self._free_blocks[index]
                    merged = True
                    break
        if address + size == self._brk:
            self._brk = address
            return
        self._free_blocks.append((address, size))

    def reset(self) -> None:
        """Free everything (used between benchmark iterations)."""
        self.data[:] = 0
        self._brk = _NULL_GUARD
        self._free_blocks = []
        self.load_count = 0
        self.store_count = 0
        if self.sanitizer is not None:
            self.sanitizer.reset()

    @property
    def bytes_allocated(self) -> int:
        return self._brk

    # -- bounds --------------------------------------------------------------

    def _check(self, address: int, size: int) -> None:
        if address < _NULL_GUARD or address + size > self.size:
            raise MemoryFault(address, size)

    # -- typed scalar access -------------------------------------------------

    def load(self, dtype: DataType, address: int):
        """Load one value of ``dtype`` from ``address``."""
        address = int(address)
        if dtype.is_predicate:
            self._check(address, 1)
            self.load_count += 1
            return bool(self.data[address])
        size = dtype.size
        self._check(address, size)
        self.load_count += 1
        view = self.data[address : address + size]
        return view.view(dtype.numpy_dtype)[0]

    def store(self, dtype: DataType, address: int, value) -> None:
        """Store one value of ``dtype`` at ``address``."""
        address = int(address)
        if dtype.is_predicate:
            self._check(address, 1)
            self.store_count += 1
            self.data[address] = 1 if value else 0
            return
        size = dtype.size
        self._check(address, size)
        self.store_count += 1
        scalar = np.asarray(value).astype(dtype.numpy_dtype)
        self.data[address : address + size] = np.frombuffer(
            scalar.tobytes(), dtype=np.uint8
        )

    # -- guest access outside the typed entry points ------------------------

    def _check_batch(self, addresses: np.ndarray, size: int) -> None:
        """:meth:`_check` over a batch (the slow path of the batch
        printer's inline check): its extremes decide, and only a batch
        with an address out looks for the first one in index order —
        the fault the scalar path would have raised."""
        if (
            addresses.min(initial=_NULL_GUARD) < _NULL_GUARD
            or addresses.max(initial=0) + size > self.size
        ):
            bad = (addresses < _NULL_GUARD) | (
                addresses + size > self.size
            )
            self._check(int(addresses[int(np.argmax(bad))]), size)

    # -- bulk host access (the cudaMemcpy analogues) ----------------------

    def write_array(self, address: int, array: np.ndarray) -> None:
        source = np.ascontiguousarray(array)
        raw = source.view(np.uint8).reshape(-1)
        self._check(address, raw.size)
        self.data[address : address + raw.size] = raw
        # Host-copy traffic counts like scalar traffic: one store per
        # element written (vector guest stores route through here too).
        self.store_count += int(source.size)
        if self.sanitizer is not None:
            self.sanitizer.note_host_write(address, raw.size)

    def read_array(
        self,
        address: int,
        dtype,
        count: int,
    ) -> np.ndarray:
        numpy_dtype = np.dtype(dtype)
        nbytes = numpy_dtype.itemsize * count
        self._check(address, nbytes)
        self.load_count += int(count)
        raw = self.data[address : address + nbytes]
        return raw.view(numpy_dtype).copy()

    def fill(self, address: int, size: int, byte: int = 0) -> None:
        self._check(address, size)
        self.data[address : address + size] = byte
        if self.sanitizer is not None:
            self.sanitizer.note_host_write(address, size)


class GuestAccess:
    """The guest-access seam: what the *checked* memory template of
    generated block code calls, one call per access, with the program
    point as arguments (the warp state, the lane, the address, ...,
    shared?, block label, instruction index). This base class checks
    nothing and forwards to the :class:`MemorySystem`; the kernel
    sanitizer is the subclass that checks first (:meth:`check_access`).

    A fault-injection harness overrides the four entry points on an
    *instance*. The inline template never calls them, so the
    interpreter asks :meth:`patched` per warp and runs the checked
    template while a patch is in place (and the execution manager forms
    no batch then): injected faults fire — and stop firing — whenever
    the harness arms and restores."""

    ENTRY_POINTS = (
        "guest_load", "guest_store", "guest_read_vector",
        "guest_write_vector",
    )

    def __init__(self, memory: MemorySystem):
        self.memory = memory

    def patched(self) -> bool:
        """True while any of :attr:`ENTRY_POINTS` is overridden."""
        return not self.__dict__.keys().isdisjoint(self.ENTRY_POINTS)

    def check_access(
        self, state, lane, address, size, is_write, shared, label,
        index, atomic,
    ) -> None:
        """Classify one access before it is performed: nothing here."""

    def guest_load(
        self, state, lane, address, dtype, shared, label, index,
        atomic=False,
    ):
        address = int(address)
        size = 1 if dtype.is_predicate else dtype.size
        self.check_access(
            state, lane, address, size, False, shared, label, index,
            atomic,
        )
        return self.memory.load(dtype, address)

    def guest_store(
        self, state, lane, address, dtype, value, shared, label, index,
        atomic=False,
    ) -> None:
        address = int(address)
        size = 1 if dtype.is_predicate else dtype.size
        self.check_access(
            state, lane, address, size, True, shared, label, index,
            atomic,
        )
        self.memory.store(dtype, address, value)

    def guest_read_vector(
        self, state, lane, address, numpy_dtype, width, shared, label,
        index,
    ):
        address = int(address)
        self.check_access(
            state, lane, address, numpy_dtype.itemsize * width, False,
            shared, label, index, False,
        )
        return self.memory.read_array(address, numpy_dtype, width)

    def guest_write_vector(
        self, state, lane, address, array, shared, label, index
    ) -> None:
        address = int(address)
        self.check_access(
            state, lane, address, array.nbytes, True, shared, label,
            index, False,
        )
        self.memory.write_array(address, array)


class Allocation:
    """A host-visible handle to an arena region (device buffer)."""

    def __init__(
        self, memory: MemorySystem, address: int, size: int,
        label: Optional[str] = None,
    ):
        self.memory = memory
        self.address = address
        self.size = size
        self.label = label

    def write(self, array: np.ndarray) -> None:
        array = np.asarray(array)
        self._within("write", array.nbytes)
        self.memory.write_array(self.address, array)

    def free(self) -> None:
        """Return this buffer's arena region for reuse."""
        self.memory.free(self.address, self.size)

    def read(self, dtype, count: int) -> np.ndarray:
        self._within("read", np.dtype(dtype).itemsize * count)
        return self.memory.read_array(self.address, dtype, count)

    def _within(self, verb: str, nbytes: int) -> None:
        """Bound a host copy by the buffer (tenants share the arena)."""
        if not 0 <= nbytes <= self.size:
            raise LaunchError(
                f"{verb} of {nbytes} bytes does not fit {self!r} "
                f"(0 to {self.size} bytes)"
            )

    def __int__(self):
        return self.address

    def __repr__(self):
        label = f" {self.label}" if self.label else ""
        return (
            f"<Allocation{label} @0x{self.address:x} {self.size} bytes>"
        )
