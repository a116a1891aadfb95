"""The execution-backend seam.

:class:`~repro.machine.interpreter.Interpreter` defines the contract a
backend fulfils — ``load_function`` lowers an IR specialization to an
:class:`~repro.machine.interpreter.ExecutableFunction`, ``execute``
runs one warp through it — and is itself the default implementation.
:class:`~repro.machine.array_backend.ArrayBackend` extends it with a
batched lowering that executes *all resident warps at once* as numpy
array programs (the paper's "run the specialized kernel as a wide
vector program" executed literally, host-side).

``ExecutionConfig(backend=...)`` selects the implementation; the
:func:`create_backend` factory is the single construction point used
by :class:`~repro.api.device.Device`.
"""

from __future__ import annotations

from typing import Optional

from .descriptor import MachineDescription
from .interpreter import _DEFAULT_INSTRUCTION_LIMIT, Interpreter
from .memory import MemorySystem

#: Selectable execution backends (``ExecutionConfig.backend``).
#:
#: - ``"interpreter"`` — one warp at a time through generated block
#:   functions.
#: - ``"array"`` — uniform block runs execute batched across every
#:   resident warp as numpy array operations; divergent or yielding
#:   warps fall back to the sequential path mid-kernel.
#: - ``"reference"`` — the test-side oracle
#:   (:mod:`repro.testing.reference`): a per-instruction interpreter
#:   of the IR that lowers nothing. Slow; cannot sanitize.
BACKENDS = ("interpreter", "array", "reference")


def create_backend(
    name: str,
    machine: MachineDescription,
    memory: MemorySystem,
    instruction_limit: int = _DEFAULT_INSTRUCTION_LIMIT,
    sanitizer=None,
) -> Interpreter:
    """Construct the execution backend ``name``.

    Every backend satisfies the :class:`Interpreter` interface
    (``load_function`` / ``execute`` / ``new_state``); the array
    backend additionally advertises ``supports_batching`` and
    ``execute_batch``, which the execution manager discovers by
    feature test rather than by name.
    """
    if name == "interpreter":
        backend = Interpreter
    elif name == "array":
        from .array_backend import ArrayBackend

        backend = ArrayBackend
    elif name == "reference":
        # Imported on request only: the oracle is test support, not
        # part of the product's execution path.
        from ..testing.reference import ReferenceInterpreter

        backend = ReferenceInterpreter
    else:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"expected one of {BACKENDS}"
        )
    return backend(
        machine,
        memory,
        instruction_limit=instruction_limit,
        sanitizer=sanitizer,
    )
