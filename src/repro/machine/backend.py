"""The execution-backend seam.

:class:`~repro.machine.interpreter.Interpreter` defines the contract an
executor fulfils — ``load_function`` turns an IR specialization into an
:class:`~repro.machine.interpreter.ExecutableFunction`, ``execute``
runs one warp through it. There are two executors:

- the one every ``Device`` runs on,
  :class:`~repro.machine.array_backend.ArrayBackend`: generated block
  functions one warp at a time, and — where the execution manager sees
  enough same-entry-point warps waiting and the record of earlier
  batches there does not refuse — all of them at once as numpy array
  programs (batching is something it does where it pays, not a name a
  user picks);
- the test oracle (:mod:`repro.testing.reference`).

:func:`create_backend` is the single construction point used by
:class:`~repro.api.device.Device`.
"""

from __future__ import annotations

from .array_backend import ArrayBackend
from .descriptor import MachineDescription
from .interpreter import _DEFAULT_INSTRUCTION_LIMIT, Interpreter
from .memory import MemorySystem

#: The executors (``ExecutionConfig.backend``).
#:
#: - ``"interpreter"`` — the executor: generated block functions, with
#:   same-entry-point warps batched into numpy array programs where the
#:   observed batch size and outcomes say a batch pays.
#: - ``"reference"`` — the test-side oracle
#:   (:mod:`repro.testing.reference`): a per-instruction interpreter
#:   of the IR that lowers nothing. Slow; cannot sanitize.
BACKENDS = ("interpreter", "reference")

#: Names still accepted for the default executor: ``"array"`` selected
#: the batched path while it was a separate backend.
BACKEND_ALIASES = {"array": "interpreter"}


def create_backend(
    name: str,
    machine: MachineDescription,
    memory: MemorySystem,
    instruction_limit: int = _DEFAULT_INSTRUCTION_LIMIT,
    sanitizer=None,
) -> Interpreter:
    """Construct the executor ``name``; both satisfy the
    :class:`Interpreter` interface (``load_function`` / ``execute`` /
    ``new_state``)."""
    name = BACKEND_ALIASES.get(name, name)
    if name == "interpreter":
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
