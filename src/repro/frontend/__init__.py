"""Frontend: PTX -> scalar IR translation (§5.1). Predication
lowering (predicated ops -> selects / short diamonds) and barrier
block-splitting happen inside the translator, matching the paper's
PTX->PTX pre-pass."""

from .translator import Translator, translate_kernel

__all__ = ["Translator", "translate_kernel"]
