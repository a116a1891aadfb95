"""Program transformations: the paper's vectorization (Algorithms 1-4),
thread-invariance analysis (§6.2), and the traditional cleanups the
translation cache runs after vectorization (§5.1)."""

from .block_merge import merge_blocks
from .constant_folding import fold_constants
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .melding import MeldDecision, MeldReport, meld_function
from .pass_manager import (
    PassManager,
    PassStatistics,
    scalar_prepass_pipeline,
    standard_cleanup_pipeline,
)
from .uniformity import (
    UniformityInfo,
    analyze_affine,
    analyze_uniformity,
    count_thread_invariant_operands,
)
from .vectorize import (
    VectorizeOptions,
    Vectorizer,
    assign_spill_slots,
    compute_entry_points,
    vectorize_kernel,
)

__all__ = [
    "MeldDecision",
    "MeldReport",
    "PassManager",
    "PassStatistics",
    "UniformityInfo",
    "VectorizeOptions",
    "Vectorizer",
    "analyze_affine",
    "analyze_uniformity",
    "assign_spill_slots",
    "compute_entry_points",
    "count_thread_invariant_operands",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "fold_constants",
    "meld_function",
    "merge_blocks",
    "scalar_prepass_pipeline",
    "standard_cleanup_pipeline",
    "vectorize_kernel",
]
