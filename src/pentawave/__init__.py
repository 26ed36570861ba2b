"""Fivefold standing-wave superposition: series expansion, identity
verification, critical point search, and pentagrid/rhombus-tiling
registration of the field extrema."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .extrema import (
    KIND_DEGENERATE,
    KIND_MAXIMUM,
    KIND_MINIMUM,
    KIND_SADDLE,
    KINDS,
    S2_FIELD,
    S5_FIELD,
    CriticalSet,
    FieldTriple,
    SearchConfig,
    classify,
    default_search_config,
    find_critical_points,
    s2_oracle,
)
from .identities import (
    direction_sum_residuals,
    even_flip_terms,
    expansion_lhs,
    expansion_terms,
    functional_residual,
    suite_residual_breakdown,
    two_wave_residual,
)
from .pentagrid import (
    Correspondences,
    MatchReport,
    PentagridSpec,
    SimilarityTransform,
    TilingPatch,
    dual_vertices,
    fit_similarity,
    match_report,
    matching_correspondences,
    region_indices,
    region_sign,
    tiles,
)
from .wavefield import (
    GOLDEN_RATIO,
    SeriesSpec,
    TailBound,
    direction_basis,
    fib,
    fib_closed_form,
    grad_s5,
    hess_s5,
    p5,
    project,
    s5,
    series_max_errors,
    series_partial,
    tail_bound,
    terms_for_tolerance,
)

# The names imported above; their imports also bind the submodules, which are left out.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
