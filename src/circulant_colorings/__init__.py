"""Perfect colorings of circulant graphs with odd distance sets.

A coloring is perfect when the multiset of colors around a vertex depends
only on the vertex's own color; the per-color counts form the parameter
matrix.  This package models finite circulants Ci_t(D) (as pseudographs,
so colliding offsets become multiedges and loops) and their infinite cover
Ci(D) on the integers, verifies and constructs perfect colorings, searches
for them exhaustively, and cross-checks the constructions for completeness.
"""

from .core import (
    BudgetExceededError,
    DistanceSet,
    FiniteColoring,
    ParameterMatrix,
    PeriodicColoring,
    coloring_from_json,
    coloring_to_json,
    least_rotation,
    make_odd_distance_set,
    neighbor_offsets,
    primitive_period,
)
from .perfection import (
    PerfectionVerdict,
    check_perfect,
    is_bipartite_coloring,
)
from .constructors import (
    all_4n_colorings,
    all_matched_colorings,
    count_4n_colorings,
    path_colorings,
)
from .enumeration import (
    Automaton,
    EnumerationResult,
    candidate_matrices,
    canonical_form,
    enumerate_perfect_finite,
    enumerate_periodic_perfect,
    step_window,
    window_is_consistent,
)
from .verification import (
    CheckReport,
    build_induced_set,
    check_conjecture,
    check_theorem_k2,
    induce,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DistanceSet",
    "FiniteColoring",
    "ParameterMatrix",
    "PeriodicColoring",
    "coloring_from_json",
    "coloring_to_json",
    "least_rotation",
    "make_odd_distance_set",
    "neighbor_offsets",
    "primitive_period",
    "PerfectionVerdict",
    "check_perfect",
    "is_bipartite_coloring",
    "all_4n_colorings",
    "all_matched_colorings",
    "count_4n_colorings",
    "path_colorings",
    "Automaton",
    "EnumerationResult",
    "candidate_matrices",
    "canonical_form",
    "enumerate_perfect_finite",
    "enumerate_periodic_perfect",
    "step_window",
    "window_is_consistent",
    "CheckReport",
    "build_induced_set",
    "check_conjecture",
    "check_theorem_k2",
    "induce",
    "__version__",
]
