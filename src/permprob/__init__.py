"""Permanent-term distributions and target-value probabilities for random 0/1 matrices.

For three families of n x n matrices whose entries are either pinned to 1 or
drawn at random, the package counts how many of the n! permanent-expansion
terms contain each possible number of random entries, evaluates the
product-form approximation Q(r) that treats terms as independent, and checks
it against the exact probability P(r), counted exactly by recurrences and
a row-by-row transfer and checked against enumeration of every assignment
of the random entries.
"""

from .guards import GuardError
from .matrices import (
    MAX_DIMENSION,
    NAIVE_MAX_N,
    RYSER_MAX_N,
    BinaryMatrix,
    Family,
    build_family_matrix,
    permanent_naive,
    permanent_ryser,
    variable_positions,
)
from .probability import (
    EXACT_MAX_VARIABLES,
    EXPAND_MAX_N,
    MAX_GRID,
    ApproxModel,
    ExactCounts,
    approx_model,
    bernstein_string,
    compare_grid,
    evaluate_polynomial,
    exact_counts,
    p_eval,
    q_eval,
    q_expand,
)
from .sequences import (
    LookupResult,
    OEISFormatError,
    SequenceCheck,
    SequenceRef,
    builtin_checks,
    load_reference_terms,
    oeis_lookup,
)
from .termdist import (
    BRUTEFORCE_MAX_N,
    CycleType,
    TermDistribution,
    cycle_types,
    derangement,
    e_table,
    e_table_bruteforce,
    e_tables_bruteforce,
    partitions,
    v_closed_form,
    v_via_w,
    w_closed_form,
    w_recurrence_table,
    w_via_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxModel",
    "BinaryMatrix",
    "BRUTEFORCE_MAX_N",
    "CycleType",
    "EXACT_MAX_VARIABLES",
    "EXPAND_MAX_N",
    "ExactCounts",
    "Family",
    "GuardError",
    "LookupResult",
    "MAX_DIMENSION",
    "MAX_GRID",
    "NAIVE_MAX_N",
    "OEISFormatError",
    "RYSER_MAX_N",
    "SequenceCheck",
    "SequenceRef",
    "TermDistribution",
    "approx_model",
    "bernstein_string",
    "build_family_matrix",
    "builtin_checks",
    "compare_grid",
    "cycle_types",
    "derangement",
    "e_table",
    "e_table_bruteforce",
    "e_tables_bruteforce",
    "evaluate_polynomial",
    "exact_counts",
    "load_reference_terms",
    "oeis_lookup",
    "p_eval",
    "partitions",
    "permanent_naive",
    "permanent_ryser",
    "q_eval",
    "q_expand",
    "v_closed_form",
    "v_via_w",
    "variable_positions",
    "w_closed_form",
    "w_recurrence_table",
    "w_via_cycles",
]
