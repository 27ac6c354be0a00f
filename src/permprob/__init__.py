"""Permanent-term distributions and target-value probabilities for random 0/1 matrices.

For three families of n x n matrices whose entries are either pinned to 1 or
drawn at random, the package counts how many of the n! permanent-expansion
terms contain each possible number of random entries, evaluates the
product-form approximation Q(r) that treats terms as independent, and checks
it against the exact probability P(r).  The exact counts come from one
recurrence per family, polynomial in n; ``validate`` checks them against a
row-by-row transfer and against enumeration of every assignment of the
random entries.

Every public name is imported from its submodule on first access (PEP 562),
so ``import permprob`` loads no submodule and a command loads only the
modules it runs.
"""

import importlib

# The submodule that defines each public name.
_SOURCES = {
    "families": ("Family",),
    "guards": ("GuardError",),
    "probability": (
        "EXACT_MAX_N", "MAX_GRID", "ExactCounts", "bernstein_string",
        "compare_grid", "exact_counts", "p_eval", "q_eval",
    ),
    "oeis": ("LookupResult", "OEISFormatError", "oeis_lookup"),
    "sequences": ("SequenceCheck", "builtin_checks"),
    "termdist": (
        "TermDistribution", "derangement", "e_table", "v_closed_form",
        "w_closed_form",
    ),
    "validation": (
        "BRUTEFORCE_MAX_N", "e_tables_bruteforce", "partitions", "v_via_w",
        "variable_positions", "w_recurrence_table", "w_row_via_cycles",
    ),
}
_SUBMODULE = {name: module for module, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
