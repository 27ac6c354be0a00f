"""Counting permanent-expansion terms by their number of variable entries.

Every permutation sigma contributes one term to the permanent of an n x n
matrix, and the term touches a variable entry exactly where a position
(sigma(j), j) falls on the family's variable mask.  For each m this module
counts the terms with exactly m variable entries by closed forms built on
derangement numbers; ``e_table`` collects them into one distribution per
family and size.

The independent routes that check these counts, the recurrence table, the
cycle-type sums, the family-B identity and the walk of every S_n, live in
``validation``, which only ``validate`` and the tests load.

All arithmetic is exact (Python integers); nothing here touches floats.
"""

import math

from .families import Family
from .guards import Record


def derangement(k: int) -> int:
    """Number of permutations of k elements with no fixed point.

    Computed by the telescoped recurrence D(k) = k*D(k-1) + (-1)^k, which is
    the integer form of the alternating factorial sum k! * sum (-1)^l / l!.
    """
    if k < 0:
        raise ValueError(f"size must be >= 0, got {k}")
    d = 1
    for j in range(1, k + 1):
        d = j * d + (-1 if j % 2 else 1)
    return d


def _check_index(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= m <= n:
        raise IndexError(f"m must be in [0, {n}], got {m}")


def w_closed_form(n: int, m: int) -> int:
    """Terms with m variable entries when the whole diagonal is pinned (family C).

    The alternating sum in the permutation closed form telescopes to the
    derangement number, giving C(n, m) * derangement(m) exactly.
    """
    _check_index(n, m)
    return math.comb(n, m) * derangement(m)


def v_closed_form(n: int, m: int) -> int:
    """Terms with m variable entries when one diagonal entry stays variable (family B).

    The braced part of the closed form telescopes to derangement(m + 1) / m!,
    so the value is (n-1)! * derangement(m+1) / ((n-m)! * m!), an exact
    integer division.  The m=0 column is 0 by convention.
    """
    _check_index(n, m)
    if m == 0:
        return 0
    num = math.factorial(n - 1) * derangement(m + 1)
    den = math.factorial(n - m) * math.factorial(m)
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"V_{n}({m}): {num} is not divisible by {den}")
    return q


class TermDistribution(Record):
    """Counts of permanent-expansion terms indexed by number of variable entries."""

    __slots__ = ("family", "n", "counts")

    def __init__(self, family: Family, n: int, counts: tuple[int, ...]) -> None:
        self.family = family
        self.n = n
        self.counts = counts
        if len(self.counts) != self.n + 1:
            raise ValueError(
                f"counts must have length n + 1 = {self.n + 1}, got {len(self.counts)}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    def total(self) -> int:
        return sum(self.counts)


def e_table(family: Family, n: int) -> TermDistribution:
    """Term-count distribution for (family, n) from the closed forms.

    Family A puts all n! terms at m = n; family B uses the one-variable-
    diagonal row; family C uses the pinned-diagonal row.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if family is Family.A:
        counts = [0] * n + [math.factorial(n)]
    elif family is Family.B:
        counts = [0] + [v_closed_form(n, m) for m in range(1, n + 1)]
    else:
        counts = [w_closed_form(n, m) for m in range(n + 1)]
    return TermDistribution(family, n, tuple(counts))
