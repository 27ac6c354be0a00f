"""Counting permanent-expansion terms by their number of variable entries.

Every permutation sigma contributes one term to the permanent of an n x n
matrix, and the term touches a variable entry exactly where a position
(sigma(j), j) falls on the family's variable mask.  For each m this module
counts the terms with exactly m variable entries by closed forms in the
derangement numbers D(m); ``e_table`` builds each row in one pass of
D(m+1) = m * (D(m) + D(m-1)), O(n) big-integer steps.

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

    The braced part of the closed form telescopes to D(m+1) / m!, with D the
    derangement numbers, and D(m+1) = m * (D(m) + D(m-1)) cancels the
    factorials, which leaves C(n-1, m-1) * (D(m) + D(m-1)) with no division.
    The m=0 column is 0 by convention.
    """
    _check_index(n, m)
    return math.comb(n - 1, m - 1) * (derangement(m) + derangement(m - 1)) if m else 0


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

    Family A puts all n! terms at m = n; B and C carry D(m-1) and D(m) from
    D(-1) = 0, which no entry reads, and D(0) = 1.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if family is Family.A:
        return TermDistribution(family, n, (0,) * n + (math.factorial(n),))
    counts, prev, d = [], 0, 1
    for m in range(n + 1):
        if family is Family.C:
            counts.append(math.comb(n, m) * d)
        else:
            counts.append(math.comb(n - 1, m - 1) * (prev + d) if m else 0)
        prev, d = d, m * (prev + d)
    return TermDistribution(family, n, tuple(counts))
