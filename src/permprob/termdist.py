"""Counting permanent-expansion terms by their number of variable entries.

Every permutation sigma contributes one term to the permanent of an n x n
matrix, and the term touches a variable entry exactly where a position
(sigma(j), j) falls on the family's variable mask.  For each m this module
counts the terms with exactly m variable entries, by independent routes that
cross-check one another:

* a closed form built on derangement numbers,
* a table driven purely by recurrences,
* a sum over the cycle types of the symmetric group,
* brute-force enumeration of all n! permutations, one walk per n shared by
  the three families (a permutation's fixed points and whether it fixes 0
  decide its variable-entry count in every family).  The walk counts fixed
  points a chunk of permutations at a time with whole-buffer ``bytes`` and
  ``int`` operations, so its per-permutation cost is C code only.

All arithmetic is exact (Python integers); nothing here touches floats.
"""

from __future__ import annotations

import itertools
import math
from itertools import chain, islice
from typing import Iterator

from .guards import Record, check_guard
from .matrices import Family

BRUTEFORCE_MAX_N = 10

# Permutations whose fixed points the walk counts at once, whatever n is.
# 7! is no slower than 8! and keeps each buffer at 5040 * n bytes.
WALK_CHUNK = math.factorial(7)

# The walk keeps 2 * fixed points + (1 if sigma fixes 0) in one byte.
BYTE_KEY_MAX_N = 127

# bytes.translate table: a zero byte (a fixed point) becomes 1, any other 0.
_FIXED_POINT = b"\x01" + bytes(255)


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


def _w_or_zero(n: int, m: int) -> int:
    if n < 0 or m < 0 or m > n:
        return 0
    return math.comb(n, m) * derangement(m)


def w_recurrence_table(n_max: int) -> list[list[int]]:
    """Family-C triangle rows [W_n(0..n)] for n = 0..n_max, built from recurrences only.

    Seeds: the n=1 diagonal value is 0 and every m=0 column entry is 1.  The
    diagonal then advances by the step W_n(n) = n*W_{n-1}(n-1) + (-1)^n and
    each interior entry scales the smaller diagonal value by a binomial
    factor, W_n(m) = C(n, m) * W_m(m).  Row 0 is a filler for alignment.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    rows = [[1], [1, 0]]
    for n in range(2, n_max + 1):
        row = [1]
        for m in range(1, n):
            row.append(math.comb(n, m) * rows[m][m])
        row.append(n * rows[n - 1][n - 1] + (1 if n % 2 == 0 else -1))
        rows.append(row)
    return rows


def partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n as descending tuples, largest first part first.

    The order is deterministic: (n,), (n-1, 1), ..., (1,)*n.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


class CycleType(Record):
    """Cycle-length multiset of a permutation, stored as a descending tuple."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        self.parts = parts
        if not self.parts:
            raise ValueError("a cycle type needs at least one part")
        if any(p < 1 for p in self.parts):
            raise ValueError("cycle lengths must be >= 1")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be in descending order")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def fixed_points(self) -> int:
        return sum(1 for p in self.parts if p == 1)

    def multiplicities(self) -> dict[int, int]:
        mult: dict[int, int] = {}
        for p in self.parts:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def permutation_count(self) -> int:
        """Number of permutations with this cycle type (conjugacy-class size)."""
        denom = 1
        for length, mult in self.multiplicities().items():
            denom *= length**mult * math.factorial(mult)
        return math.factorial(self.n) // denom


def cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types of permutations of n elements, in stable partition order."""
    for parts in partitions(n):
        yield CycleType(parts)


def w_via_cycles(n: int, m: int) -> int:
    """Family-C count via cycle structure.

    A term has m variable entries exactly when its permutation moves m points,
    i.e. has n - m fixed points; class sizes of the matching cycle types add up.
    """
    _check_index(n, m)
    total = 0
    for ct in cycle_types(n):
        if n - ct.fixed_points == m:
            total += ct.permutation_count()
    return total


def v_closed_form(n: int, m: int) -> int:
    """Terms with m variable entries when one diagonal entry stays variable (family B).

    The braced part of the closed form telescopes to derangement(m + 1) / m!,
    so the value is (n-1)! * derangement(m+1) / ((n-m)! * m!), an exact
    integer division.  The m=0 column is 0 by convention.
    """
    if m == 0:
        _check_index(n, m)
        return 0
    _check_index(n, m)
    num = math.factorial(n - 1) * derangement(m + 1)
    den = math.factorial(n - m) * math.factorial(m)
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"V_{n}({m}): {num} is not divisible by {den}")
    return q


def v_via_w(n: int, m: int) -> int:
    """Family-B count from family-C counts.

    Deleting the row and column through the lone variable diagonal entry
    leaves a family-C matrix one size smaller, which gives
    V_n(m) = W_n(m) - W_{n-1}(m) + W_{n-1}(m-1), with out-of-range terms 0.
    """
    _check_index(n, m)
    if m < 1:
        raise IndexError(f"m must be >= 1, got {m}")
    return _w_or_zero(n, m) - _w_or_zero(n - 1, m) + _w_or_zero(n - 1, m - 1)


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


def e_tables_bruteforce(n: int, force: bool = False) -> dict[Family, TermDistribution]:
    """Term-count distributions of every family from one walk of all n! permutations.

    Position (sigma(j), j) lies on the diagonal exactly when sigma fixes j,
    so a term's variable-entry count follows from its fixed-point count fp
    and from whether sigma fixes 0: all n positions for family A, n - fp for
    family C, and for family B one more than that when sigma fixes 0 (the
    variable diagonal entry counts as variable).  The walk keeps the joint
    histogram of those two quantities and derives all three rows from it.

    The walk reads ``itertools.permutations(range(n))`` in chunks of at most
    ``WALK_CHUNK`` permutations, n bytes each, and counts a whole chunk's
    fixed points with ``bytes`` and ``int`` operations.  Memory is bounded
    by the chunk, not by n!: a few buffers of ``WALK_CHUNK * n`` bytes, well
    under 1 MiB at n=10.  Each permutation's key ``2 * fp + fixes_0`` must
    fit in one byte, so n above ``BYTE_KEY_MAX_N`` raises ``ValueError``
    even when forced, before the guard and before any walk.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > BYTE_KEY_MAX_N:
        raise ValueError(
            f"dimension must be <= {BYTE_KEY_MAX_N} for byte-wide fixed-point "
            f"counts, got {n}"
        )
    check_guard(n, BRUTEFORCE_MAX_N, "dimension for factorial-time enumeration", force)
    # keyed[2 * fp + fixes_0] counts the permutations with fp fixed points
    # that fix 0 (fixes_0 = 1) or move it (fixes_0 = 0).
    keyed = [0] * (2 * n + 2)
    walk = itertools.permutations(range(n))
    identity = bytes(range(n))
    ones = int.from_bytes(b"\x01" * n, "little")
    while perms := bytes(chain.from_iterable(islice(walk, WALK_CHUNK))):
        length = len(perms)
        size = length // n
        # Byte j of a permutation XOR j is zero exactly where sigma fixes j.
        moved = (int.from_bytes(perms, "little")
                 ^ int.from_bytes(identity * size, "little"))
        fixed = moved.to_bytes(length, "little").translate(_FIXED_POINT)
        # Times 0x0101...01 (n bytes), the last byte of each permutation holds
        # the sum of its n flags; no byte sum exceeds n, so nothing carries.
        sums = (int.from_bytes(fixed, "little") * ones).to_bytes(
            length + n - 1, "little")[n - 1::n]
        keys = (2 * int.from_bytes(sums, "little")
                + int.from_bytes(fixed[0::n], "little")).to_bytes(size, "little")
        for key in range(2 * n + 2):
            keyed[key] += keys.count(key)
    # joint[fp][fixes_0] counts the permutations with fp fixed points.
    joint = [keyed[k:k + 2] for k in range(0, 2 * n + 2, 2)]
    b = [0] * (n + 1)
    c = [0] * (n + 1)
    for fp, (moving_0, fixing_0) in enumerate(joint):
        c[n - fp] = moving_0 + fixing_0
        b[n - fp] += moving_0
        if fp:  # a permutation that fixes 0 has at least one fixed point
            b[n - fp + 1] += fixing_0
    return {
        Family.A: TermDistribution(Family.A, n, (0,) * n + (sum(c),)),
        Family.B: TermDistribution(Family.B, n, tuple(b)),
        Family.C: TermDistribution(Family.C, n, tuple(c)),
    }
