"""Independent routes that check the closed-form term counts of ``termdist``.

Each route counts, for every m, the permanent-expansion terms with exactly m
variable entries another way than the closed form of the same family:

* ``w_recurrence_table``: a family-C table driven purely by recurrences,
* ``w_row_via_cycles``: a family-C row summed over the cycle types of S_n,
  that is over the integer partitions of n, one class size per partition,
* ``v_via_w``: family B's counts from family C's, by deleting the row and
  column of the lone variable diagonal entry,
* ``e_tables_bruteforce``: enumeration of all n! permutations, one walk per
  n shared by the three families (a permutation's fixed points and whether
  it fixes 0 decide its variable-entry count in every family).  Past n = 6
  the walk takes S_n as every prefix of n - 6 values followed by S_6: it
  walks S_6 once and each prefix once, and counts a prefix's whole block
  from the S_6 counts.  Its one limit, ``BRUTEFORCE_MAX_N`` = 12 (under
  1 s), is not lifted by anything.

These are oracles: only ``validate`` and the tests load this module, so no
other command compiles it.  All arithmetic is exact (Python integers).
"""

import itertools
import math
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate
from operator import eq

from .families import Family
from .guards import check_guard
from .termdist import TermDistribution, _check_index, derangement

# Largest n the walk accepts; nothing lifts it.  Past S_6 each step
# multiplies the walk's time by n: on two cores n=11 takes about 0.05 s,
# n=12 about 0.6 s and n=13 would take about 8 s.
BRUTEFORCE_MAX_N = 12

# Trailing positions of each S_n that the walk takes as one block: it walks
# S_6 once per n and counts each block from it.
WALK_BLOCK = 6


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


def w_row_via_cycles(n: int) -> list[int]:
    """Family-C row [W_n(0..n)] from one pass over the cycle types of S_n.

    A term has m variable entries exactly when its permutation moves m points,
    i.e. has n - m fixed points.  A cycle type with k_l cycles of length l
    holds n! / prod_l (l**k_l * k_l!) permutations, and each such class size
    adds to row[n - k_1].
    """
    row = [0] * (n + 1)
    for parts in partitions(n):
        denom = 1
        for length in set(parts):
            k = parts.count(length)
            denom *= length**k * math.factorial(k)
        row[n - parts.count(1)] += math.factorial(n) // denom
    return row


def _w_or_zero(n: int, m: int) -> int:
    if n < 0 or m < 0 or m > n:
        return 0
    return math.comb(n, m) * derangement(m)


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


def e_tables_bruteforce(n: int) -> dict[Family, TermDistribution]:
    """Term-count distributions of every family from one walk of all n! permutations.

    Position (sigma(j), j) lies on the diagonal exactly when sigma fixes j,
    so a term's variable-entry count follows from its fixed-point count fp
    and from whether sigma fixes 0: all n positions for family A, n - fp for
    family C, and for family B one more than that when sigma fixes 0 (the
    variable diagonal entry counts as variable).  The walk keeps the joint
    histogram of those two quantities and derives all three rows from it.

    With m = min(n, ``WALK_BLOCK``) and offset = n - m, each sigma is a
    prefix on positions 0..offset-1 followed by an arrangement of the m
    values the prefix leaves on the last m positions.  Such a position can
    be fixed only when its own value is among those m, so k = m - used of
    them are fixable, ``used`` counting the prefix's values >= offset.
    Labelling the k fixable positions and their values 0..k-1, and the
    other positions and values k..m-1, each side in ascending order, makes
    the arrangements S_m, one to one, and an arrangement fixes f fixable
    positions exactly when its tau fixes f of 0..k-1.  So the walk counts
    each tau of S_m once by how many of 0..k-1 it fixes for every k, and
    each prefix once by its fixed points, ``used`` and whether it fixes 0;
    a prefix's whole block follows from those counts.  With no prefix
    (n <= m) S_n is S_m, and tau(0) == 0 decides whether 0 is fixed.  The
    walk holds a few hundred counts whatever n is.  n above
    ``BRUTEFORCE_MAX_N`` raises :class:`GuardError`, which nothing lifts,
    before any walk.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_guard(n, BRUTEFORCE_MAX_N, "dimension for factorial-time enumeration")
    m = min(n, WALK_BLOCK)
    offset = n - m
    # fixed[k] is how many of the points 0..k-1 tau fixes, for k = 0..m.
    tails = Counter(tuple(accumulate(map(eq, tau, range(m)), initial=0))
                    for tau in itertools.permutations(range(m)))
    # joint[fp][fixes_0] counts the permutations with fp fixed points that
    # fix 0 (fixes_0 = 1) or move it (fixes_0 = 0).
    joint = [[0, 0] for _ in range(n + 1)]
    if offset:
        high = set(range(offset, n))
        heads = Counter((sum(map(eq, prefix, range(offset))), len(high.intersection(prefix)),
                         prefix[0] == 0) for prefix in itertools.permutations(range(n), offset))
        for (fp, used, fixes_0), count in heads.items():
            for fixed, ways in tails.items():
                joint[fp + fixed[m - used]][fixes_0] += count * ways
    else:
        for fixed, count in tails.items():
            joint[fixed[m]][fixed[1]] += count
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
