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
  it fixes 0 decide its variable-entry count in every family).  The walk
  takes S_n as blocks, one prefix followed by one S_7 column table
  relabelled onto the values the prefix leaves, and counts a block's fixed
  points with whole-buffer ``bytes`` and ``int`` operations on flag ints
  built once per walk, one per position and value that a block can pair.
  The table itself is built the same way, S_k from S_{k-1} relabelled, so
  the walk builds no tuple per permutation.  The walk has one limit,
  ``BRUTEFORCE_MAX_N`` = 12 (about 3.8 s), and nothing lifts it.

These are oracles: only ``validate`` and the tests load this module, so no
other command compiles it.  All arithmetic is exact (Python integers).
"""

import itertools
import math
from collections.abc import Iterator

from .families import Family
from .guards import check_guard
from .termdist import TermDistribution, _check_index, derangement

# Largest n the walk accepts; nothing lifts it.  Each step multiplies the
# walk's time by n: n=11 takes about 0.3 s and n=12 about 3.8 s on two
# cores, so n=13 would take about 50 s.
BRUTEFORCE_MAX_N = 12

# Trailing positions of each S_n that the walk counts as one block: it
# builds S_7 once per walk, as 7 columns of 5040 bytes, and relabels it per
# prefix.
WALK_BLOCK = 7


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


def _column_table(m: int) -> list[bytes]:
    """S_m as m byte columns, in the order of ``itertools.permutations(range(m))``.

    ``columns[j][t]`` is tau(j) for the t-th permutation tau.  S_k is built
    from S_{k-1} by relabelling: the permutations with first value v come
    in one run of (k-1)! rows, whose column 0 is v throughout and whose
    other columns are the S_{k-1} columns ``translate``d onto the k - 1
    values other than v, in ascending order.  No tuple is built per
    permutation.
    """
    columns: list[bytes] = []
    for k in range(1, m + 1):
        run = math.factorial(k - 1)
        # relabel[v] maps i to the i-th smallest value of range(k) other than v.
        relabel = [bytes(range(v)) + bytes(range(v + 1, k)) + bytes(257 - k)
                   for v in range(k)]
        columns = [b"".join(bytes([v]) * run for v in range(k))] + [
            b"".join(col.translate(table) for table in relabel) for col in columns
        ]
    return columns


def _walk_blocks(
    n: int,
) -> Iterator[tuple[tuple[int, ...], list[int], list[bytes]]]:
    """All of S_n, in the order of ``itertools.permutations(range(n))``, as blocks.

    With m = min(n, ``WALK_BLOCK``), each block is one prefix, a permutation
    of n - m values from ``itertools.permutations(range(n), n - m)``, followed
    by every permutation of the m values it leaves.  Yields (prefix, rest,
    columns): ``rest`` lists those m values in ascending order, and
    ``columns`` is the :func:`_column_table` of S_m, so the t-th
    permutation of the block is ``prefix + tuple(rest[col[t]] for col in
    columns)``.  The column table is built once per call, by relabelling
    S_1 up to S_m, and shared by every block.  When n <= m there is no
    prefix and no prefix enumeration.
    """
    m = min(n, WALK_BLOCK)
    columns = _column_table(m)
    prefixes = itertools.permutations(range(n), n - m) if n > m else [()]
    for prefix in prefixes:
        yield prefix, sorted(set(range(n)).difference(prefix)), columns


def e_tables_bruteforce(n: int) -> dict[Family, TermDistribution]:
    """Term-count distributions of every family from one walk of all n! permutations.

    Position (sigma(j), j) lies on the diagonal exactly when sigma fixes j,
    so a term's variable-entry count follows from its fixed-point count fp
    and from whether sigma fixes 0: all n positions for family A, n - fp for
    family C, and for family B one more than that when sigma fixes 0 (the
    variable diagonal entry counts as variable).  The walk keeps the joint
    histogram of those two quantities and derives all three rows from it.

    The walk visits S_n in blocks, each one prefix followed by S_m
    (m = min(n, ``WALK_BLOCK``)) relabelled onto the values it leaves.
    A prefix's fixed points are the same for its whole block.  Once per
    walk, one ``bytes.translate`` per column j of the S_m table and index i
    flags, as an int with one byte per permutation, where column j holds i;
    a block fixes position offset + j where column j holds the index of
    that position's value among the values the prefix leaves, so each
    block sums the flag ints of its fixable positions and counts the bytes
    of the sum, with no tuple per permutation.  That index lies between j
    and j + offset, so only those flag ints are built: 7 at n=7, 13 at n=8
    and at most 28.  The S_m table is itself built by relabelling
    (:func:`_column_table`), so memory is bounded by its 7 columns and the
    flag ints of 5040 bytes each, and the walk stays under 1 MiB whatever
    n is.  n above ``BRUTEFORCE_MAX_N`` raises :class:`GuardError`, which
    nothing lifts, before any walk.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_guard(n, BRUTEFORCE_MAX_N, "dimension for factorial-time enumeration")
    # keyed[2 * fp + fixes_0] counts the permutations with fp fixed points
    # that fix 0 (fixes_0 = 1) or move it (fixes_0 = 0).
    keyed = [0] * (2 * n + 2)
    m = min(n, WALK_BLOCK)
    offset = n - m  # a block's S_m part fills positions offset..n-1
    # Keys 2 * fp + fixes_0 one block can hold: only a block without a prefix
    # holds position 0, so only then can it fix 0.
    block_keys = range(0, 2 * m + 2, 2 if offset else 1)
    flags: list[list[int]] = []
    for prefix, rest, columns in _walk_blocks(n):
        # flags[j][i - j] has byte t set where column j holds i, by a
        # bytes.translate table that maps byte i to 1 and any other to 0.
        # Only j <= i <= j + offset is built: rest is ascending and leaves
        # out offset values, so rest[i] = offset + j only for those i.
        # Every block shares the S_m table, so the first block builds them.
        flags = flags or [
            [int.from_bytes(col.translate(bytes(i) + b"\x01" + bytes(255 - i)), "little")
             for i in range(j, min(m, j + offset + 1))]
            for j, col in enumerate(columns)
        ]
        # The prefix's part of the key, the same for its whole block.
        base = 2 * sum(v == j for j, v in enumerate(prefix)) + (prefix[:1] == (0,))
        # Position p = offset + j holds rest[columns[j][t]], so it is fixed
        # where column j holds the index i of p in rest.  A value p < offset
        # belongs to a prefix position, so the block never fixes it.  Each
        # byte of the sum is at most 2 * m + 1 <= 15, so nothing carries.
        keys = 2 * sum(flags[p - offset][i - p + offset]
                       for i, p in enumerate(rest) if p >= offset)
        block = (keys + (0 if offset else flags[0][0])).to_bytes(len(columns[0]), "little")
        for key in block_keys:
            keyed[base + key] += block.count(key)
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
