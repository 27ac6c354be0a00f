"""The oracle routes that check the exact counts.

``variable_positions`` fixes the order of a family's variable entries, the
bit order of every assignment.  ``Family`` lives in ``families``; this
module imports it, so ``matrices.Family`` is the same object.

``exact_counts_direct``, an oracle for ``probability.exact_counts``,
evaluates the 2^K assignments bit-sliced, one bit per assignment: each
entry becomes the int whose bit t is that entry under assignment t, a
permutation's term is the AND of its n entries, and two accumulators record
where at least one and at least two terms are 1, which tells permanent 0 or
exactly 1, the only targets, from the rest.  Its lane ints grow as K * 2^K
bits, so it refuses a K whose ints would pass ``ENUMERATION_MAX_BYTES``.
``_counts_transfer``, the second oracle, runs a dynamic program row by row
over the capped permanents of column subsets, in time exponential in n.
``leading_permanents`` gives the permanents of every leading k x k block of
one matrix from a single row-by-row pass over column subsets, for the
diagonal checks of ``validate``.  Only ``validate`` and the tests load
this module; no other command imports it, and it imports no ``typing``.
"""

import itertools
import math
import operator
from collections.abc import Sequence
from functools import lru_cache, reduce

from .families import Family
from .guards import GuardError


@lru_cache(maxsize=None)
def variable_positions(family: Family, n: int) -> tuple[tuple[int, int], ...]:
    """Variable (row, col) pairs in row-major order.

    The ordering is the contract that makes assignment indices reproducible:
    bit k of an assignment always refers to the k-th pair returned here.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return tuple(
        (i, j) for i in range(n) for j in range(n) if family.is_variable(i, j)
    )


# Most bytes the lane ints of ``exact_counts_direct`` may take.  It holds at
# most about 3 * K ints of 2**K bits: 15.75 MiB for family B at n=5 (K = 21;
# tracemalloc peaks at 13.7 MiB), and 300 MiB at K = 25, the next K of any
# family.
ENUMERATION_MAX_BYTES = 32 << 20

# Largest dimension ``leading_permanents`` takes: its state at 16 is 2**16
# lanes of 6 bytes, 384 KiB per int.
LEADING_MAX_N = 16


def _entry_lanes(family: Family, n: int) -> tuple[list[list[int]], list[int]]:
    """Every entry under all 2**K assignments t at once, bit t for assignment t.

    Returns the n x n entry ints and the lane masks.  Bit t of the k-th
    variable entry is bit k of t, and a fixed entry is -1, whose every bit
    is 1.  Bit t of ``masks[i]`` is set when t has i ones, so the masks
    partition the lanes.  Each variable doubles the lanes: the old ones are
    copied above themselves, where the new variable is 1.
    """
    patterns: list[int] = []
    masks = [1]
    for k in range(family.variable_count(n)):
        lanes = 1 << k
        patterns = [p | p << lanes for p in patterns] + [((1 << lanes) - 1) << lanes]
        masks = [a | b << lanes for a, b in zip(masks + [0], [0] + masks)]
    entries = [[-1] * n for _ in range(n)]
    for (i, j), pattern in zip(variable_positions(family, n), patterns):
        entries[i][j] = pattern
    return entries, masks


def exact_counts_direct(family: Family, n: int) -> tuple[int, ...]:
    """Oracle for ``exact_counts``: evaluate all 2**K assignments, one bit each.

    Counts, by number of ones, the assignments whose matrix has a permanent
    equal to the family target, 0 or 1.  A permutation's term is the AND of
    its n entries of :func:`_entry_lanes`; ``once`` collects the lanes
    where some term is 1 and ``twice`` those where two are, and the
    popcounts of the lanes on target against the lane masks give the
    counts.  Refuses a K whose lane ints would pass
    ``ENUMERATION_MAX_BYTES``.
    """
    k_total = len(variable_positions(family, n))
    need = 3 * k_total << k_total >> 3
    if need > ENUMERATION_MAX_BYTES:
        raise GuardError(f"enumerating {k_total} variable entries takes up to {need} bytes, "
                         f"past ENUMERATION_MAX_BYTES = {ENUMERATION_MAX_BYTES}")
    entries, masks = _entry_lanes(family, n)
    once = twice = 0
    for sigma in itertools.permutations(range(n)):
        term = reduce(operator.and_, [row[j] for row, j in zip(entries, sigma)])
        twice |= once & term
        once |= term
    hit = once & ~twice if family.target_permanent else ~once
    return tuple((hit & mask).bit_count() for mask in masks)


def leading_permanents(rows: Sequence[int]) -> list[int]:
    """Permanents of the leading k x k blocks of a 0/1 matrix, k = 1..n, in one pass.

    Bit j of ``rows[i]`` is entry (i, j) of the n x n matrix.  Row by row,
    lane S of one int counts the ways the rows so far fill exactly the
    columns in S, each row taking a column where it has a 1; after k rows,
    lane {0, ..., k-1} holds the leading k x k permanent.  Adding a row
    with a one in column c moves every lane S without c to S | {c}, one
    mask and one shift.  A lane is ``size`` bytes, enough for n!, the
    largest count.
    """
    n = len(rows)
    if n > LEADING_MAX_N:
        raise GuardError(f"dimension {n} exceeds LEADING_MAX_N = {LEADING_MAX_N}")
    size = math.factorial(n).bit_length() // 8 + 1
    # keep[c] is all ones on the lanes S without column c.
    keep = [int.from_bytes((b"\xff" * (size << c) + bytes(size << c)) * (1 << n - c - 1),
                           "little") for c in range(n)]
    state = 1  # the empty set of columns is filled once
    out = []
    for k, row in enumerate(rows):
        state = sum((state & keep[c]) << (8 * size << c) for c in range(n) if row >> c & 1)
        out.append(state >> 8 * size * ((2 << k) - 1) & (1 << 8 * size) - 1)
    return out


def _counts_transfer(family: Family, n: int) -> list[int]:
    """Row-by-row transfer over column subsets, for any family.

    After i rows the state records, for every i-element set T of columns,
    min(perm, target + 1) of the submatrix on those rows and columns; the
    final state holds the whole matrix's capped permanent.  A state is one
    int: bit T of layer L (bit L * 2**n + T) is set when that capped value
    exceeds L; the target is 0 or 1, so there are one or two layers.  Adding
    a row with a one in column c lifts every set T without c to T | {c},
    which is one mask and one shift of the state.

    Each state carries the polynomial, in the number of ones, of the
    assignments that reach it, packed into one int with ``width`` = K + 1
    bits per coefficient: no coefficient exceeds 2**K, so none carries into
    the next.
    """
    k_total = family.variable_count(n)
    target = family.target_permanent
    width = k_total + 1
    size = 1 << n
    layers = target + 1
    # keep[c] has bit T of every layer set for the sets T without c.
    keep = [sum(1 << (layer * size + t) for layer in range(layers) for t in range(size)
                if not t >> c & 1) for c in range(n)]
    if layers == 1:
        add = operator.or_
    else:
        low = (1 << size) - 1

        def add(a: int, b: int) -> int:
            """Capped sum of two states: both >= 1 makes >= 2."""
            return a | b | ((a & b & low) << size)

    states = {1: 1}  # the empty column set is matched once; polynomial 1
    for i in range(n):
        free = [j for j in range(n) if family.is_variable(i, j)]
        pinned = [j for j in range(n) if not family.is_variable(i, j)]
        monomial = [1 << (width * p.bit_count()) for p in range(1 << len(free))]
        nxt: dict[int, int] = {}
        for state, poly in states.items():
            lifted = [(state & keep[c]) << (1 << c) for c in range(n)]
            base = 0
            for c in pinned:
                base = add(base, lifted[c])
            # after[p]: the state once a row with ones at the pinned columns
            # and at the free columns picked by the bits of p is added
            after = [base]
            for p in range(1, 1 << len(free)):
                column = free[(p & -p).bit_length() - 1]
                after.append(add(after[p & (p - 1)], lifted[column]))
            weights: dict[int, int] = {}
            for p, new in enumerate(after):
                weights[new] = weights.get(new, 0) + monomial[p]
            for new, weight in weights.items():
                nxt[new] = nxt.get(new, 0) + poly * weight
        states = nxt
    full = size - 1
    total = sum(
        poly
        for state, poly in states.items()
        if sum(state >> (full + layer * size) & 1 for layer in range(layers)) == target
    )
    mask = (1 << width) - 1
    return [total >> (width * i) & mask for i in range(k_total + 1)]
