"""Bit-packed 0/1 matrices, a permanent kernel and the two oracle routes to the exact counts.

``build_family_matrix`` sets a family's fixed entries to 1 and its variable
entries from an assignment.  ``Family`` lives in ``families``; this module
imports it, so ``matrices.Family`` is the same object.

``permanent_ryser`` computes the permanent by inclusion-exclusion over
column subsets with Gray-code updates (Ryser, in the order of Nijenhuis and
Wilf).  It keeps its n row sums as byte lanes of one int, so a Gray-code
step is one int add or subtract and a term is ``math.prod`` of that int's
bytes; the tests check it against a factorial-time sum of their own.
``exact_counts_direct``, an oracle for ``probability.exact_counts``, runs
its kernel on every one of the 2^K assignments.  It reads each
assignment's rows from per-row lookup tables, built once from
``build_family_matrix``, so it builds no ``BinaryMatrix`` per assignment.
``_counts_transfer``, the second oracle, runs a dynamic program row by row
over the capped permanents of column subsets, in time exponential in n.
Only ``validate`` and the tests load this module; no other command
imports it, and it imports no ``typing``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import lru_cache

from .families import Family
from .guards import GuardError, Record
from .probability import EXACT_MAX_VARIABLES

RYSER_MAX_N = 30
MAX_DIMENSION = 64


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


class BinaryMatrix(Record):
    """Square 0/1 matrix with each row packed into an integer bitmask.

    Bit j of ``rows[i]`` is the entry at row i, column j.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]) -> None:
        self.n = n
        self.rows = rows
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for r in self.rows:
            if not isinstance(r, int) or not 0 <= r <= full:
                raise ValueError(f"row value {r!r} out of range for n={self.n}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryMatrix":
        """Build from nested 0/1 sequences."""
        n = len(rows)
        packed = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            bits = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"entries must be 0 or 1, got {v!r}")
                bits |= v << j
            packed.append(bits)
        return cls(n, tuple(packed))

    @classmethod
    def identity(cls, n: int) -> "BinaryMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def ones(cls, n: int) -> "BinaryMatrix":
        full = (1 << n) - 1
        return cls(n, (full,) * n)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of bounds for n={self.n}")
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n)] for r in self.rows]

    def transpose(self) -> "BinaryMatrix":
        cols = []
        for j in range(self.n):
            bits = 0
            for i in range(self.n):
                bits |= ((self.rows[i] >> j) & 1) << i
            cols.append(bits)
        return BinaryMatrix(self.n, tuple(cols))


def build_family_matrix(
    family: Family, n: int, assignment: Sequence[int]
) -> BinaryMatrix:
    """Matrix with fixed positions at 1 and ``assignment`` bits on the variable mask.

    ``assignment[k]`` lands on the k-th pair of :func:`variable_positions`.
    """
    positions = variable_positions(family, n)
    if len(assignment) != len(positions):
        raise ValueError(
            f"assignment length {len(assignment)} does not match the "
            f"{len(positions)} variable positions of family {family.value} at n={n}"
        )
    rows = [0 if family.is_variable(i, i) else 1 << i for i in range(n)]
    for (i, j), bit in zip(positions, assignment):
        if bit not in (0, 1):
            raise ValueError(f"assignment bits must be 0 or 1, got {bit!r}")
        rows[i] |= bit << j
    return BinaryMatrix(n, tuple(rows))


def permanent_ryser(matrix: BinaryMatrix) -> int:
    """Permanent by inclusion-exclusion over column subsets, O(2^n * n).

    Column subsets are visited in Gray-code order so each step adjusts the
    per-row sums by a single column.  The n row sums live in one int, one
    byte lane per row (byte i is the sum of row i), and each column is
    packed the same way, so a step is one int add or subtract and a term is
    the product of the bytes of that int.
    """
    n = matrix.n
    if n > RYSER_MAX_N:
        raise GuardError(
            f"dimension {n} exceeds RYSER_MAX_N = {RYSER_MAX_N} of the subset-sum permanent")
    return _ryser(n, matrix.rows)


def _ryser(n: int, rows: Sequence[int]) -> int:
    """The kernel of :func:`permanent_ryser`, on the n row bitmasks ``rows``."""
    # Byte i of columns[b] is entry (i, b), packed in one pass over each
    # row's set bits.  A row sum counts at most n <= RYSER_MAX_N < 256
    # columns, so no lane carries into the next or borrows from it.
    columns = [0] * n
    for i, row in enumerate(rows):
        lane = 1 << 8 * i
        while row:
            low = row & -row
            columns[low.bit_length() - 1] += lane
            row ^= low
    sums = 0
    subset = 0
    parity = 1  # sign (-1)**|subset|
    total = 0
    for k in range(1, 1 << n):
        b = (k & -k).bit_length() - 1
        bit = 1 << b
        if subset & bit:
            sums -= columns[b]
        else:
            sums += columns[b]
        subset ^= bit
        parity = -parity
        total += parity * math.prod(sums.to_bytes(n, "little"))
    return total if n % 2 == 0 else -total


def _row_tables(family: Family, n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """How each row of an assignment's matrix follows from the assignment.

    Row i's variable entries are consecutive pairs of
    :func:`variable_positions`, so they take the consecutive bits
    ``shift, ..., shift + w - 1`` of an assignment ``x``, and row i of
    ``build_family_matrix`` on ``x`` is ``table[x >> shift & mask]`` with
    ``mask = 2**w - 1``.  Each row's ``table`` is built once, from
    ``build_family_matrix`` on the assignments whose ones all fall in that
    row's bits.
    """
    positions = variable_positions(family, n)
    k_total = len(positions)
    tables = []
    shift = 0
    for i in range(n):
        width = sum(1 for row, _ in positions if row == i)
        table = tuple(
            build_family_matrix(
                family, n, [(low << shift) >> k & 1 for k in range(k_total)]
            ).rows[i]
            for low in range(1 << width)
        )
        tables.append((shift, (1 << width) - 1, table))
        shift += width
    return tables


def exact_counts_direct(family: Family, n: int) -> tuple[int, ...]:
    """Oracle for ``exact_counts``: enumerate all 2**K assignments.

    Counts, by number of ones, the assignments whose matrix has a permanent
    equal to the family target.  Each assignment's rows come from the
    lookup tables of :func:`_row_tables` and go straight to the Ryser
    kernel, so no matrix object is built per assignment.  Refuses K past
    ``EXACT_MAX_VARIABLES``, the bound ``exact_counts`` keeps unforced.
    """
    k_total = len(variable_positions(family, n))
    if k_total > EXACT_MAX_VARIABLES:
        raise GuardError(f"variable-entry count {k_total} exceeds EXACT_MAX_VARIABLES = "
                         f"{EXACT_MAX_VARIABLES} of the enumeration")
    target = family.target_permanent
    tables = _row_tables(family, n)
    counts = [0] * (k_total + 1)
    for x in range(1 << k_total):
        if _ryser(n, [table[x >> shift & mask] for shift, mask, table in tables]) == target:
            counts[x.bit_count()] += 1
    return tuple(counts)


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
    keep = []
    for c in range(n):
        without_c = sum(1 << t for t in range(size) if not t >> c & 1)
        keep.append(sum(without_c << (layer * size) for layer in range(layers)))
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
