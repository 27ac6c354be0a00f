"""Bit-packed 0/1 matrices and their permanent by Ryser's inclusion-exclusion.

``BinaryMatrix`` packs each row of a square 0/1 matrix into an int, and
``build_family_matrix`` sets a family's fixed entries to 1 and its variable
entries from an assignment, in the order of ``matrices.variable_positions``.
``permanent_ryser`` visits the column subsets in Gray-code order (Ryser, in
the order of Nijenhuis and Wilf).  It keeps its n row sums as byte lanes of
one int, so a Gray-code step is one int add or subtract and a term is
``math.prod`` of that int's bytes; the tests check it against a
factorial-time sum of their own, and check ``matrices.leading_permanents``
and the enumeration oracle against it.  No command loads this module.
"""

import math
from collections.abc import Sequence

from .families import Family
from .guards import GuardError, Record
from .matrices import variable_positions

MAX_DIMENSION = 64
RYSER_MAX_N = 30


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
    # Byte i of columns[b] is entry (i, b), packed in one pass over each
    # row's set bits.  A row sum counts at most n <= RYSER_MAX_N < 256
    # columns, so no lane carries into the next or borrows from it.
    columns = [0] * n
    for i, row in enumerate(matrix.rows):
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
