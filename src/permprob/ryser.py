"""The permanent by Ryser's inclusion-exclusion over column subsets.

``permanent_ryser`` visits the column subsets in Gray-code order (Ryser, in
the order of Nijenhuis and Wilf).  It keeps its n row sums as byte lanes of
one int, so a Gray-code step is one int add or subtract and a term is
``math.prod`` of that int's bytes; the tests check it against a
factorial-time sum of their own, and check ``matrices.leading_permanents``
and the enumeration oracle against it.  No command loads this module.
"""

from __future__ import annotations

import math

from .guards import GuardError
from .matrices import BinaryMatrix

RYSER_MAX_N = 30


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
