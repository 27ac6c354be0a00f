"""Test-only oracles and frozen reference tables.

The tables are frozen here once, independently of the library's own copies
in ``permprob.validation``.  ``subset_sum_counts`` is an enumeration oracle
for ``exact_counts`` that shares no code with the library's engines: it
computes all 2**K permanents at once through a subset-sum transform.
``product_polynomial`` expands the paper's product form of Q(r) into integer
coefficients, a reference that ``q_eval`` never sees.

A 0/1 matrix is a tuple of row ints, bit j of ``rows[i]`` being entry
(i, j), as ``validation.leading_permanents`` takes it.  ``family_rows``
builds a family's matrix from an assignment, in the bit order of
``variable_positions``.  ``permanent_ryser`` is Ryser's inclusion-exclusion
over column subsets, the kernel that checks ``leading_permanents``, and
``permanent_naive`` sums all n! permutation terms, the oracle that checks
``permanent_ryser``.  ``term_counts_literal`` counts each permutation
term's variable entries one term at a time, the reference for the walk
of ``e_tables_bruteforce``.  ``counts_by_matrices`` enumerates the
2**K assignments as ``validation.exact_counts_direct`` does, but builds each
assignment's matrix and takes its ``permanent_ryser``, where the library
evaluates every assignment at once, one bit per assignment.
``recurrence_counts`` runs the recurrences of ``exact_counts`` in powers of
x, each block of free entries a schoolbook product by the binomial row of
(1+x)**k: a reference with no change of basis, at sizes past every
enumeration.
``parse_artifact`` reads an emitted CSV artifact back into its document,
every metadata value as text; the package itself reads only an artifact's
metadata.
"""

import itertools
import math

import numpy as np

from permprob import Family
from permprob.output import CsvDoc, read_metadata
from permprob.validation import variable_positions

# Largest dimension ``permanent_naive`` takes: 10! terms already take seconds.
NAIVE_MAX_N = 10

# Term-count triangles W (family C, rows n=1..6) and V (family B, n=1..8).
TABLE_W = {
    1: (1, 0),
    2: (1, 0, 1),
    3: (1, 0, 3, 2),
    4: (1, 0, 6, 8, 9),
    5: (1, 0, 10, 20, 45, 44),
    6: (1, 0, 15, 40, 135, 264, 265),
}
TABLE_V = {
    1: (0, 1),
    2: (0, 1, 1),
    3: (0, 1, 2, 3),
    4: (0, 1, 3, 9, 11),
    5: (0, 1, 4, 18, 44, 53),
    6: (0, 1, 5, 30, 110, 265, 309),
    7: (0, 1, 6, 45, 220, 795, 1854, 2119),
    8: (0, 1, 7, 63, 385, 1855, 6489, 14833, 16687),
}
# Exact assignment counts at n=3, one list per family.
EXACT_N3 = {
    Family.A: (1, 9, 36, 78, 90, 45, 6, 0, 0, 0),
    Family.B: (1, 6, 13, 10, 2, 0, 0, 0),
    Family.C: (1, 6, 12, 6, 0, 0, 0),
}


def family_rows(family, n, bits):
    """Rows of the family matrix with fixed entries 1 and ``bits`` on the variable ones.

    ``bits[k]`` lands on the k-th pair of ``variable_positions``.
    """
    rows = [0 if family.is_variable(i, i) else 1 << i for i in range(n)]
    for (i, j), bit in zip(variable_positions(family, n), bits):
        rows[i] |= bit << j
    return tuple(rows)


def permanent_ryser(rows):
    """Permanent by Ryser's inclusion-exclusion over column subsets, O(2**n * n**2).

    perm = (-1)**n * sum over column sets S of (-1)**|S| * prod_i (row i's
    ones in S).  The sets are visited in Gray-code order, so each step adds
    or removes one column from every row sum.
    """
    n = len(rows)
    sums = [0] * n
    subset = 0
    total = 0
    for k in range(1, 1 << n):
        b = (k & -k).bit_length() - 1
        step = -1 if subset >> b & 1 else 1
        subset ^= 1 << b
        for i, row in enumerate(rows):
            sums[i] += step * (row >> b & 1)
        total += (-1) ** subset.bit_count() * math.prod(sums)
    return (-1) ** n * total


def permanent_naive(rows):
    """Permanent as the sum over all n! permutation terms."""
    n = len(rows)
    assert n <= NAIVE_MAX_N, f"permanent_naive takes n <= {NAIVE_MAX_N}, got {n}"
    total = 0
    for sigma in itertools.permutations(range(n)):
        term = 1
        for j, i in enumerate(sigma):
            if not rows[i] >> j & 1:
                term = 0
                break
        total += term
    return total


def term_counts_literal(n):
    """Term-count rows of every family, one permutation term at a time.

    The term of sigma takes entry (sigma(j), j) for each column j; row m of
    a family counts the terms with m entries that ``Family.is_variable``
    calls variable.
    """
    rows = {family: [0] * (n + 1) for family in Family}
    for sigma in itertools.permutations(range(n)):
        for family, row in rows.items():
            row[sum(family.is_variable(i, j) for j, i in enumerate(sigma))] += 1
    return {family: tuple(row) for family, row in rows.items()}


def counts_by_matrices(family, n):
    """Counts, by number of ones, of the assignments that hit the target.

    Builds each of the 2**K assignments' matrices with ``family_rows`` and
    takes its ``permanent_ryser``, so keep K small.
    """
    k_total = family.variable_count(n)
    counts = [0] * (k_total + 1)
    for x in range(1 << k_total):
        bits = [(x >> k) & 1 for k in range(k_total)]
        if permanent_ryser(family_rows(family, n, bits)) == family.target_permanent:
            counts[x.bit_count()] += 1
    return tuple(counts)


def _permanent_table(family, n):
    """Permanent of the assignment-x matrix for every x in [0, 2**K).

    A permutation term survives assignment x exactly when x contains the
    term's variable-position mask, so the permanent of every matrix in the
    family is the number of term masks contained in x.  Seeding a histogram
    with one hit per term mask and running a subset-sum transform over the
    bit lattice yields all 2**K permanents at once.
    """
    positions = variable_positions(family, n)
    k_total = len(positions)
    index = {pos: k for k, pos in enumerate(positions)}
    n_fact = math.factorial(n)
    if n_fact < 2**15:
        dtype = np.int16
    elif n_fact < 2**31:
        dtype = np.int32
    else:
        dtype = np.int64
    table = np.zeros(1 << k_total, dtype=dtype)
    for sigma in itertools.permutations(range(n)):
        mask = 0
        for j, i in enumerate(sigma):
            k = index.get((i, j))
            if k is not None:
                mask |= 1 << k
        table[mask] += 1
    for b in range(k_total):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    return table


def subset_sum_counts(family, n):
    """Counts, by number of ones, of the assignments that hit the target.

    Enumerates all 2**K assignments, so keep K small (n <= 5).
    """
    k_total = family.variable_count(n)
    hits = _permanent_table(family, n) == family.target_permanent
    popcounts = np.zeros(1, dtype=np.uint8)
    for _ in range(k_total):
        popcounts = np.concatenate([popcounts, popcounts + 1])
    counts = np.bincount(popcounts[hits], minlength=k_total + 1)
    return tuple(int(c) for c in counts)


def _binomial_row(m: int) -> list[int]:
    """Coefficients of (1 + x)**m, constant term first."""
    return [math.comb(m, i) for i in range(m + 1)]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_add(acc: list[int], p: list[int], scale: int) -> None:
    """acc += scale * p, in place, growing acc as needed."""
    if len(acc) < len(p):
        acc.extend([0] * (len(p) - len(acc)))
    for i, c in enumerate(p):
        acc[i] += scale * c


def _counts_c_recurrence(n: int) -> list[int]:
    """Labelled acyclic digraphs on n vertices, counted by number of arcs.

    A family-C matrix is I plus the adjacency matrix of a digraph, and its
    permanent is 1 exactly when the digraph is acyclic.  Robinson's
    recurrence splits off the k sources of the DAG:
    A_m(x) = sum_k (-1)**(k+1) C(m, k) (1+x)**(k(m-k)) A_{m-k}(x).
    """
    dags = [[1]]
    for m in range(1, n + 1):
        total = [0]
        for k in range(1, m + 1):
            term = _poly_mul(_binomial_row(k * (m - k)), dags[m - k])
            _poly_add(total, term, (-1) ** (k + 1) * math.comb(m, k))
        dags.append(total)
    return dags[n]


def _counts_b_recurrence(n: int) -> list[int]:
    """Family-B assignments with permanent 0, counted by number of ones.

    Off the diagonal the matrix is the adjacency matrix of a digraph; the
    permanent is 0 exactly when the loop at vertex 0 is absent and vertex 0
    lies on no directed cycle.  Split on the set S of the other vertices
    that reach vertex 0, with s = |S| and the t = n-1-s others outside:
    arcs from vertex 0 into S and from outside into S or vertex 0 are
    absent; the t arcs from vertex 0 outward, the st arcs from S outward and
    the t(t-1) arcs outside are free; and R_s counts the s*s arcs inside S
    and from S to vertex 0 under which every vertex of S reaches vertex 0.
    R_s is all of them minus those under which only j < s vertices do.
    """
    reach = []
    for s in range(n):
        poly = _binomial_row(s * s)
        for j in range(s):
            free = (s - j) * (s - j - 1) + j * (s - j)
            _poly_add(poly, _poly_mul(reach[j], _binomial_row(free)), -math.comb(s, j))
        reach.append(poly)
    total = [0]
    for s in range(n):
        t = n - 1 - s
        free = t + s * t + t * (t - 1)
        _poly_add(total, _poly_mul(reach[s], _binomial_row(free)), math.comb(n - 1, s))
    return total


def _counts_a_recurrence(n: int) -> list[int]:
    """Family-A assignments with permanent 0, counted by number of ones.

    A p x q matrix is a bipartite graph between its rows and its columns.
    Split it at X, the largest row set of greatest deficiency |X| - |N(X)|
    (the maximizers form a lattice, so X is unique), with i = |X| and
    j = |N(X)| <= i: the block X x N(X) has a matching that saturates N(X),
    counted by Sat(i, j); X has no other neighbour; the (p-i) x j block of
    the other rows against N(X) is free; and on the rest every nonempty row
    set W has |N(W)| > |W|, counted by Sur(p-i, q-j).  Over every split, with
    x marking a one,
    (1+x)**(pq) = sum_{j<=i<=p, j<=q} C(p,i) C(q,j) Sat(i,j) Sur(p-i,q-j)
                  * (1+x)**((p-i)j),
    where Sur(a, b) is 0 for b <= a, a >= 1, and Sat(0, 0) = Sur(0, 0) = 1.

    ``table[p, q]`` holds Sat(p, q) for q <= p and Sur(p, q) for p < q.
    The identity at (p, q) holds it once, with coefficient 1: as Sat(i, j)
    at (i, j) = (p, q), or as Sur(p-i, q-j) at (i, j) = (0, 0).  Every
    other term has a smaller p + q, so the table fills in order of p + q.
    The permanent is nonzero exactly when a matching saturates all n rows,
    so A's counts are (1+x)**(n*n) - Sat(n, n).
    """
    table = {(0, 0): [1]}
    for size in range(1, 2 * n + 1):
        for p in range(max(0, size - n), min(n, size) + 1):
            q = size - p
            poly = _binomial_row(p * q)
            for i in range(p + 1):
                for j in range(min(i, q) + 1):
                    a, b = p - i, q - j
                    if a and b <= a or (p, q) in ((i, j), (a, b)):
                        continue  # Sur(a, b) is 0, or the term holds table[p, q]
                    term = _poly_mul(table[i, j], _poly_mul(table[a, b], _binomial_row(a * j)))
                    _poly_add(poly, term, -math.comb(p, i) * math.comb(q, j))
            table[p, q] = poly
    counts = _binomial_row(n * n)
    _poly_add(counts, table[n, n], -1)
    return counts


_X_RECURRENCES = {
    Family.A: _counts_a_recurrence,
    Family.B: _counts_b_recurrence,
    Family.C: _counts_c_recurrence,
}


def recurrence_counts(family, n):
    """Counts from the x-basis recurrence, padded with zeros to K + 1 entries."""
    counts = _X_RECURRENCES[family](n)
    return tuple(counts) + (0,) * (family.variable_count(n) + 1 - len(counts))


def product_polynomial(counts):
    """Integer coefficients of prod_{m >= 1} (1 - x**m)**counts[m], lowest first.

    Multiplies one factor at a time, so keep sum(m * counts[m]) small.
    """
    coeffs = [1]
    for m, e in enumerate(counts):
        if m == 0:
            continue
        for _ in range(e):
            shifted = [0] * m + coeffs
            coeffs = coeffs + [0] * m
            coeffs = [a - b for a, b in zip(coeffs, shifted)]
    return coeffs


def horner(coeffs, x):
    """The polynomial with these coefficients, lowest first, at x."""
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def parse_artifact(text):
    """The :class:`CsvDoc` that renders as ``text``: its ``# permprob`` line,
    an exact artifact's ``# polynomial:`` line, the header and the rows."""
    lines = text.splitlines()
    i = 0
    while lines[i].startswith("#"):
        i += 1
    meta = read_metadata(lines[:i])
    kind = meta.pop("kind")
    polynomial = lines[1].removeprefix("# polynomial: ") if kind == "exact" else None
    return CsvDoc(kind, meta, lines[i].split(","),
                  [line.split(",") for line in lines[i + 1:]], polynomial)
