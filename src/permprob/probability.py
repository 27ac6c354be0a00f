"""Product-form approximate probability and exact probability.

``q_eval`` multiplies, over every permanent-expansion term, the probability
that the term vanishes, treating terms as independent: one factor
(1 - r**m) per term with m variable entries.  ``exact_counts`` drops the
independence assumption entirely: it counts, by number of ones, the
assignments of the K variable entries that land the permanent on the
family's target value, and ``p_eval`` turns those counts into the exact
probability sum_i N_i * r**i * (1-r)**(K-i), in integers rounded once
(``compare_grid`` at each grid point's own rational r = i/(g-1)).

``exact_counts`` never visits the 2**K assignments: every family runs one
recurrence, polynomial in n.  For B and C it counts digraphs; for A it
counts bipartite graphs by their Hall deficiency.  Each recurrence runs on
coefficient lists in powers of y = 1 + x, where x marks a one: a free entry
is a factor y, a shift of the list by one, so B and C multiply no
polynomials.  One Taylor shift then turns the coefficients c_k of y**k into
the counts N_i = sum_k c_k C(k, i).  The same c_k give the probability
directly, P(r) = sum_k c_k (1-r)**(K-k).  The oracle routes, the
row-by-row transfer over column subsets and the 2**K enumeration, live in
``validation``, which runs them; the test suite keeps a subset-sum oracle
of its own.
"""

import math
from itertools import accumulate

from .families import Family
from .guards import Record, check_guard
from .termdist import TermDistribution, e_table

# The size limits of ``exact`` and ``compare``, which only ``force`` lifts.
# ``validate`` rebuilds an artifact within them, never forced.  Unforced,
# the slowest runs take about 0.3 s for exact A at n=16 (B and C take a few
# ms) and 2.6-2.8 s, start-up included, for a compare of A,B,C at n=12 on
# 20,001 points, on two cores.
EXACT_MAX_N = 16
COMPARE_MAX_N = 12
MAX_GRID = 20_001
DEFAULT_GRID = 101


def q_eval(dist: TermDistribution, r: float) -> float:
    """Approximate probability that the permanent equals the family target.

    Evaluated in log space because the term counts can exceed the float
    integer range.  Each log(1 - r**m) is taken where it is well conditioned:
    as log1p(-r**m) while r**m < 0.5, and as log(-expm1(m*log r)) above, so
    it stays accurate both where r**m is tiny and near r = 1.  Where r**m is
    below the normal double range, or the count e_m past the float range,
    e_m * log(1 - r**m) is taken as -e_m * r**m, in integers at the float's
    exact value r = a/b and rounded once: there log(1 - r**m) is -r**m to
    double precision, or e_m * r**m passes 1,000 and Q underflows either
    way.  A log product past the float range means the product underflows,
    so the result is 0.0.  On the 101-point grids of A, B and C for n <= 12
    it is within 3e-16 of the product taken to 80 digits at r = i/100; at
    n = 171 and 200, around each family's drop, it is within
    1e-15 * (1 + |log Q|) of Q, relative, a few units in the last place of
    log Q.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    counts = dist.counts[1:]
    if r == 1.0:
        return 0.0 if any(counts) else 1.0
    log_q = 0.0
    for m, e in enumerate(counts, 1):
        if e:
            r_m = r**m
            # r**m below the normal range, or e_m past the float range
            if r_m < 2.2250738585072014e-308 or e > 1.7976931348623157e308:
                a, b = r.as_integer_ratio()  # b is a power of two: b**m is a shift
                shift = (b.bit_length() - 1) * m
                # e_m * a**m < 2**(bit lengths), so where those put the quotient
                # below 2**-1075 it rounds to 0.0: skip it, raising no a**m
                if e.bit_length() + m * a.bit_length() > shift - 1075:
                    try:
                        log_q -= e * a**m / (1 << shift)
                    except OverflowError:  # e_m * r**m passes the float range
                        return 0.0
            else:
                log_q += e * (math.log1p(-r_m) if r_m < 0.5
                              else math.log(-math.expm1(m * math.log(r))))
    return math.exp(log_q)


class ExactCounts(Record):
    """Assignment counts behind the exact probability.

    ``counts[i]`` is the number of assignments with i ones among the
    ``variable_count`` variable entries whose matrix hits the target permanent;
    ``variable_count`` is ``family.variable_count(n)``.
    """

    __slots__ = ("family", "n", "variable_count", "counts")

    def __init__(self, family: Family, n: int, counts: tuple[int, ...]) -> None:
        self.family = family
        self.n = n
        self.variable_count = family.variable_count(n)
        self.counts = counts
        if len(self.counts) != self.variable_count + 1:
            raise ValueError("counts must have length variable_count + 1")


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _add_shifted(acc: list[int], p: list[int], scale: int, shift: int) -> None:
    """acc += scale * y**shift * p, in place; acc is long enough to hold it."""
    for i, c in enumerate(p, shift):
        if c:
            acc[i] += scale * c


def _taylor_shift(coeffs: list[int]) -> list[int]:
    """Coefficients in x of sum_k coeffs[k] * (1+x)**k, constant term first.

    Entry i is sum_k coeffs[k] * C(k, i).  Each pass turns a prefix of the
    reversed list into its running sums: the classic shift of p(y) to
    p(x + 1), with additions only.
    """
    rev = coeffs[::-1]
    for end in range(len(rev), 1, -1):
        rev[:end] = accumulate(rev[:end])
    return rev[::-1]


def _counts_c_recurrence(n: int) -> list[int]:
    """Labelled acyclic digraphs on n vertices, by arcs, in powers of y = 1+x.

    A family-C matrix is I plus the adjacency matrix of a digraph, and its
    permanent is 1 exactly when the digraph is acyclic.  Robinson's
    recurrence splits off the k sources of the DAG; each of the k(m-k) arcs
    from a source to the rest is free, a factor y:
    A_m(y) = sum_k (-1)**(k+1) C(m, k) y**(k(m-k)) A_{m-k}(y).
    """
    dags = [[1]]
    for m in range(1, n + 1):
        total = [0] * (m * (m - 1) + 1)
        for k in range(1, m + 1):
            _add_shifted(total, dags[m - k], (-1) ** (k + 1) * math.comb(m, k), k * (m - k))
        dags.append(total)
    return dags[n]


def _counts_b_recurrence(n: int) -> list[int]:
    """Family-B assignments with permanent 0, in powers of y = 1+x.

    Off the diagonal the matrix is the adjacency matrix of a digraph; the
    permanent is 0 exactly when the loop at vertex 0 is absent and vertex 0
    lies on no directed cycle.  Split on the set S of the other vertices
    that reach vertex 0, with s = |S| and the t = n-1-s others outside:
    arcs from vertex 0 into S and from outside into S or vertex 0 are
    absent; the t arcs from vertex 0 outward, the st arcs from S outward and
    the t(t-1) arcs outside, t(n-1) in all, are free, a factor y each; and
    R_s counts the s*s arcs inside S and from S to vertex 0 under which
    every vertex of S reaches vertex 0.  R_s is all of them, y**(s*s),
    minus those under which only j < s vertices do, each with its
    (s-j)(s-1) free arcs.
    """
    reach = []
    for s in range(n):
        poly = [0] * (s * s) + [1]
        for j in range(s):
            _add_shifted(poly, reach[j], -math.comb(s, j), (s - j) * (s - 1))
        reach.append(poly)
    total = [0] * (n * n - n + 2)  # K + 1; every term has degree <= (n-1)**2
    for s in range(n):
        _add_shifted(total, reach[s], math.comb(n - 1, s), (n - 1 - s) * (n - 1))
    return total


def _counts_a_recurrence(n: int) -> list[int]:
    """Family-A assignments with permanent 0, in powers of y = 1+x.

    A p x q matrix is a bipartite graph between its rows and its columns.
    Split it at X, the largest row set of greatest deficiency |X| - |N(X)|
    (the maximizers form a lattice, so X is unique), with i = |X| and
    j = |N(X)| <= i: the block X x N(X) has a matching that saturates N(X),
    counted by Sat(i, j); X has no other neighbour; the (p-i) x j block of
    the other rows against N(X) is free; and on the rest every nonempty row
    set W has |N(W)| > |W|, counted by Sur(p-i, q-j).  Over every split,
    with y = 1+x for a free entry,
    y**(pq) = sum_{j<=i<=p, j<=q} C(p,i) C(q,j) Sat(i,j) Sur(p-i,q-j)
              * y**((p-i)j),
    where Sur(a, b) is 0 for b <= a, a >= 1, and Sat(0, 0) = Sur(0, 0) = 1.

    ``table[p, q]`` holds Sat(p, q) for q <= p and Sur(p, q) for p < q.
    The identity at (p, q) holds it once, with coefficient 1: as Sat(i, j)
    at (i, j) = (p, q), or as Sur(p-i, q-j) at (i, j) = (0, 0).  Every
    other term has a smaller p + q, so the table fills in order of p + q.
    The permanent is nonzero exactly when a matching saturates all n rows,
    so A's counts are y**(n*n) - Sat(n, n).
    """
    table = {(0, 0): [1]}
    for size in range(1, 2 * n + 1):
        for p in range(max(0, size - n), min(n, size) + 1):
            q = size - p
            poly = [0] * (p * q) + [1]
            for i in range(p + 1):
                for j in range(min(i, q) + 1):
                    a, b = p - i, q - j
                    if a and b <= a or (p, q) in ((i, j), (a, b)):
                        continue  # Sur(a, b) is 0, or the term holds table[p, q]
                    term = _poly_mul(table[i, j], table[a, b])
                    _add_shifted(poly, term, -math.comb(p, i) * math.comb(q, j), a * j)
            table[p, q] = poly
    counts = [0] * (n * n) + [1]
    _add_shifted(counts, table[n, n], -1, 0)
    return counts


_RECURRENCES = {
    Family.A: _counts_a_recurrence,
    Family.B: _counts_b_recurrence,
    Family.C: _counts_c_recurrence,
}


def exact_counts(family: Family, n: int, force: bool = False) -> ExactCounts:
    """Count, by number of ones, the assignments that hit the target permanent.

    Every family runs a recurrence, polynomial in n, in powers of y = 1+x:
    over the digraph the off-diagonal entries describe for B and C, and over
    the Hall deficiency of the bipartite graph between rows and columns for
    A.  A Taylor shift turns its coefficients into the counts.  ``n`` above
    ``EXACT_MAX_N`` raises :class:`GuardError` unless forced; the bound is
    on n for every family, though B and C count to n=40 in about 0.1 s.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_guard(n, EXACT_MAX_N, "exact n", force)
    return ExactCounts(family, n, tuple(_taylor_shift(_RECURRENCES[family](n))))


def _p_at(counts: ExactCounts, a: int, d: int) -> float:
    """P at r = a/d: sum_i N_i * a**i * (d-a)**(K-i) by Horner, over d**K, rounded once."""
    numerator = 0
    a_power = 1  # a**i
    for c in counts.counts:
        numerator = numerator * (d - a) + c * a_power
        a_power *= a
    return numerator / d**counts.variable_count


def p_eval(counts: ExactCounts, r: float) -> float:
    """Exact probability that the permanent equals the family target.

    The Bernstein-style sum sum_i N_i * r**i * (1-r)**(K-i) is evaluated in
    integers at the float's exact value r = a/d and rounded once, so the
    result is the correctly rounded double at every K, tiny values included.
    When N_0 = 1, every 0 <= N_i <= C(K, i) and K*r <= 2**-54, then
    1 - 2**-54 <= (1-r)**K <= P <= 1, and 1.0 is returned without the sum.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"r must be in [0, 1], got {r}")
    a, d = r.as_integer_ratio()
    k_total = counts.variable_count
    if k_total * a << 54 <= d and counts.counts[0] == 1:
        binom = 1  # C(K, i)
        for i, c in enumerate(counts.counts):
            if not 0 <= c <= binom:
                break
            binom = binom * (k_total - i) // (i + 1)
        else:
            return 1.0
    return _p_at(counts, a, d)


def compare_grid(
    family: Family,
    n: int,
    grid_points: int = DEFAULT_GRID,
    force: bool = False,
) -> list[tuple[float, float, float, float]]:
    """Rows (r, approximate, exact, difference) on a uniform grid over [0, 1].

    P is taken at the grid's rational r = i/(g-1), not at the float r.
    ``n`` above ``COMPARE_MAX_N`` or ``grid_points`` above ``MAX_GRID``
    raises :class:`GuardError` unless forced.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    check_guard(n, COMPARE_MAX_N, "compare n", force)
    check_guard(grid_points, MAX_GRID, "compare grid point count", force)
    counts = exact_counts(family, n, force=force)
    dist = e_table(family, n)
    rows = []
    for i in range(grid_points):
        r = i / (grid_points - 1)
        q = q_eval(dist, r)
        p = _p_at(counts, i, grid_points - 1)
        rows.append((r, q, p, q - p))
    return rows


def _compare_grids(families: list[Family], n: int, grid_points: int,
                   force: bool) -> dict[Family, list[tuple[float, float, float, float]]]:
    """``compare_grid`` rows for each distinct family, in the order first named;
    the CSV, JSON and SVG routes of ``compare`` all come through here.  No
    family at all is a ``ValueError``."""
    if not families:
        raise ValueError("compare needs at least one family")
    return {
        fam: compare_grid(fam, n, grid_points=grid_points, force=force)
        for fam in dict.fromkeys(families)
    }


def _power(base: str, k: int) -> str:
    """``base`` to the k-th power as ``bernstein_string`` writes it."""
    return "" if k == 0 else base if k == 1 else f"{base}^{k}"


def bernstein_string(counts: ExactCounts) -> str:
    """Render the exact probability as a sum of r**i * (1-r)**(K-i) terms."""
    k_total = counts.variable_count
    parts = [f"{'' if c == 1 else c}{_power('r', i)}{_power('(1-r)', k_total - i)}" or "1"
             for i, c in enumerate(counts.counts) if c]
    return "+".join(parts) or "0"
