"""The ``validate`` command: every offline cross-route check, the oracle routes
that the checks run, and the re-verification of emitted artifacts.

Each check pits at least two independent computations against each other
(closed form vs recurrence vs cycle sum vs enumeration, product form vs
exhaustive counts, generated slices vs vendored reference terms), so a
regression in any single route surfaces as a named failure.  The oracle
routes live here, beside the checks, and each runs as one pass over all its
cases.  What each route checks:

* the 2^K enumeration, ``exact_counts_direct``, checks
  ``probability.exact_counts`` at n=3.  It evaluates all 2^K assignments of
  a family at once, one bit per assignment, in the bit order that
  ``variable_positions`` fixes: each entry becomes the int whose bit t is
  that entry under assignment t, a permutation's term is the AND of its n
  entries, and two accumulators record where at least one and at least two
  terms are 1, which tells permanent 0 or exactly 1, the only targets, from
  the rest.  Its lane ints grow as K * 2^K bits, so it refuses a K whose
  ints would pass ``ENUMERATION_MAX_BYTES``.
* the row-by-row transfer, ``_counts_transfer``, checks the same counts
  with a dynamic program over the capped permanents of column subsets, in
  time exponential in n.
* the leading permanents, ``leading_permanents``, check the diagonals
  W_n(n) and V_n(n) of the closed forms: one row-by-row pass over column
  subsets of the ``TABLE_N`` variable mask gives the permanent of every
  leading k x k block.
* the recurrence table, ``w_recurrence_table``, and the cycle sums,
  ``w_row_via_cycles`` over the cycle types of S_n (the integer
  ``partitions`` of n), check family C's closed form W_n(m).
* the B identity, ``v_via_w``, checks family B's closed form V_n(m) from
  family C's counts.
* the S_n walk, ``e_tables_bruteforce``, checks ``e_table`` for every
  family: one walk of all n! permutations per n serves the three families.

``run_offline_checks`` declares each check as one row of a table: its name,
the reach that a pass reports, the list of its mismatches, and the format
of the first mismatch.  One rule turns every row into its ``CheckResult``:
the check passes when the list is empty, and its detail is the reach, or
else the first mismatch through the format.  Each route is looked up in this
module's namespace when the checks run.

``verify_artifact`` re-verifies a previously emitted artifact: it reads the
metadata of the leading ``#`` lines with ``output.read_metadata``, and
``regenerate`` rebuilds the document it describes with the builder that
wrote it, unforced, so each size the metadata asks for is held to that
builder's one limit (``output.DIST_MAX_N``, and ``probability.EXACT_MAX_N``,
``COMPARE_MAX_N`` and ``MAX_GRID``), which no ``--force`` lifts.  ``report``
prints the ``validate`` command's report.
Nothing lifts any of ``validate``'s limits, the S_n walk's
``BRUTEFORCE_MAX_N`` included, so the command takes no ``--force``.  Only
``validate`` and the tests load this module.  All counting is exact
(Python integers).
"""

import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import reduce
from itertools import accumulate, zip_longest

from .families import Family
from .guards import GuardError, Record, check_guard, parse_int
from .output import CsvDoc, make_compare_doc, make_dist_doc, make_exact_doc, read_metadata
from .probability import compare_grid, exact_counts, p_eval, q_eval
from .sequences import builtin_checks
from .termdist import (
    TermDistribution,
    _check_index,
    derangement,
    e_table,
    v_closed_form,
    w_closed_form,
)

# Vendored reference triangles for the two non-trivial families (rows n=1..).
REFERENCE_W_TRIANGLE: dict[int, tuple[int, ...]] = {
    1: (1, 0),
    2: (1, 0, 1),
    3: (1, 0, 3, 2),
    4: (1, 0, 6, 8, 9),
    5: (1, 0, 10, 20, 45, 44),
    6: (1, 0, 15, 40, 135, 264, 265),
}
REFERENCE_V_TRIANGLE: dict[int, tuple[int, ...]] = {
    1: (0, 1),
    2: (0, 1, 1),
    3: (0, 1, 2, 3),
    4: (0, 1, 3, 9, 11),
    5: (0, 1, 4, 18, 44, 53),
    6: (0, 1, 5, 30, 110, 265, 309),
    7: (0, 1, 6, 45, 220, 795, 1854, 2119),
    8: (0, 1, 7, 63, 385, 1855, 6489, 14833, 16687),
}
# Vendored exact assignment counts at n=3 for all three families.
REFERENCE_EXACT_COUNTS_N3: dict[Family, tuple[int, ...]] = {
    Family.A: (1, 9, 36, 78, 90, 45, 6, 0, 0, 0),
    Family.B: (1, 6, 13, 10, 2, 0, 0, 0),
    Family.C: (1, 6, 12, 6, 0, 0, 0),
}


# Largest dimension of the closed-form, recurrence and permanent checks.
TABLE_N = 12
# Longest artifact, in characters, that ``verify_artifact`` reads; a longer
# file is a failed check, which no ``--force`` lifts.  Every artifact that the
# builders' limits admit is shorter: dist C at n=200 is 2,789,271 characters,
# exact A at n=16 30,028, and a compare of A,B,C at n=12 on 20,001 points
# 1,517,915, whose cells bound it by 20,001 x 7 x 19 = 2,660,133.
MAX_ARTIFACT_CHARS = 4 * 1024 * 1024

# Most bytes the lane ints of ``exact_counts_direct`` may take.  It holds at
# most about 3 * K ints of 2**K bits: 15.75 MiB for family B at n=5 (K = 21;
# tracemalloc peaks at 13.7 MiB), and 300 MiB at K = 25, the next K of any
# family.
ENUMERATION_MAX_BYTES = 32 << 20

# Largest dimension ``leading_permanents`` takes: its state at 16 is 2**16
# lanes of 6 bytes, 384 KiB per int.
LEADING_MAX_N = 16

# Largest n the walk accepts; nothing lifts it.  Past S_6 each step
# multiplies the walk's time by n: on two cores n=11 takes about 0.05 s,
# n=12 about 0.6 s and n=13 would take about 8 s.
BRUTEFORCE_MAX_N = 12

# Trailing positions of each S_n that the walk takes as one block: it walks
# S_6 once per n and counts each block from it.
WALK_BLOCK = 6


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
    tails = Counter(tuple(accumulate(map(operator.eq, tau, range(m)), initial=0))
                    for tau in itertools.permutations(range(m)))
    # joint[fp][fixes_0] counts the permutations with fp fixed points that
    # fix 0 (fixes_0 = 1) or move it (fixes_0 = 0).
    joint = [[0, 0] for _ in range(n + 1)]
    if offset:
        high = set(range(offset, n))
        heads = Counter((sum(map(operator.eq, prefix, range(offset))),
                         len(high.intersection(prefix)), prefix[0] == 0)
                        for prefix in itertools.permutations(range(n), offset))
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


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        self.name = name
        self.passed = passed
        self.detail = detail


def run_offline_checks(bruteforce_n: int) -> list[CheckResult]:
    """Run every offline cross-route check; failures come back as results.

    The enumeration check walks S_n for n <= ``bruteforce_n``, and
    ``bruteforce_n`` above ``BRUTEFORCE_MAX_N`` raises
    :class:`GuardError` before any walk; the table checks run to
    n = ``TABLE_N``.
    """
    # one walk of S_n per n serves every family, largest n first so that the
    # guard fires before any walk
    walks = {n: e_tables_bruteforce(n) for n in range(bruteforce_n, 0, -1)}
    table = w_recurrence_table(TABLE_N)
    # row i of a variable mask has a one at each variable entry; the n x n mask
    # is the leading block of the TABLE_N one, since whether an entry is
    # variable does not depend on n
    permanents = {
        family: leading_permanents(
            [sum(family.is_variable(i, j) << j for j in range(TABLE_N)) for i in range(TABLE_N)])
        for family in (Family.C, Family.B)
    }
    worst = max(abs(diff) for family in Family for *_, diff in compare_grid(family, 2))
    seq_checks = builtin_checks()
    failed_ids = [c.oeis_id for c in seq_checks if not c.passed]
    # One row per check: its name, the reach that a pass reports, the list of
    # its mismatches, and the format that the first mismatch, as a one-item
    # list, reads through.
    rows = [
        ("w-triangle-reference", "n=1..6",
         [(n, list(e_table(Family.C, n).counts)) for n, row in REFERENCE_W_TRIANGLE.items()
          if e_table(Family.C, n).counts != row],
         "mismatch at {0}"),
        ("v-triangle-reference", "n=1..8",
         [(n, list(e_table(Family.B, n).counts)) for n, row in REFERENCE_V_TRIANGLE.items()
          if e_table(Family.B, n).counts != row],
         "mismatch at {0}"),
        ("w-closed-vs-recurrence-vs-cycles", f"n<={TABLE_N}",
         [(n, m) for n in range(1, TABLE_N + 1)
          for m, by_cycles in enumerate(w_row_via_cycles(n))
          if not w_closed_form(n, m) == table[n][m] == by_cycles],
         "first mismatch at {0}"),
        ("v-closed-vs-identity", f"n<={TABLE_N}",
         [(n, m) for n in range(1, TABLE_N + 1) for m in range(1, n + 1)
          if v_closed_form(n, m) != v_via_w(n, m)],
         "first mismatch at {0}"),
        ("e-table-vs-bruteforce", f"all families, n<={bruteforce_n}",
         [(family.value, n) for family in Family for n in range(1, bruteforce_n + 1)
          if e_table(family, n) != walks[n][family]],
         "first mismatch at {0}"),
        ("term-count-totals", f"n<={TABLE_N}",
         [(family.value, n) for family in Family for n in range(1, TABLE_N + 1)
          if e_table(family, n).total() != math.factorial(n)],
         "mismatch at {0}"),
        ("w-diagonal-vs-permanent", f"n<={TABLE_N}",
         [n for n, per in enumerate(permanents[Family.C], 1) if per != w_closed_form(n, n)],
         "mismatch at n={0}"),
        ("v-diagonal-vs-permanent", f"n<={TABLE_N}",
         [n for n, per in enumerate(permanents[Family.B], 1) if per != v_closed_form(n, n)],
         "mismatch at n={0}"),
        # the engine, the transfer and the enumeration oracle
        ("exact-counts-n3-reference", "A/B/C, all methods",
         [(family.value, route, list(got))
          for family, expected in REFERENCE_EXACT_COUNTS_N3.items()
          for route, got in (("exact_counts", exact_counts(family, 3).counts),
                             ("_counts_transfer", tuple(_counts_transfer(family, 3))),
                             ("exact_counts_direct", exact_counts_direct(family, 3)))
          if got != expected],
         "mismatch: {0}"),
        # the independence assumption is exact at n=2
        ("n2-exactness", f"max |Q-P| = {worst:.3g}", [worst] if worst > 1e-12 else [],
         "max |Q-P| = {0[0]:.3g}"),
        # both routes are exact at r=0, and for A and B at r=1; listed from
        # the last family and endpoint back, so the detail names the last one
        # that fails
        ("probability-endpoints-n3", "",
         [f"{family.value}: r={r:g} endpoint"
          for family in reversed(Family) for r, hit in ((1.0, 0.0), (0.0, 1.0))
          if (r < 1.0 or family is not Family.C)
          and not q_eval(e_table(family, 3), r) == p_eval(exact_counts(family, 3), r) == hit],
         "{0[0]}"),
        ("sequence-references", f"{len(seq_checks)} slices",
         [failed_ids] if failed_ids else [], "failed: {0[0]}"),
    ]
    return [CheckResult(name, not bad, form.format(bad[:1]) if bad else reach)
            for name, reach, bad, form in rows]


def report(bruteforce_n: int, paths: list[str]) -> int:
    """Print the ``validate`` report and return its exit code, 1 when a check fails.

    One line per check of :func:`run_offline_checks`, then one per artifact
    in ``paths``, then a summary.  The OEIS lookups are ``seq --oeis``'s.
    """
    results = run_offline_checks(bruteforce_n)
    results += map(verify_artifact, paths)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{status}  {res.name}{detail}")
    failed = sum(1 for res in results if not res.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def regenerate(meta: dict[str, str]) -> CsvDoc | None:
    """Rebuild the document that an artifact's metadata describes, as
    ``output.read_metadata`` gives it.

    The metadata sizes the run, and the builder runs unforced, so a size
    past the builder's limit raises ``GuardError``: an artifact that a
    forced command wrote within the limits re-verifies like any other.
    Metadata that names no artifact kind gives None; a missing key raises
    ``KeyError`` and a bad value ``ValueError``, an integer longer than
    ``guards.MAX_INT_CHARS`` characters and a compare that names more
    families than there are included.  A compare that repeats a family
    regenerates without the repeat, so its artifact fails as a mismatch.
    """
    kind = meta.get("kind")
    if kind == "dist":
        return make_dist_doc(Family(meta["family"]), parse_int(meta["n"]))
    if kind == "exact":
        return make_exact_doc(exact_counts(Family(meta["family"]), parse_int(meta["n"])))
    if kind == "compare":
        if (named := meta["families"].count(",") + 1) > len(Family):  # before any split
            raise ValueError(f"a compare names at most {len(Family)} families, got {named}")
        families = [Family(v) for v in meta["families"].split(",")]
        return make_compare_doc(families, parse_int(meta["n"]), parse_int(meta["grid"]))
    return None


def _lines(text: str):
    """``text.splitlines(keepends=True)``, one line at a time, with no list of
    every line: each piece of about 64 Ki characters, up to a newline, is
    split on its own."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + 65536) + 1 or len(text)
        yield from text[start:end].splitlines(True)
        start = end


def _metadata(text: str) -> dict[str, str]:
    """The ``output.read_metadata`` of an artifact's leading ``#`` lines only.

    A text with no line after those lines has no header row: ``ValueError``.
    """
    comments = []
    for line in _lines(text):
        if not line.startswith("#"):
            return read_metadata(comments)
        comments.append(line)
    raise ValueError("missing header row")


def verify_artifact(path: str) -> CheckResult:
    """Re-generate a previously emitted CSV artifact and compare byte-for-byte.

    The file is read with its line endings as they are, and at most
    ``MAX_ARTIFACT_CHARS`` of it.  :func:`regenerate` rebuilds it from the
    metadata in its leading ``#`` lines.  A file past the length limit, or
    metadata past a builder's limit, is a failed check whose detail ends
    "which no --force lifts".  A mismatch reports how many lines differ and
    quotes the first of them, as written and as regenerated, so an artifact
    whose values have since moved shows which row moved and how; the lines
    are compared one pair at a time, so the check holds little more than
    the file and the regenerated text in memory.
    """
    name = f"artifact:{path}"
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            # in pieces: one read of the whole limit would allocate all of it
            pieces = []
            left = MAX_ARTIFACT_CHARS + 1
            while left and (piece := fh.read(min(left, 65536))):
                pieces.append(piece)
                left -= len(piece)
            text = "".join(pieces)
    except (OSError, UnicodeDecodeError) as exc:
        return CheckResult(name, False, f"cannot read: {exc}")
    try:
        if len(text) > MAX_ARTIFACT_CHARS:
            raise GuardError(f"artifact longer than its ceiling of {MAX_ARTIFACT_CHARS} "
                             "characters")
        meta = _metadata(text)
        doc = regenerate(meta)
    except GuardError as exc:
        return CheckResult(name, False, f"guard violation: {exc}, which no --force lifts")
    except (KeyError, ValueError) as exc:
        return CheckResult(name, False, f"malformed artifact: {exc}")
    if doc is None:
        return CheckResult(name, False, "no recognizable artifact metadata")
    expected = doc.render()
    if text == expected:
        return CheckResult(name, True, f"{meta['kind']} artifact matches regenerated values")
    count, first = 0, None
    for i, pair in enumerate(zip_longest(_lines(text), _lines(expected))):
        if pair[0] != pair[1]:
            count += 1
            first = first or (i, pair)
    i, pair = first
    old, new = ("(none)" if line is None else _clip(line) for line in pair)
    verb = "line differs" if count == 1 else "lines differ"
    return CheckResult(name, False, f"{count} {verb} from regenerated values, "
                                    f"first line {i + 1}: {old} -> {new}")


def _clip(line: str) -> str:
    """``repr`` of a line, cut after 80 characters so a report stays one short line."""
    return repr(line) if len(line) <= 80 else repr(line[:80]) + "..."
