"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines on success as well as on failure).
"""

import math
import time

from permprob import (
    Family,
    builtin_checks,
    compare_grid,
    e_table,
    e_tables_bruteforce,
    exact_counts,
    v_closed_form,
    v_via_w,
    w_closed_form,
    w_recurrence_table,
    w_row_via_cycles,
)
from permprob.validation import _counts_transfer, exact_counts_direct

from oracles import (
    EXACT_N3,
    TABLE_V,
    TABLE_W,
    permanent_ryser,
    recurrence_counts,
    subset_sum_counts,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    ok = all(e_table(Family.C, n).counts == row for n, row in TABLE_W.items())
    ok = ok and all(e_table(Family.B, n).counts == row for n, row in TABLE_V.items())
    elapsed = time.perf_counter() - start
    report(1, "table reproduction (W n<=6, V n<=8)", ok and elapsed < 1.0,
           f"{elapsed:.3f}s")


def test_criterion_2_four_route_agreement():
    start = time.perf_counter()
    ok = True
    table = w_recurrence_table(10)
    for n in range(1, 11):
        walked = e_tables_bruteforce(n)
        brute_w = walked[Family.C].counts
        brute_v = walked[Family.B].counts
        by_cycles = w_row_via_cycles(n)
        for m in range(n + 1):
            w = w_closed_form(n, m)
            ok = ok and w == table[n][m] == by_cycles[m] == brute_w[m]
        for m in range(1, n + 1):
            ok = ok and v_closed_form(n, m) == v_via_w(n, m) == brute_v[m]
        ok = ok and brute_v[0] == 0
    elapsed = time.perf_counter() - start
    report(2, "four-route agreement (n<=10)", ok and elapsed < 30.0,
           f"{elapsed:.1f}s")


def test_criterion_3_exact_enumeration_coefficients():
    start = time.perf_counter()
    ok = True
    for family, expected in EXACT_N3.items():
        ok = ok and exact_counts(family, 3).counts == expected
        ok = ok and recurrence_counts(family, 3) == expected
        ok = ok and tuple(_counts_transfer(family, 3)) == expected
        ok = ok and exact_counts_direct(family, 3) == expected
        ok = ok and subset_sum_counts(family, 3) == expected
    elapsed = time.perf_counter() - start
    report(3, "exact coefficient lists at n=3", ok and elapsed < 1.0,
           f"{elapsed:.3f}s")


def test_criterion_4_figure_regeneration():
    start = time.perf_counter()
    ok = True
    for n in (3, 5):
        for family in Family:
            rows = compare_grid(family, n)
            ok = ok and len(rows) == 101
            _, q0, p0, _ = rows[0]
            ok = ok and abs(q0 - 1.0) <= 1e-12 and abs(p0 - 1.0) <= 1e-12
            if family in (Family.A, Family.B):
                _, q1, p1, _ = rows[-1]
                ok = ok and abs(q1) <= 1e-12 and abs(p1) <= 1e-12
    elapsed = time.perf_counter() - start
    report(4, "six-curve grids for n=3 and n=5", ok and elapsed < 300.0,
           f"{elapsed:.1f}s incl. K=25 exact counts")


def test_criterion_5_n2_exactness():
    worst = 0.0
    for family in Family:
        for _, _, _, diff in compare_grid(family, 2):
            worst = max(worst, abs(diff))
    report(5, "independence is exact at n=2", worst <= 1e-12,
           f"max |Q-P| = {worst:.2e}")


def test_criterion_6_permanent_identities():
    ok = True
    for n in range(1, 13):
        # bit j of row i is entry (i, j): ones off the diagonal, then also at (0, 0)
        all_ones_off_diag = tuple(((1 << n) - 1) ^ (1 << i) for i in range(n))
        ok = ok and permanent_ryser(all_ones_off_diag) == w_closed_form(n, n)
        corner_variant = ((1 << n) - 1,) + all_ones_off_diag[1:]
        ok = ok and permanent_ryser(corner_variant) == v_closed_form(n, n)
    ok = ok and w_closed_form(6, 6) == 265 and v_closed_form(7, 7) == 2119
    report(6, "diagonal counts equal matching permanents (n<=12)", ok)


def test_criterion_7_sum_identity():
    ok = all(
        e_table(family, n).total() == math.factorial(n)
        for family in Family
        for n in range(1, 13)
    )
    report(7, "term counts sum to n! (n<=12)", ok)


def test_criterion_8_sequence_checks_offline():
    checks = {c.oeis_id: c for c in builtin_checks()}
    ok = checks["A000166"].passed and len(checks["A000166"].expected) >= 8
    ok = ok and checks["A000255"].passed and len(checks["A000255"].expected) >= 8
    ok = ok and checks["A000217"].passed and len(checks["A000217"].expected) >= 8
    report(8, "offline sequence checks (window >= 8 terms)", ok)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
