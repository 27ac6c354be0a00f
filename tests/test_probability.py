import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permprob import (
    ExactCounts,
    Family,
    GuardError,
    bernstein_string,
    compare_grid,
    e_table,
    exact_counts,
    p_eval,
    q_eval,
)
from permprob import probability
from permprob.output import format_float
from permprob.probability import _RECURRENCES, EXACT_MAX_N, MAX_GRID, _taylor_shift
from permprob.validation import _counts_transfer, exact_counts_direct

from oracles import (
    EXACT_N3,
    counts_by_matrices,
    horner,
    product_polynomial,
    recurrence_counts,
    subset_sum_counts,
)

# Every route to the exact counts, each covering every family: the
# recurrences through ``exact_counts``, the transfer and the enumeration oracle.
ROUTES = {
    "recurrence": lambda family, n: exact_counts(family, n, force=True).counts,
    "transfer": _counts_transfer,
    "direct": exact_counts_direct,
}


def route_counts(route, family, n):
    """Counts from one route, padded with zeros to K + 1 entries."""
    counts = tuple(ROUTES[route](family, n))
    return counts + (0,) * (family.variable_count(n) + 1 - len(counts))


def a003024(n):
    """Labelled acyclic digraphs on n vertices, by Robinson's recurrence on integers."""
    dags = [1]
    for m in range(1, n + 1):
        dags.append(sum((-1) ** (k + 1) * math.comb(m, k) * 2 ** (k * (m - k)) * dags[m - k]
                        for k in range(1, m + 1)))
    return dags[n]


class TestQEval:
    def test_family_a_closed_form(self):
        dist = e_table(Family.A, 3)
        assert q_eval(dist, 0.5) == pytest.approx((1 - 0.5**3) ** 6, abs=1e-14)
        assert q_eval(dist, 0.5) == pytest.approx(0.448795318604, abs=1e-9)

    @pytest.mark.parametrize("family", list(Family))
    def test_r_zero_gives_one(self, family):
        assert q_eval(e_table(family, 4), 0.0) == 1.0

    def test_family_c_product_form(self):
        dist = e_table(Family.C, 3)
        for r in (0.1, 0.33, 0.5, 0.9, 0.999):
            expected = (1 - r**2) ** 3 * (1 - r**3) ** 2
            assert q_eval(dist, r) == pytest.approx(expected, rel=1e-12)

    def test_family_b_product_form(self):
        dist = e_table(Family.B, 3)
        for r in (0.2, 0.7):
            expected = (1 - r) * (1 - r**2) ** 2 * (1 - r**3) ** 3
            assert q_eval(dist, r) == pytest.approx(expected, rel=1e-12)

    def test_r_one(self):
        assert q_eval(e_table(Family.A, 3), 1.0) == 0.0
        # the n=1 pinned-diagonal matrix has no variable term at all
        assert q_eval(e_table(Family.C, 1), 1.0) == 1.0

    def test_domain_errors(self):
        dist = e_table(Family.A, 2)
        with pytest.raises(ValueError):
            q_eval(dist, -0.1)
        with pytest.raises(ValueError):
            q_eval(dist, 1.1)

    @pytest.mark.parametrize("family", list(Family))
    def test_values_stay_in_unit_interval(self, family):
        dist = e_table(family, 5)
        for i in range(101):
            assert 0.0 <= q_eval(dist, i / 100) <= 1.0

    @pytest.mark.parametrize("family", list(Family))
    def test_term_counts_past_float_range(self, family):
        # 200! is about 8e374, past the float range
        dist = e_table(family, 200)
        assert q_eval(dist, 0.5) == 0.0
        assert q_eval(dist, 1e-300) == 1.0
        for i in range(101):
            q = q_eval(dist, i / 100)
            assert 0.0 <= q <= 1.0

    def test_factor_below_rounding_of_one_still_counts(self):
        # 1 - 0.008**8 rounds to 1.0, yet 8! such factors move Q by ~7e-13
        dist = e_table(Family.A, 8)
        expected = math.exp(-math.factorial(8) * 0.008**8)
        assert q_eval(dist, 0.008) == pytest.approx(expected, rel=0, abs=1e-15)
        assert q_eval(dist, 0.008) < 1.0


class TestQExpand:
    # Q(r) expanded into integer coefficients by the test oracle, not the library
    def test_small_expansions(self):
        assert product_polynomial(e_table(Family.C, 2).counts) == [1, 0, -1]
        assert product_polynomial(e_table(Family.A, 2).counts) == [1, 0, -2, 0, 1]
        assert product_polynomial(e_table(Family.B, 1).counts) == [1, -1]
        for i in range(101):
            r = i / 100
            assert q_eval(e_table(Family.C, 2), r) == pytest.approx(1 - r**2, abs=1e-15)
            assert q_eval(e_table(Family.A, 2), r) == pytest.approx(
                (1 - r**2) ** 2, abs=1e-15
            )
            assert q_eval(e_table(Family.B, 1), r) == pytest.approx(1 - r, abs=1e-15)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_constant_term_and_degree(self, family, n):
        dist = e_table(family, n)
        coeffs = product_polynomial(dist.counts)
        assert coeffs[0] == 1 == q_eval(dist, 0.0)
        degree = sum(m * c for m, c in enumerate(dist.counts))
        assert len(coeffs) - 1 == degree
        assert coeffs[-1] == (-1) ** sum(dist.counts[1:])

    @pytest.mark.parametrize("family", list(Family))
    def test_expansion_agrees_with_product_on_grid(self, family):
        dist = e_table(family, 3)
        coeffs = product_polynomial(dist.counts)
        for i in range(101):
            exact_value = float(horner(coeffs, Fraction(i, 100)))
            assert abs(exact_value - q_eval(dist, i / 100)) < 1e-12

    @pytest.mark.parametrize("family", list(Family))
    def test_expansion_is_the_product_polynomial(self, family):
        # identity check at an exact rational point, no floats involved
        dist = e_table(family, 4)
        coeffs = product_polynomial(dist.counts)
        r = Fraction(3, 7)
        product = Fraction(1)
        for m, e in enumerate(dist.counts):
            if m >= 1 and e:
                product *= (1 - r**m) ** e
        assert horner(coeffs, r) == product
        assert abs(q_eval(dist, 3 / 7) - float(product)) < 1e-12


class TestQEvalExactProduct:
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_fraction_product_on_grid(self, family, n):
        # Q(r) = prod_m (1 - r**m)**E_m, evaluated exactly at r = i/100
        dist = e_table(family, n)
        for i in range(101):
            r = Fraction(i, 100)
            product = Fraction(1)
            for m, e in enumerate(dist.counts):
                if m >= 1 and e:
                    product *= (1 - r**m) ** e
            assert abs(q_eval(dist, i / 100) - float(product)) < 1e-12

    @pytest.mark.parametrize("family", list(Family))
    def test_within_1e15_of_the_decimal_product_to_n12(self, family):
        # the same product to 80 digits, where the fractions grow too long
        with localcontext() as ctx:
            ctx.prec = 80
            for n in range(1, 13):
                dist = e_table(family, n)
                for i in range(101):
                    r = Decimal(i) / 100
                    product = Decimal(1)
                    for m, e in enumerate(dist.counts):
                        if m >= 1 and e:
                            product *= (1 - r**m) ** e
                    assert abs(Decimal(q_eval(dist, i / 100)) - product) <= Decimal("1e-15")



def series_product(dist, r):
    """Q(r) to 60 digits, with each log(1 - x), x = r**m, summed as -sum_k x**k / k.

    Decimal's own ln would first round 1 - x to 1 where x is tiny.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        log_q = Decimal(0)
        for m, e in enumerate(dist.counts):
            if m == 0 or not e:
                continue
            x = Decimal(r) ** m
            power, k, series = x, 1, Decimal(0)
            while power / k > series * Decimal("1e-65"):
                series += power / k
                power *= x
                k += 1
            log_q -= e * series
        return log_q.exp()


# r from where Q leaves 1 to where it is below 1e-18, for each family and n.
_DROPS = {
    (Family.A, 171): (0.0128, 0.016),
    (Family.A, 200): (0.0114, 0.0137),
    (Family.B, 171): (1e-4, 0.0071),
    (Family.B, 200): (1e-4, 0.006),
    (Family.C, 171): (1e-4, 0.0067),
    (Family.C, 200): (1e-4, 0.0056),
}


class TestQEvalPastTheFloatRange:
    # Past n = 170, n! and the largest term counts pass the float range, and
    # near the drop r**n falls below the normal double range.
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [171, 200])
    def test_within_ulps_of_log_q_of_the_series_product(self, family, n):
        # A double log Q carries an error of about |log Q| units in the last
        # place, so the bound on Q's relative error grows with it.
        dist = e_table(family, n)
        lo, hi = _DROPS[family, n]
        for i in range(30):
            r = lo * (hi / lo) ** (i / 29)
            exact = series_product(dist, r)
            bound = Decimal("1e-15") * exact * (1 - exact.ln())
            assert abs(Decimal(q_eval(dist, r)) - exact) <= bound, r

    @pytest.mark.parametrize("n, r, q", [
        (171, 0.01285, 0.999999999999995),  # 171! factors whose r**171 is subnormal
        (200, 0.0136, 3.338e-18),  # 200! factors whose r**200 underflows to 0
    ])
    def test_family_a_where_n_factorial_passes_the_float_range(self, n, r, q):
        dist = e_table(Family.A, n)
        exact = series_product(dist, r)
        assert float(exact) == pytest.approx(q, rel=1e-3)
        assert abs(Decimal(q_eval(dist, r)) - exact) <= Decimal("1e-14") * exact

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("r", [5e-324, 1e-300, 1e-200])
    def test_r_far_below_the_normal_range(self, family, r):
        # r**m is below the normal range for every m >= 2, and at 5e-324 for
        # every m, so nearly every factor takes the integer route
        dist = e_table(family, 200)
        assert q_eval(dist, r) == float(series_product(dist, r)) == 1.0

    @pytest.mark.parametrize("family", [Family.B, Family.C])
    def test_every_skipped_quotient_is_zero(self, family):
        # q_eval's integer route skips the factor e_m * a**m / 2**shift of
        # r = a/b, b = 2**(shift/m), when the bit lengths put it below
        # 2**-1075; each one skipped here, computed, is exactly 0.0, so the
        # skip changes no double
        counts = e_table(family, 200).counts
        skipped = 0
        for r in [10.0**-k for k in range(1, 324)] + [2.0**-j for j in range(1, 1075)]:
            a, b = r.as_integer_ratio()
            a_power = 1  # a**m
            for m, e in enumerate(counts[1:], 1):
                a_power *= a
                shift = (b.bit_length() - 1) * m
                if e and e.bit_length() + m * a.bit_length() <= shift - 1075:
                    assert e * a_power / (1 << shift) == 0.0, (r, m)
                    skipped += 1
        assert skipped > 250_000


def q_ratio(dist, i, d):
    """Q at r = i/d exactly, as (numerator, denominator): the product over
    m >= 1 of (1 - r**m)**e_m, as ``q_eval`` takes it."""
    num = den = 1
    for m, e in enumerate(dist.counts[1:], 1):
        num *= (d**m - i**m) ** e
        den *= d ** (m * e)
    return num, den


def p_ratio(counts, i, d):
    """P at r = i/d exactly, as (numerator, denominator)."""
    k = counts.variable_count
    return sum(c * i**j * (d - i) ** (k - j) for j, c in enumerate(counts.counts)), d**k


def w_a_ratio(n, i, d):
    """Family A's upper bound W_A at r = i/d exactly, as (numerator, denominator):
    1 - prod over s + t = n + 1 of (1 - (1-r)**(s*t))**(C(n, s) * C(n, t))."""
    num = den = 1
    for s in range(1, n + 1):
        st, ways = s * (n + 1 - s), math.comb(n, s) * math.comb(n, n + 1 - s)
        num *= (d**st - (d - i) ** st) ** ways
        den *= d ** (st * ways)
    return den - num, den


def at_most(x, y):
    """x <= y for two exact (numerator, denominator) pairs with positive denominators."""
    return x[0] * y[1] <= y[0] * x[1]


class TestProductFormBounds:
    # Every term event "all variable entries of sigma are 1" is increasing,
    # so the complements are positively correlated (Harris; Kleitman) and
    # P >= Q for every family, n and r.  For A, a zero permanent means an
    # s x t zero block with s + t = n + 1 (Frobenius-Koenig), which gives
    # P <= W_A.  Both are checked exactly at r = i/40.
    GRID = 40

    @pytest.mark.parametrize("family, n_max", [(Family.A, 5), (Family.B, 7), (Family.C, 7)])
    def test_q_is_a_lower_bound_of_p(self, family, n_max):
        for n in range(1, n_max + 1):
            dist, counts = e_table(family, n), exact_counts(family, n)
            bad = [i for i in range(self.GRID + 1)
                   if not at_most(q_ratio(dist, i, self.GRID), p_ratio(counts, i, self.GRID))]
            assert bad == [], (n, bad)

    def test_p_is_at_most_w_a(self):
        for n in range(1, 7):
            counts = exact_counts(Family.A, n)
            bad = [i for i in range(self.GRID + 1)
                   if not at_most(p_ratio(counts, i, self.GRID), w_a_ratio(n, i, self.GRID))]
            assert bad == [], (n, bad)

    # Q from the wrong family's e_table breaks Q <= P for these pairs (Q's
    # family -> P's family).  B -> C and B -> A go unseen: on this grid B's
    # Q stays at or below C's and A's P, so the bound cannot tell those
    # tables apart.
    @pytest.mark.parametrize("q_family, p_family, violations", [
        (Family.C, Family.B, 80),
        (Family.A, Family.B, 108),
        (Family.C, Family.A, 39),
        (Family.A, Family.C, 65),
    ], ids=["C->B", "A->B", "C->A", "A->C"])
    def test_the_wrong_family_table_breaks_the_bound(self, q_family, p_family, violations):
        bad = [(n, i) for n in range(2, 6) for i in range(self.GRID + 1)
               if not at_most(q_ratio(e_table(q_family, n), i, self.GRID),
                              p_ratio(exact_counts(p_family, n), i, self.GRID))]
        assert len(bad) == violations


class TestExactCounts:
    @pytest.mark.parametrize("family", list(Family))
    def test_n3_frozen_lists(self, family):
        assert exact_counts_direct(family, 3) == EXACT_N3[family]
        got = exact_counts(family, 3)
        assert got.counts == EXACT_N3[family]
        assert got.variable_count == family.variable_count(3)
        assert subset_sum_counts(family, 3) == EXACT_N3[family]

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_naive_oracle(self, family, n):
        got = exact_counts(family, n)
        assert got.counts == counts_by_matrices(family, n)

    def test_methods_agree_midsize(self):
        for family, n in ((Family.C, 4), (Family.B, 4), (Family.A, 4)):
            assert exact_counts_direct(family, n) == subset_sum_counts(family, n)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_engines_match_vectorized_oracle(self, family, n):
        oracle = subset_sum_counts(family, n)
        for route in ROUTES:
            if route != "direct":
                assert route_counts(route, family, n) == oracle
        assert exact_counts(family, n).counts == oracle

    @pytest.mark.parametrize("family, n", [
        *((Family.A, n) for n in range(1, 5)),
        *((family, n) for family in (Family.B, Family.C) for n in range(1, 6)),
    ])
    def test_every_engine_equals_enumeration_up_to_k21(self, family, n):
        # Every family and n with K <= 21: the recurrence, the transfer and
        # the enumeration of all 2**K assignments, coefficient by coefficient.
        assert family.variable_count(n) <= 21
        direct = route_counts("direct", family, n)
        assert route_counts("recurrence", family, n) == direct
        assert route_counts("transfer", family, n) == direct

    def test_c_recurrence_totals_are_labelled_dags(self):
        # OEIS A003024: labelled acyclic digraphs on n vertices
        a003024_terms = [1, 3, 25, 543, 29281, 3781503, 1138779265, 783702329343]
        for n, total in enumerate(a003024_terms, start=1):
            assert sum(route_counts("recurrence", Family.C, n)) == total == a003024(n)

    @pytest.mark.parametrize(
        "family, total",
        [(Family.A, 13_906_734_081), (Family.B, 79_331_328), (Family.C, 3_781_503)],
    )
    def test_transfer_matches_recurrence_at_n6(self, family, total):
        transfer = route_counts("transfer", family, 6)
        assert transfer == route_counts("recurrence", family, 6)
        assert exact_counts(family, 6, force=True).counts == transfer
        assert sum(transfer) == total

    def test_a6_zero_permanent_total(self):
        got = exact_counts(Family.A, 6, force=True)
        assert sum(got.counts) == 13_906_734_081
        assert got.counts[:7] == tuple(math.comb(36, i) for i in range(6)) + (
            math.comb(36, 6) - 720,
        )

    @pytest.mark.parametrize("n, total", [
        (7, 68_121_583_929_729),
        (8, 1_256_511_813_403_160_577),
    ])
    def test_a_totals_past_the_transfer(self, n, total):
        assert sum(exact_counts(Family.A, n, force=True).counts) == total

    @pytest.mark.parametrize("n", range(2, 11))
    def test_a_closed_form_coefficients(self, n):
        counts = exact_counts(Family.A, n, force=True).counts
        k_total = n * n
        # fewer than n ones leave no nonzero term; n ones make one term only
        # when they form a permutation
        assert counts[:n] == tuple(math.comb(k_total, i) for i in range(n))
        assert counts[n] == math.comb(k_total, n) - math.factorial(n)
        # n zeros kill every term only as a whole row or a whole column
        assert counts[k_total - n] == 2 * n
        assert not any(counts[k_total - n + 1:])

    def test_c2_counts(self):
        assert exact_counts(Family.C, 2).counts == (1, 2, 0)

    def test_b1_counts(self):
        got = exact_counts(Family.B, 1)
        assert got.variable_count == 1
        assert got.counts == (1, 0)

    @pytest.mark.parametrize("family, k_total", [(Family.A, 9), (Family.B, 7),
                                                 (Family.C, 6)])
    def test_variable_count_derived_from_family_and_n(self, family, k_total):
        got = ExactCounts(family, 3, (1,) + (0,) * k_total)
        assert got.variable_count == k_total
        with pytest.raises(ValueError, match="variable_count"):
            ExactCounts(family, 3, (1, 0))

    @pytest.mark.parametrize("family", list(Family))
    def test_structural_invariants(self, family):
        got = exact_counts(family, 3)
        K = got.variable_count
        assert sum(got.counts) <= 1 << K
        assert all(c <= math.comb(K, i) for i, c in enumerate(got.counts))
        assert got.counts[0] == 1

    def test_all_methods_return_equal_counts(self):
        for family in Family:
            results = [route_counts(route, family, 3) for route in ROUTES]
            assert len(results) == 3
            assert all(r == results[0] for r in results)
            assert exact_counts(family, 3).counts == results[0]

    def test_guard(self):
        # the guard is on n for every family, whatever K is
        for family in Family:
            with pytest.raises(GuardError, match=f"exact n {EXACT_MAX_N + 1} exceeds its "
                                                 f"ceiling of {EXACT_MAX_N}"):
                exact_counts(family, EXACT_MAX_N + 1)
        assert exact_counts(Family.A, 6).variable_count == 36


class TestXBasisReference:
    # the recurrences in powers of x, multiplied out by schoolbook products
    @pytest.mark.parametrize("family, n", [(Family.A, n) for n in range(1, 9)] + [
        (family, n) for family in (Family.B, Family.C) for n in range(1, 13)])
    def test_counts_match_coefficient_by_coefficient(self, family, n):
        assert exact_counts(family, n, force=True).counts == recurrence_counts(family, n)


class TestTaylorShift:
    @settings(deadline=None)
    @given(st.lists(st.integers(-10**40, 10**40), max_size=40))
    def test_maps_to_the_binomial_sums(self, coeffs):
        direct = [sum(c * math.comb(k, i) for k, c in enumerate(coeffs))
                  for i in range(len(coeffs))]
        assert _taylor_shift(coeffs) == direct

    @given(st.integers(0, 300))
    def test_power_of_y_is_its_binomial_row(self, k):
        assert _taylor_shift([0] * k + [1]) == [math.comb(k, i) for i in range(k + 1)]

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_y_coefficients_give_the_probability(self, family, n):
        # with y = 1/(1-r), P(r) = sum_k c_k (1-r)**(K-k)
        r = Fraction(2, 7)
        got = exact_counts(family, n)
        k_total = got.variable_count
        assert sum(c * (1 - r) ** (k_total - k)
                   for k, c in enumerate(_RECURRENCES[family](n))) == sum(
            c * r**i * (1 - r) ** (k_total - i) for i, c in enumerate(got.counts))


class TestAtN30:
    # identities that share no polynomial code with the recurrences
    def test_c_total_is_a003024(self):
        assert sum(exact_counts(Family.C, 30, force=True).counts) == a003024(30)

    def test_c_coefficients_by_hand(self):
        counts = exact_counts(Family.C, 30, force=True).counts
        k_total = 30 * 29
        # one arc is acyclic; two arcs make a cycle only as i->j and j->i
        assert counts[1] == k_total
        assert counts[2] == math.comb(k_total, 2) - math.comb(30, 2)
        assert counts[k_total] == 0

    def test_b_coefficients_by_hand(self):
        counts = exact_counts(Family.B, 30, force=True).counts
        k_total = 30 * 29 + 1
        # a one at (0, 0) completes the identity; two off-diagonal ones make
        # a nonzero term only as i->0 and 0->i, one pair per vertex i != 0
        assert counts[1] == k_total - 1
        assert counts[2] == math.comb(k_total, 2) - (k_total - 1) - 29
        assert counts[k_total] == 0


class TestPEval:
    def test_c2_is_one_minus_r_squared(self):
        counts = exact_counts(Family.C, 2)
        for r in (0.0, 0.2, 0.5, 0.8, 1.0):
            assert p_eval(counts, r) == pytest.approx(1 - r**2, abs=1e-14)

    @pytest.mark.parametrize("family", list(Family))
    def test_r_zero_gives_one(self, family):
        assert p_eval(exact_counts(family, 3), 0.0) == 1.0

    def test_a3_r_one_gives_zero(self):
        assert p_eval(exact_counts(Family.A, 3), 1.0) == 0.0

    def test_domain_errors(self):
        counts = exact_counts(Family.C, 2)
        with pytest.raises(ValueError):
            p_eval(counts, 2.0)
        with pytest.raises(ValueError):
            p_eval(counts, -0.5)

    @pytest.mark.parametrize("family", list(Family))
    def test_values_stay_in_unit_interval(self, family):
        counts = exact_counts(family, 3)
        for i in range(101):
            assert 0.0 <= p_eval(counts, i / 100) <= 1.0

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.9])
    def test_counts_past_the_float_range(self, r):
        # comb(1225, 612) exceeds 2**1024; binomial counts make P = (r + 1-r)**K.
        counts = ExactCounts(Family.A, 35, tuple(math.comb(1225, i) for i in range(1226)))
        assert p_eval(counts, r) == 1.0
        # Only the even binomials: P = (1 + (1-2r)**K) / 2, rounded once from
        # its exact value at the float r = a/d.
        even = ExactCounts(Family.A, 35, tuple(
            0 if i % 2 else math.comb(1225, i) for i in range(1226)))
        a, d = r.as_integer_ratio()
        exact = Fraction(d**1225 + (d - 2 * a) ** 1225, 2 * d**1225)
        assert p_eval(even, r) == float(exact)

    def test_tiny_r_takes_no_sum(self, monkeypatch):
        # the sum over C's K = 3540 entries in powers of 2**-1074 takes seconds
        counts = exact_counts(Family.C, 60, force=True)

        def refuse(*args):
            raise AssertionError("the sum ran")

        monkeypatch.setattr(probability, "_p_at", refuse)
        assert p_eval(counts, 5e-324) == 1.0

    @pytest.mark.parametrize("counts, r", [
        ((1, 0, 0), 2.0**-55),  # K*r = 2**-54, the largest r taken: 1 - 2**-54 rounds up
        ((1, 0, 0), 2.0**-40),  # K*r too large
        ((0, 2, 1), 1e-300),  # N_0 = 0
        ((1, 2**60, 0), 2.0**-58),  # N_1 > C(K, 1): P is about 5
        ((1, -(2**60), 0), 2.0**-58),  # N_1 < 0: P is about -3
    ], ids=["edge", "k-r", "n0", "above-binomial", "negative"])
    def test_tiny_r_needs_every_premise(self, counts, r):
        counts = ExactCounts(Family.C, 2, counts)
        assert p_eval(counts, r) == float(bernstein_fraction(counts.counts, Fraction(r)))


def bernstein_fraction(counts, r):
    """sum_j N_j r**j (1-r)**(K-j) at a Fraction r, exactly."""
    k_total = len(counts) - 1
    return sum(c * r**j * (1 - r) ** (k_total - j) for j, c in enumerate(counts) if c)


class TestPEvalOracle:
    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_p_eval_is_the_rounded_fraction_sum(self, r):
        counts = exact_counts(Family.B, 4)
        assert p_eval(counts, r) == float(bernstein_fraction(counts.counts, Fraction(r)))

    def test_tiny_r_is_the_sum_rounded(self, monkeypatch):
        # each (family, n, r) whose sum p_eval skips rounds to 1.0 in _p_at too
        p_at = probability._p_at
        monkeypatch.setattr(probability, "_p_at", lambda *args: None)
        skipped = 0
        for family in Family:
            for n in range(1, 13):
                counts = exact_counts(family, n)
                for r in [10.0**-k for k in range(15, 324)] + [5e-324]:
                    if p_eval(counts, r) is not None:
                        skipped += 1
                        assert p_at(counts, *r.as_integer_ratio()) == 1.0, (family, n, r)
        assert skipped == 11_045  # of 3 * 12 * 310 pairs

    def test_tiny_values_keep_their_digits(self):
        # r**i * (1-r)**(K-i) alone underflows here; the sum does not
        counts = exact_counts(Family.C, 30, force=True)
        assert f"{p_eval(counts, 0.8):.12g}" == "7.92324078173e-274"


class TestCompareGrid:
    @pytest.mark.parametrize("grid", [101, 1001])
    @pytest.mark.parametrize("family", list(Family))
    def test_every_p_is_the_rounded_fraction_sum(self, family, grid):
        d = grid - 1
        for n in range(1, 6):
            counts = exact_counts(family, n).counts
            rows = compare_grid(family, n, grid)
            assert [p for _, _, p, _ in rows] == [
                float(bernstein_fraction(counts, Fraction(i, d))) for i in range(grid)]

    @pytest.mark.parametrize("n, grid, i, text", [
        (30, 11, 8, "7.92324078173e-274"),
        (20, 51, 49, "3.14845818015e-305"),
    ])
    def test_underflow_rows(self, n, grid, i, text):
        # the float terms r**j * (1-r)**(K-j) of these rows underflow
        r, _, p, _ = compare_grid(Family.C, n, grid, force=True)[i]
        assert r == i / (grid - 1)
        assert f"{p:.12g}" == text

    @pytest.mark.parametrize("family", list(Family))
    def test_n2_exactness(self, family):
        rows = compare_grid(family, 2)
        assert len(rows) == 101
        assert max(abs(diff) for _, _, _, diff in rows) <= 1e-12

    def test_endpoints(self):
        for family in Family:
            rows = compare_grid(family, 3)
            r0, q0, p0, _ = rows[0]
            assert r0 == 0.0 and q0 == 1.0 and p0 == 1.0
            r1, q1, p1, _ = rows[-1]
            assert r1 == 1.0
            if family in (Family.A, Family.B):
                assert q1 == 0.0 and p1 == 0.0

    @pytest.mark.parametrize("family", [Family.A, Family.B])
    def test_monotone_nonincreasing_for_target_zero_families(self, family):
        rows = compare_grid(family, 3)
        for (_, q0, p0, _), (_, q1, p1, _) in zip(rows, rows[1:]):
            assert q1 <= q0 + 1e-15
            assert p1 <= p0 + 1e-15

    @pytest.mark.parametrize("family", list(Family))
    def test_printed_q_never_exceeds_printed_p(self, family):
        # Each term's vanishing is a decreasing event, so Harris's inequality
        # gives Q <= P; the 12 digits that compare prints keep that order.
        for n in range(1, 13):
            for _, q, p, _ in compare_grid(family, n, 1001):
                assert float(format_float(q)) <= float(format_float(p))

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            compare_grid(Family.C, 2, grid_points=1)

    def test_grid_guard(self):
        with pytest.raises(GuardError, match="grid point count"):
            compare_grid(Family.C, 2, grid_points=MAX_GRID + 1)
        assert len(compare_grid(Family.C, 2, grid_points=MAX_GRID + 1, force=True)) == MAX_GRID + 1

    def test_no_family_is_refused_by_every_route(self):
        # the CSV and JSON route and the SVG route both take their grids from
        # _compare_grids, so neither renders a table or a figure of no curves
        from permprob.output import make_compare_doc
        from permprob.svgplot import compare_svg

        for route in (make_compare_doc, compare_svg):
            with pytest.raises(ValueError, match="^compare needs at least one family$"):
                route([], 3, 11)


class TestBernsteinString:
    def test_c3_rendering(self):
        counts = exact_counts(Family.C, 3)
        assert bernstein_string(counts) == (
            "(1-r)^6+6r(1-r)^5+12r^2(1-r)^4+6r^3(1-r)^3"
        )

    def test_b3_rendering(self):
        counts = exact_counts(Family.B, 3)
        assert bernstein_string(counts) == (
            "(1-r)^7+6r(1-r)^6+13r^2(1-r)^5+10r^3(1-r)^4+2r^4(1-r)^3"
        )

    def test_a3_rendering(self):
        counts = exact_counts(Family.A, 3)
        assert bernstein_string(counts) == (
            "(1-r)^9+9r(1-r)^8+36r^2(1-r)^7+78r^3(1-r)^6"
            "+90r^4(1-r)^5+45r^5(1-r)^4+6r^6(1-r)^3"
        )

    def test_b1_rendering(self):
        assert bernstein_string(exact_counts(Family.B, 1)) == "(1-r)"

    def test_no_variable_entries_renders_one(self):
        assert bernstein_string(exact_counts(Family.C, 1)) == "1"

    def test_all_zero_counts_render_zero(self):
        assert bernstein_string(ExactCounts(Family.C, 1, (0,))) == "0"
        assert bernstein_string(ExactCounts(Family.C, 2, (0, 0, 0))) == "0"
