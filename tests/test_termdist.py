import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permprob import termdist, validation
from permprob import (
    Family,
    GuardError,
    TermDistribution,
    derangement,
    e_table,
    e_tables_bruteforce,
    partitions,
    v_closed_form,
    v_via_w,
    w_closed_form,
    w_recurrence_table,
    w_row_via_cycles,
)

import oracles
from oracles import TABLE_V, TABLE_W


def w_formula(n, m):
    """Oracle: the alternating-sum closed form in exact rational arithmetic."""
    s = sum(Fraction((-1) ** l, math.factorial(l)) for l in range(m + 1))
    value = math.perm(n, m) * s
    assert value.denominator == 1
    return int(value)


def v_formula(n, m):
    """Oracle: the one-variable-diagonal closed form in exact rationals."""
    s = sum(Fraction((-1) ** l, math.factorial(l)) for l in range(m + 1))
    inner = (m + 1) * s - Fraction((-1) ** m, math.factorial(m))
    value = Fraction(math.perm(n, m), n) * inner
    assert value.denominator == 1
    return int(value)


class TestDerangements:
    def test_known_values(self):
        assert [derangement(k) for k in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derangement(-1)


class TestWClosedForm:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_rational_formula(self, n):
        for m in range(n + 1):
            assert w_closed_form(n, m) == w_formula(n, m)

    def test_examples(self):
        assert w_closed_form(5, 4) == 45
        assert w_closed_form(6, 6) == 265
        assert w_closed_form(4, 3) == 8
        for n in range(1, 10):
            assert w_closed_form(n, 1) == 0

    def test_diagonal(self):
        assert [w_closed_form(n, n) for n in range(1, 7)] == [0, 1, 2, 9, 44, 265]

    def test_montmort_iteration_reaches_n10(self):
        assert w_closed_form(10, 10) == 1334961

    def test_index_errors(self):
        with pytest.raises(IndexError):
            w_closed_form(3, 4)
        with pytest.raises(IndexError):
            w_closed_form(3, -1)
        with pytest.raises(ValueError):
            w_closed_form(0, 0)


class TestWRecurrenceTable:
    def test_matches_closed_form(self):
        table = w_recurrence_table(12)
        for n in range(1, 13):
            assert table[n] == [w_closed_form(n, m) for m in range(n + 1)]

    def test_neighbor_relation_on_diagonal(self):
        # the next-to-diagonal entry is n times the previous diagonal value
        table = w_recurrence_table(10)
        for n in range(2, 11):
            assert table[n][n - 1] == n * table[n - 1][n - 1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            w_recurrence_table(0)


class TestCycles:
    def test_partition_order_deterministic(self):
        parts = list(partitions(5))
        assert parts[0] == (5,)
        assert parts[-1] == (1, 1, 1, 1, 1)
        assert parts == list(partitions(5))
        assert len(parts) == 7

    def test_class_sizes_for_n5(self):
        sizes = {
            (1, 1, 1, 1, 1): 1, (2, 1, 1, 1): 10, (3, 1, 1): 20, (4, 1): 30,
            (2, 2, 1): 15, (5,): 24, (3, 2): 20,
        }
        assert sorted(sizes) == sorted(partitions(5))
        assert sum(sizes.values()) == math.factorial(5)
        # row[m] sums the classes with 5 - m fixed points
        row = [0] * 6
        for parts, size in sizes.items():
            row[5 - parts.count(1)] += size
        assert w_row_via_cycles(5) == row

    def test_m4_and_m5_split(self):
        row = w_row_via_cycles(5)
        assert row[4] == 30 + 15 == 45
        assert row[5] == 24 + 20 == 44

    @pytest.mark.parametrize("n", range(1, 10))
    def test_m0_only_identity_type(self, n):
        row = w_row_via_cycles(n)
        assert row[0] == 1
        assert sum(row) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_closed_form(self, n):
        assert w_row_via_cycles(n) == [w_closed_form(n, m) for m in range(n + 1)]


class TestVClosedForm:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_rational_formula(self, n):
        for m in range(1, n + 1):
            assert v_closed_form(n, m) == v_formula(n, m)

    def test_m0_convention(self):
        for n in range(1, 10):
            assert v_closed_form(n, 0) == 0

    def test_examples(self):
        assert v_closed_form(8, 8) == 16687
        assert v_closed_form(5, 3) == 18
        for n in range(1, 10):
            assert v_closed_form(n, 1) == 1

    def test_index_errors(self):
        with pytest.raises(IndexError):
            v_closed_form(3, 4)
        with pytest.raises(ValueError):
            v_closed_form(0, 0)

    def test_inexact_division_raises(self, monkeypatch):
        # the check is a raise, not an assert, so it also holds under python -O
        monkeypatch.setattr(termdist, "derangement", lambda k: derangement(k) + 1)
        with pytest.raises(ArithmeticError):
            v_closed_form(3, 3)


class TestVViaW:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_closed_form(self, n):
        for m in range(1, n + 1):
            assert v_via_w(n, m) == v_closed_form(n, m)

    def test_examples(self):
        assert v_via_w(4, 4) == 9 + 2 == 11
        assert v_via_w(3, 2) == 3 - 1 + 0 == 2
        assert v_via_w(6, 5) == 264 - 44 + 45 == 265

    def test_m0_rejected(self):
        with pytest.raises(IndexError):
            v_via_w(3, 0)


class TestETable:
    @pytest.mark.parametrize("n,row", TABLE_W.items())
    def test_family_c_rows(self, n, row):
        assert e_table(Family.C, n).counts == row

    @pytest.mark.parametrize("n,row", TABLE_V.items())
    def test_family_b_rows(self, n, row):
        assert e_table(Family.B, n).counts == row

    def test_family_a_rows(self):
        assert e_table(Family.A, 3).counts == (0, 0, 0, 6)
        assert e_table(Family.A, 4).counts == (0, 0, 0, 0, 24)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(1, 13))
    def test_sum_is_factorial(self, family, n):
        assert e_table(family, n).total() == math.factorial(n)

    def test_structural_invariants(self):
        for n in range(2, 9):
            assert e_table(Family.C, n).counts[1] == 0
            assert e_table(Family.B, n).counts[0] == 0
            assert e_table(Family.B, n).counts[1] == 1

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            TermDistribution(Family.A, 2, (0, 0))
        with pytest.raises(ValueError):
            TermDistribution(Family.A, 1, (0, -1))


class TestBruteforce:
    def test_examples(self):
        assert e_tables_bruteforce(5)[Family.C].counts == (1, 0, 10, 20, 45, 44)
        assert e_tables_bruteforce(2)[Family.B].counts == (0, 1, 1)
        assert e_tables_bruteforce(4)[Family.A].counts == (0, 0, 0, 0, 24)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_closed_forms(self, family, n):
        assert e_tables_bruteforce(n)[family] == e_table(family, n)

    def test_guard(self):
        with pytest.raises(GuardError):
            e_tables_bruteforce(13)


class TestSharedWalk:
    # n=12, BRUTEFORCE_MAX_N, is the largest walk and takes about 0.6 s
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_family_matches_closed_forms(self, n):
        walked = e_tables_bruteforce(n)
        assert set(walked) == set(Family)
        for family in Family:
            assert walked[family] == e_table(family, n)

    def test_guard(self):
        with pytest.raises(GuardError, match="factorial-time enumeration 13"):
            e_tables_bruteforce(13)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            e_tables_bruteforce(0)

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7])
    def test_chunk_boundaries(self, monkeypatch, block):
        # A whole S_n for n <= 6 fits in one default block, so shrink it, or
        # grow it past the default.
        monkeypatch.setattr(validation, "WALK_BLOCK", block)
        for n in range(1, 9):
            walked = e_tables_bruteforce(n)
            for family in Family:
                assert walked[family] == e_table(family, n), (family, n)

    def test_walk_matches_a_literal_count(self, monkeypatch):
        # The relabelling argument itself, checked with no closed form: each
        # block size against a count of every permutation term one by one.
        literal = {n: oracles.term_counts_literal(n) for n in range(1, 9)}
        for block in range(1, 7):
            monkeypatch.setattr(validation, "WALK_BLOCK", block)
            for n, rows in literal.items():
                walked = e_tables_bruteforce(n)
                assert {family: walked[family].counts for family in Family} == rows, (block, n)

    def test_memory_does_not_grow_with_the_walk(self):
        # 10! permutations of 10 bytes are 34.6 MiB; the walk keeps only its
        # counts of the 720 permutations of S_6 and of the 5040 prefixes.
        tracemalloc.start()
        try:
            e_tables_bruteforce(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_walk_refuses_past_its_limit_before_walking(self, monkeypatch):
        def no_walk(iterable, r=None):
            raise AssertionError("the walk started")

        monkeypatch.setattr(validation, "itertools", SimpleNamespace(permutations=no_walk))
        with pytest.raises(GuardError, match=r"enumeration 13 exceeds its ceiling of 12$"):
            e_tables_bruteforce(13)
        with pytest.raises(GuardError, match=f"enumeration {10**30} exceeds"):
            e_tables_bruteforce(10**30)

    @pytest.fixture
    def walked(self, monkeypatch):
        """Sizes of the symmetric groups that the walk enumerates, and how
        many permutations each enumeration yielded.

        A walk enumerates S_m and its prefixes with ``itertools.permutations``.
        The n=3 enumeration oracle ``exact_counts_direct`` calls it too, from
        the same module, so only the calls that ``e_tables_bruteforce``
        makes are counted."""
        walks = SimpleNamespace(sizes=[], yielded=[])

        def counting_permutations(iterable, r=None):
            pool = tuple(iterable)
            if sys._getframe(1).f_code is not validation.e_tables_bruteforce.__code__:
                return itertools.permutations(pool, r)
            walks.sizes.append(len(pool))
            walks.yielded.append(0)
            index = len(walks.yielded) - 1

            def count():
                for sigma in itertools.permutations(pool, r):
                    walks.yielded[index] += 1
                    yield sigma

            return count()

        # Only validation's reference to itertools is swapped, so the
        # enumeration oracles of the tests are not counted either.
        monkeypatch.setattr(
            validation, "itertools", SimpleNamespace(permutations=counting_permutations)
        )
        return walks

    def test_offline_checks_walk_each_symmetric_group_once(self, walked):
        results = validation.run_offline_checks(bruteforce_n=6)
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        assert sorted(walked.sizes) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 7])
    def test_each_permutation_consumed_once(self, walked, monkeypatch, block):
        # Past the block, S_n is S_m (m = block) once and then every prefix
        # of n - m values once: m! * n!/m! = n! permutations.
        monkeypatch.setattr(validation, "WALK_BLOCK", block)
        sizes, yielded = [], []
        for n in range(1, 7):
            e_tables_bruteforce(n)
            m = min(n, block)
            sizes += [n] if n == m else [m, n]
            yielded += [math.factorial(n)] if n == m else [
                math.factorial(m), math.factorial(n) // math.factorial(m)]
        assert walked.sizes == sizes
        assert walked.yielded == yielded

    def test_offline_checks_guard_fires_before_any_walk(self, walked):
        with pytest.raises(GuardError, match="factorial-time enumeration 13"):
            validation.run_offline_checks(bruteforce_n=13)
        assert walked.sizes == []


@given(st.sampled_from(list(Family)), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_distribution_counts_nonnegative_and_complete(family, n):
    dist = e_table(family, n)
    assert len(dist.counts) == n + 1
    assert all(c >= 0 for c in dist.counts)
    assert dist.total() == math.factorial(n)
