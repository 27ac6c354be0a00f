import functools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permprob import Family, GuardError, exact_counts, validation, variable_positions
from permprob.validation import _entry_lanes

from oracles import counts_by_matrices, family_rows, permanent_naive, permanent_ryser

# A 0/1 matrix is a tuple of row ints: bit j of rows[i] is entry (i, j).


def identity(n):
    return tuple(1 << i for i in range(n))


def ones(n):
    return ((1 << n) - 1,) * n


def ones_minus_identity(n):
    return tuple(((1 << n) - 1) ^ (1 << i) for i in range(n))


def to_lists(rows):
    return [[row >> j & 1 for j in range(len(rows))] for row in rows]


def from_lists(lists):
    return tuple(sum(v << j for j, v in enumerate(row)) for row in lists)


def transpose(rows):
    return from_lists([list(col) for col in zip(*to_lists(rows))])


@st.composite
def binary_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)))


class TestPermanentKnownValues:
    def test_all_ones_3x3(self):
        assert permanent_naive(ones(3)) == 6

    def test_identity_3x3(self):
        assert permanent_naive(identity(3)) == 1

    def test_ones_minus_identity_4x4(self):
        assert permanent_naive(ones_minus_identity(4)) == 9
        assert permanent_ryser(ones_minus_identity(4)) == 9

    def test_identity_5x5_ryser(self):
        assert permanent_ryser(identity(5)) == 1

    def test_ones_minus_identity_5x5_ryser(self):
        assert permanent_ryser(ones_minus_identity(5)) == 44

    def test_random_6x6_kernels_agree(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            m = tuple(rng.randrange(64) for _ in range(6))
            assert permanent_naive(m) == permanent_ryser(m)

    @pytest.mark.parametrize("n", [7, 8])
    def test_random_larger_kernels_agree(self, n):
        rng = random.Random(n)
        for _ in range(12):
            m = tuple(rng.randrange(1 << n) for _ in range(n))
            assert permanent_naive(m) == permanent_ryser(m)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_ones_minus_identity_counts_derangements(self, n):
        # per(J - I) is the number of derangements: D(n) = (n-1)(D(n-1) + D(n-2)).
        derangements = [1, 0]
        for m in range(2, n + 1):
            derangements.append((m - 1) * (derangements[m - 1] + derangements[m - 2]))
        assert permanent_ryser(ones_minus_identity(n)) == derangements[n]


class TestRowInts:
    """The row-int helpers that the property tests build matrices with."""

    def test_lists_roundtrip(self):
        lists = [[0, 1, 1], [1, 0, 0], [1, 1, 1]]
        rows = from_lists(lists)
        assert rows == (0b110, 0b001, 0b111)
        assert to_lists(rows) == lists

    @given(binary_matrices(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_transpose_swaps_every_entry(self, m):
        n = len(m)
        t = transpose(m)
        assert all(t[j] >> i & 1 == m[i] >> j & 1 for i in range(n) for j in range(n))
        assert transpose(t) == m


class TestByteLanes:
    """``permanent_ryser`` with its row sums at their largest and on dense rows."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_ones_is_n_factorial(self, n):
        # Every row sum climbs to n, the largest it can reach.
        assert permanent_ryser(ones(n)) == math.factorial(n)

    def test_random_9x9_agrees_with_naive(self):
        rng = random.Random(9)
        for density in (0.5, 0.9):
            rows = tuple(
                sum((rng.random() < density) << j for j in range(9)) for _ in range(9)
            )
            assert permanent_ryser(rows) == permanent_naive(rows)


class TestPermanentProperties:
    @given(binary_matrices(max_n=6))
    @settings(max_examples=120, deadline=None)
    def test_kernels_agree(self, m):
        assert permanent_naive(m) == permanent_ryser(m)

    @given(binary_matrices(max_n=6))
    @settings(max_examples=120, deadline=None)
    def test_bounds_and_full_value(self, m):
        n = len(m)
        per = permanent_ryser(m)
        assert 0 <= per <= math.factorial(n)
        assert (per == math.factorial(n)) == (m == ones(n))

    @given(binary_matrices(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_transpose_invariant(self, m):
        assert permanent_ryser(m) == permanent_ryser(transpose(m))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_row_column_permutation_invariant(self, data):
        m = data.draw(binary_matrices(max_n=6))
        n = len(m)
        perm = data.draw(st.permutations(range(n)))
        entries = to_lists(m)
        shuffled = from_lists(
            [[entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        )
        assert permanent_ryser(m) == permanent_ryser(shuffled)


# One build per family and n, for the properties that draw many assignments.
cached_entry_lanes = functools.lru_cache(maxsize=None)(_entry_lanes)


class TestEnumerationOracle:
    """``exact_counts_direct`` evaluates every assignment at once, one bit each."""

    @pytest.mark.parametrize("family, n", [
        *((family, n) for family in Family for n in (1, 2, 3)),
        (Family.B, 4), (Family.C, 4),
    ])
    def test_equals_a_matrix_per_assignment(self, family, n):
        assert validation.exact_counts_direct(family, n) == counts_by_matrices(family, n)

    @given(st.sampled_from([(family, n) for family in Family for n in range(1, 6)
                            if family.variable_count(n) <= 21]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_entry_lanes_rebuild_each_matrix(self, case, data):
        family, n = case
        k_total = family.variable_count(n)
        t = data.draw(st.integers(0, (1 << k_total) - 1))
        entries, _ = cached_entry_lanes(family, n)
        # bit k of t is the entry at the k-th variable position
        bits = [(t >> k) & 1 for k in range(k_total)]
        assert [[entry >> t & 1 for entry in row] for row in entries] == (
            to_lists(family_rows(family, n, bits)))

    def test_visits_every_assignment(self):
        # The popcount masks partition the 2**K lanes, one per assignment.
        for family, n in [*((family, n) for family in Family for n in (1, 2, 3, 4)),
                          (Family.B, 5), (Family.C, 5)]:
            k_total = family.variable_count(n)
            _, masks = _entry_lanes(family, n)
            assert len(masks) == k_total + 1
            assert [mask.bit_count() for mask in masks] == [
                math.comb(k_total, i) for i in range(k_total + 1)]
            assert sum(masks) == (1 << (1 << k_total)) - 1
            if k_total <= 12:
                for t in range(1 << k_total):
                    assert masks[t.bit_count()] >> t & 1, (family, n, t)

    def test_memory_stays_under_32_mib_at_the_largest_k(self):
        # B at n=5, K = 21, is the largest K of any family under the guard.
        tracemalloc.start()
        try:
            counts = validation.exact_counts_direct(Family.B, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert peak <= 3 * 21 << 21 >> 3  # the bound the guard assumes
        assert counts == exact_counts(Family.B, 5).counts


class TestLeadingPermanents:
    """``leading_permanents`` takes every leading block's permanent in one pass."""

    @given(binary_matrices(max_n=8))
    @settings(max_examples=150, deadline=None)
    def test_equals_ryser_on_every_leading_block(self, m):
        blocks = [
            tuple(row & (1 << k) - 1 for row in m[:k]) for k in range(1, len(m) + 1)
        ]
        assert validation.leading_permanents(m) == [permanent_ryser(b) for b in blocks]

    def test_lanes_hold_factorials(self):
        # All ones fills every lane to its largest count, k! after k rows.
        n = validation.LEADING_MAX_N
        assert validation.leading_permanents([(1 << n) - 1] * n) == [
            math.factorial(k) for k in range(1, n + 1)]

    def test_guard(self):
        with pytest.raises(GuardError, match="dimension 17 exceeds LEADING_MAX_N = 16"):
            validation.leading_permanents([1] * 17)


class TestGuards:
    def test_enumeration_guard(self, monkeypatch):
        # C at n=6 has K = 30: 3 * 30 ints of 2**30 bits.
        with pytest.raises(GuardError, match="enumerating 30 variable entries takes up to "
                           "12079595520 bytes, past ENUMERATION_MAX_BYTES = 33554432"):
            validation.exact_counts_direct(Family.C, 6)
        with pytest.raises(GuardError, match="enumerating 25 variable entries"):
            validation.exact_counts_direct(Family.A, 5)
        monkeypatch.setattr(validation, "ENUMERATION_MAX_BYTES", 143)
        with pytest.raises(GuardError, match="6 variable entries takes up to 144 bytes, "
                           "past ENUMERATION_MAX_BYTES = 143"):
            validation.exact_counts_direct(Family.C, 3)
        monkeypatch.setattr(validation, "ENUMERATION_MAX_BYTES", 144)
        assert validation.exact_counts_direct(Family.C, 3) == (1, 6, 12, 6, 0, 0, 0)

    def test_enumeration_refuses_dimension_zero(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            validation.exact_counts_direct(Family.A, 0)


class TestFamilies:
    def test_targets(self):
        assert Family.A.target_permanent == 0
        assert Family.B.target_permanent == 0
        assert Family.C.target_permanent == 1

    @pytest.mark.parametrize("family,expected", [
        (Family.A, lambda n: n * n),
        (Family.B, lambda n: n * n - n + 1),
        (Family.C, lambda n: n * n - n),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_variable_counts(self, family, expected, n):
        positions = variable_positions(family, n)
        assert len(positions) == family.variable_count(n) == expected(n)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_positions_row_major_and_consistent(self, family, n):
        positions = variable_positions(family, n)
        assert positions == tuple(sorted(positions))
        assert all(family.is_variable(i, j) for i, j in positions)
        fixed = set((i, j) for i in range(n) for j in range(n)) - set(positions)
        assert all(i == j for i, j in fixed)

    def test_b_special_entry_is_top_left(self):
        assert Family.B.is_variable(0, 0)
        assert not Family.B.is_variable(1, 1)


class TestBuildFamilyMatrix:
    def test_c_all_zeros_is_identity(self):
        m = family_rows(Family.C, 3, [0] * 6)
        assert m == identity(3)
        assert permanent_naive(m) == 1

    def test_b2_example(self):
        m = family_rows(Family.B, 2, [0, 1, 1])
        assert to_lists(m) == [[0, 1], [1, 1]]

    def test_a2_all_ones(self):
        m = family_rows(Family.A, 2, [1, 1, 1, 1])
        assert m == ones(2)

    @pytest.mark.parametrize("family", list(Family))
    def test_bit_k_lands_on_the_kth_variable_position(self, family):
        n = 3
        positions = variable_positions(family, n)
        zero = family_rows(family, n, [0] * len(positions))
        for k, (i, j) in enumerate(positions):
            bits = [int(b == k) for b in range(len(positions))]
            diff = [a ^ b for a, b in zip(family_rows(family, n, bits), zero)]
            assert diff == [(r == i) << j for r in range(n)]

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fixed_positions_hold_one(self, family, n):
        m = family_rows(family, n, [0] * family.variable_count(n))
        for i in range(n):
            for j in range(n):
                expected = 0 if family.is_variable(i, j) else 1
                assert m[i] >> j & 1 == expected
