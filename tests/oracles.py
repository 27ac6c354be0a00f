"""Test-only oracles and frozen reference tables.

The tables are frozen here once, independently of the library's own copies
in ``permprob.validation``.  ``subset_sum_counts`` is an enumeration oracle
for ``exact_counts`` that shares no code with the library's engines: it
computes all 2**K permanents at once through a subset-sum transform.
``product_polynomial`` expands the paper's product form of Q(r) into integer
coefficients, a reference that ``q_eval`` never sees.  ``permanent_naive``
sums all n! permutation terms, the oracle that checks ``permanent_ryser``.
``counts_by_matrices`` enumerates the 2**K assignments as
``matrices.exact_counts_direct`` does, but through a ``BinaryMatrix`` and
its ``permanent_ryser`` for each, where the library reads rows from
lookup tables.
``build_parser`` builds the argparse parser that the CLI's table describes,
the oracle that the CLI's own parser is checked against.
"""

import argparse
import itertools
import math

import numpy as np

from permprob import (
    Family, build_family_matrix, cli, permanent_ryser, usage, variable_positions,
)

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


def permanent_naive(matrix):
    """Permanent as the sum over all n! permutation terms."""
    n = matrix.n
    assert n <= NAIVE_MAX_N, f"permanent_naive takes n <= {NAIVE_MAX_N}, got {n}"
    rows = matrix.rows
    total = 0
    for sigma in itertools.permutations(range(n)):
        term = 1
        for j, i in enumerate(sigma):
            if not rows[i] >> j & 1:
                term = 0
                break
        total += term
    return total


def counts_by_matrices(family, n):
    """Counts, by number of ones, of the assignments that hit the target.

    Builds each of the 2**K assignments' matrices with ``build_family_matrix``
    and takes its ``permanent_ryser``, so keep K small.
    """
    k_total = family.variable_count(n)
    counts = [0] * (k_total + 1)
    for x in range(1 << k_total):
        bits = [(x >> k) & 1 for k in range(k_total)]
        if permanent_ryser(build_family_matrix(family, n, bits)) == family.target_permanent:
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


def build_parser():
    """The argparse parser that ``cli._SUBCOMMANDS`` and ``cli._FLAGS`` describe.

    It reads the command line as the CLI read it while it used argparse.
    """
    parser = argparse.ArgumentParser(prog="permprob", description=usage.DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in cli._SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for option in spec.options:
            kind, help = cli._FLAGS[option]
            kwargs = {"help": help}
            if kind is bool:
                kwargs["action"] = "store_true"
            elif kind is int:
                kwargs["type"] = int
            elif kind is not str:
                kwargs["choices"] = list(kind or spec.formats)
            if option == "family":
                kwargs["action"] = "append"
            p.add_argument(f"--{option}", **kwargs)
        if spec.paths:
            p.add_argument("paths", nargs="*", help=spec.paths)
    return parser
