"""Cross-checks of generated table slices against known integer sequences.

The offline checks compare slices of the generated triangles (diagonals and
columns) against the reference terms vendored in :data:`REFERENCES`, and
``report`` prints them as the ``seq`` command does.  The read-only OEIS
client that looks the same prefixes up remotely is ``permprob.oeis``, which
only ``seq --oeis`` loads; ``oeis_settings``, the one reader of the
lookup settings, stays here because ``seq`` checks the
``PERMPROB_OEIS_*`` variables on every run.
This module imports neither ``re`` nor ``typing``.
"""

import math
import os

from .guards import Record
from .termdist import v_closed_form, w_closed_form

OEIS_URL_ENV = "PERMPROB_OEIS_URL"
OEIS_TIMEOUT_ENV = "PERMPROB_OEIS_TIMEOUT"
DEFAULT_OEIS_URL = "https://oeis.org"
DEFAULT_OEIS_TIMEOUT = 10.0

# Reference terms for the offline checks: one row per table slice, holding
# (OEIS id, slice name, first n, terms).  The slice name says what a row
# checks: ``W_n(c)`` is ``w_closed_form(n, c)`` and ``V_n(c)`` is
# ``v_closed_form(n, c)``, where c is a fixed column or ``n`` for the
# diagonal.  ``first_n`` is the table index n of the first term; the terms
# are listed for consecutive n.
#
# Provenance
#   A000166, A000217, A000255: standard published values (derangement
#     numbers, triangular numbers, and the shifted-derangement sequence
#     whose k-th term equals derangement(k + 2) / (k + 1)).
#   A007290, A060008, A060836, A045943: computed from each sequence's own
#     formula, which shares no code with the closed forms; the terms through
#     n=6 (W) and n=8 (V) also agree with the reference triangles that
#     ``validate`` checks the tables against.
#
# Alignment notes (offset rules)
#   A000166: the published list has a leading 1 at its index 0 that precedes
#     the W_n(n) window (n >= 1) and is excluded here.
#   A000255: published index k corresponds to table index n = k + 1, so no
#     published term is dropped; the window starts at the list's first term.
#   A000217: the published leading 0 (index 0) precedes the n >= 2 window.
#   A045943: published index k corresponds to table index n = k + 2.
REFERENCES = (
    # derangement numbers
    ("A000166", "W_n(n)", 1,
     (0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570, 176214841)),
    # triangular numbers
    ("A000217", "W_n(2)", 2, (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66)),
    ("A007290", "W_n(3)", 3, tuple(2 * math.comb(n, 3) for n in range(3, 13))),
    ("A060008", "W_n(4)", 4, tuple(9 * math.comb(n, 4) for n in range(4, 13))),
    ("A060836", "W_n(5)", 5, tuple(44 * math.comb(n, 5) for n in range(5, 13))),
    # shifted derangements D(n+1)/n
    ("A000255", "V_n(n)", 1,
     (1, 1, 3, 11, 53, 309, 2119, 16687, 148329, 1468457, 16019531, 190899411)),
    # triangular matchstick numbers
    ("A045943", "V_n(3)", 3, tuple(3 * k * (k + 1) // 2 for k in range(1, 11))),
)


class SequenceCheck(Record):
    """Outcome of comparing a generated slice against its reference terms."""

    __slots__ = ("oeis_id", "slice_name", "first_n", "expected", "generated")

    def __init__(self, oeis_id: str, slice_name: str, first_n: int,
                 expected: tuple[int, ...], generated: tuple[int, ...]) -> None:
        self.oeis_id = oeis_id
        self.slice_name = slice_name
        self.first_n = first_n
        self.expected = expected
        self.generated = generated

    @property
    def passed(self) -> bool:
        return self.generated == self.expected

    @property
    def window(self) -> str:
        return f"n={self.first_n}..{self.first_n + len(self.expected) - 1}"


def builtin_checks() -> list[SequenceCheck]:
    """Compare every slice in :data:`REFERENCES` against its reference terms, offline."""
    checks = []
    for oeis_id, slice_name, first_n, terms in REFERENCES:
        closed_form = {"W": w_closed_form, "V": v_closed_form}[slice_name[0]]
        column = slice_name[4:-1]
        generated = tuple(
            closed_form(n, n if column == "n" else int(column))
            for n in range(first_n, first_n + len(terms))
        )
        checks.append(SequenceCheck(oeis_id, slice_name, first_n, terms, generated))
    return checks


def report(oeis: tuple[str, float] | None = None) -> int:
    """Print the ``seq`` report and return its exit code, 1 when a check fails.

    One line per check of :func:`builtin_checks`, then the ``--oeis`` lines
    when ``oeis`` holds the lookup URL and timeout, then a summary.
    """
    checks = builtin_checks()
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        print(f"{status}  {check.oeis_id}  {check.slice_name:<8}  {check.window}")
    if oeis:
        from .oeis import oeis_report

        oeis_report(*oeis)
    print(f"{len(checks) - failed}/{len(checks)} sequence checks passed")
    return 1 if failed else 0


def oeis_settings(url: str | None = None,
                  timeout: float | None = None) -> tuple[str, float]:
    """The lookup URL and timeout, each from its argument, else its
    environment variable, else its default.

    An empty variable counts as unset.  Anything but a positive, finite
    number of seconds, or its text, raises ``ValueError`` naming where the
    timeout came from.
    """
    url = url or os.environ.get(OEIS_URL_ENV) or DEFAULT_OEIS_URL
    source, raw = "timeout", timeout
    if raw is None:
        source = OEIS_TIMEOUT_ENV
        raw = os.environ.get(source) or DEFAULT_OEIS_TIMEOUT
    try:
        seconds = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad config value for {source}: {exc}") from exc
    if not 0.0 < seconds < math.inf:
        raise ValueError(f"{source} must be a positive number of seconds, got {seconds}")
    return url, seconds
