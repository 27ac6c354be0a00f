"""Cross-checks of generated table slices against known integer sequences.

The offline checks compare slices of the generated triangles (diagonals and
columns) against the reference terms vendored in :data:`REFERENCES`, and
``report`` prints them as the ``seq`` command does.  The read-only OEIS
client that looks the same prefixes up remotely is ``permprob.oeis``, which
only ``--oeis`` loads; ``oeis_settings`` stays here because ``seq`` and
``validate`` check the lookup settings of ``permprob.conf`` on every run.
This module imports neither ``re`` nor ``typing``.
"""

from __future__ import annotations

import math
import os

from .guards import Record
from .termdist import v_closed_form, w_closed_form

OEIS_TIMEOUT_ENV = "PERMPROB_OEIS_TIMEOUT"

# Reference terms for the offline checks: one row per table slice, holding
# (OEIS id, slice name, first n, self_ref_from, terms).  The slice name says
# what a row checks: ``W_n(c)`` is ``w_closed_form(n, c)`` and ``V_n(c)`` is
# ``v_closed_form(n, c)``, where c is a fixed column or ``n`` for the
# diagonal.  ``first_n`` is the table index n of the first term; the terms
# are listed for consecutive n.
#
# Provenance
#   A000166, A000217, A000255: standard published values (derangement
#     numbers, triangular numbers, and the shifted-derangement sequence
#     whose k-th term equals derangement(k + 2) / (k + 1)).
#   A007290, A060008, A060836, A045943: leading terms checked against the
#     vendored reference triangles; terms at or past self_ref_from were
#     generated by this package's own closed forms and the corresponding
#     checks are flagged self-referential in reports.
#
# Alignment notes (offset rules)
#   A000166: the published list has a leading 1 at its index 0 that precedes
#     the W_n(n) window (n >= 1) and is excluded here.
#   A000255: published index k corresponds to table index n = k + 1, so no
#     published term is dropped; the window starts at the list's first term.
#   A000217: the published leading 0 (index 0) precedes the n >= 2 window.
REFERENCES: tuple[tuple[str, str, int, int | None, tuple[int, ...]], ...] = (
    # derangement numbers
    ("A000166", "W_n(n)", 1, None,
     (0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570, 176214841)),
    # triangular numbers
    ("A000217", "W_n(2)", 2, None, (1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66)),
    # 2*C(n,3)
    ("A007290", "W_n(3)", 3, 7, (2, 8, 20, 40, 70, 112, 168, 240, 330, 440)),
    # 9*C(n,4)
    ("A060008", "W_n(4)", 4, 7, (9, 45, 135, 315, 630, 1134, 1890, 2970, 4455)),
    # 44*C(n,5)
    ("A060836", "W_n(5)", 5, 7, (44, 264, 924, 2464, 5544, 11088, 20328, 34848)),
    # shifted derangements D(n+1)/n
    ("A000255", "V_n(n)", 1, None,
     (1, 1, 3, 11, 53, 309, 2119, 16687, 148329, 1468457, 16019531, 190899411)),
    # triangular matchstick numbers
    ("A045943", "V_n(3)", 3, 9, (3, 9, 18, 30, 45, 63, 84, 108, 135, 165)),
)


class SequenceCheck(Record):
    """Outcome of comparing a generated slice against its vendored terms."""

    __slots__ = ("oeis_id", "slice_name", "first_n", "expected", "generated",
                 "self_ref_from")

    def __init__(self, oeis_id: str, slice_name: str, first_n: int,
                 expected: tuple[int, ...], generated: tuple[int, ...],
                 self_ref_from: int | None) -> None:
        self.oeis_id = oeis_id
        self.slice_name = slice_name
        self.first_n = first_n
        self.expected = expected
        self.generated = generated
        self.self_ref_from = self_ref_from

    @property
    def passed(self) -> bool:
        return self.generated == self.expected

    @property
    def window(self) -> str:
        return f"n={self.first_n}..{self.first_n + len(self.expected) - 1}"


def builtin_checks() -> list[SequenceCheck]:
    """Compare every slice in :data:`REFERENCES` against its vendored terms, offline."""
    checks = []
    for oeis_id, slice_name, first_n, self_ref_from, terms in REFERENCES:
        closed_form = {"W": w_closed_form, "V": v_closed_form}[slice_name[0]]
        column = slice_name[4:-1]
        generated = tuple(
            closed_form(n, n if column == "n" else int(column))
            for n in range(first_n, first_n + len(terms))
        )
        checks.append(SequenceCheck(oeis_id, slice_name, first_n, terms, generated,
                                    self_ref_from))
    return checks


def report(oeis: tuple[str | None, float | None] | None = None) -> int:
    """Print the ``seq`` report and return its exit code, 1 when a check fails.

    One line per check of :func:`builtin_checks`, then the ``--oeis`` lines
    when ``oeis`` holds the lookup URL and timeout, then a summary.
    """
    checks = builtin_checks()
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        note = ""
        if check.self_ref_from is not None:
            note = f"  (terms from n={check.self_ref_from} are self-referential)"
        print(
            f"{status}  {check.oeis_id}  {check.slice_name:<8}"
            f"  {check.window}{note}"
        )
    if oeis:
        from .oeis import oeis_report

        oeis_report(*oeis)
    print(f"{len(checks) - failed}/{len(checks)} sequence checks passed")
    return 1 if failed else 0


def oeis_timeout(raw: str | float, source: str) -> float:
    """Seconds to wait for a lookup, parsed from ``raw`` and checked.

    ``raw`` is a number or its text, and ``source`` names where it came from
    (a config key, an environment variable or an argument).  Anything but a
    positive, finite number of seconds raises ``ValueError`` naming ``source``.
    """
    try:
        seconds = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad config value for {source}: {exc}") from exc
    if not 0.0 < seconds < math.inf:
        raise ValueError(f"{source} must be a positive number of seconds, got {seconds}")
    return seconds


def oeis_settings(config: dict[str, str]) -> tuple[str | None, float | None]:
    """The lookup URL and timeout that a ``permprob.conf`` mapping gives.

    The URL is the ``oeis_url`` key, or None.  The timeout is the
    ``oeis_timeout`` key, or else ``PERMPROB_OEIS_TIMEOUT``, or None; either
    one is checked by :func:`oeis_timeout`, which raises ``ValueError``.
    """
    source = "oeis_timeout"
    raw = config.get(source)
    if not raw:
        source = OEIS_TIMEOUT_ENV
        raw = os.environ.get(source)
    return config.get("oeis_url"), oeis_timeout(raw, source) if raw else None
