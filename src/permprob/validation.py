"""One-shot offline validation of every cross-route identity the library claims.

Each check pits at least two independent computations against each other
(closed form vs recurrence vs cycle sum vs enumeration, product form vs
exhaustive counts, generated slices vs vendored reference terms), so a
regression in any single route surfaces as a named failure.  Each oracle
runs as one pass over all its cases: one walk of S_n per n serves every
family, one row-by-row pass over column subsets gives all the leading
permanents that the diagonal checks need (``matrices.leading_permanents``
on the ``TABLE_N`` mask), and the n=3 enumeration evaluates all 2^K
assignments of a family at once (``matrices.exact_counts_direct``).
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
``COMPARE_MAX_N``, ``MAX_GRID`` and ``MAX_FAMILIES``), which no ``--force``
lifts.  ``report`` prints the ``validate`` command's report.
Nothing lifts any of ``validate``'s limits, the S_n walk's
``termoracles.BRUTEFORCE_MAX_N`` included, so the command takes no
``--force``.  Only ``validate`` and the tests load this module.
"""

import math
from itertools import zip_longest

from .families import Family
from .guards import GuardError, Record, check_guard, parse_int
from .matrices import _counts_transfer, exact_counts_direct, leading_permanents
from .output import CsvDoc, make_compare_doc, make_dist_doc, make_exact_doc, read_metadata
from .probability import MAX_FAMILIES, compare_grid, exact_counts, p_eval, q_eval
from .sequences import builtin_checks
from .termdist import e_table, v_closed_form, w_closed_form
from .termoracles import (
    e_tables_bruteforce,
    v_via_w,
    w_recurrence_table,
    w_row_via_cycles,
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
# builders' limits admit is far shorter: dist B at n=200 is 2,781,459
# characters, exact A at n=16 30,028, and a compare at n=12 on 20,001 points
# 1,517,757 for A,B,C and 5,624,226 for twelve families, whose cells bound it
# by 20,001 x 25 x 19 = 9,500,475.
MAX_ARTIFACT_CHARS = 16 * 1024 * 1024


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        self.name = name
        self.passed = passed
        self.detail = detail


def run_offline_checks(bruteforce_n: int = 8) -> list[CheckResult]:
    """Run every offline cross-route check; failures come back as results.

    The enumeration check walks S_n for n <= ``bruteforce_n``, and
    ``bruteforce_n`` above ``termoracles.BRUTEFORCE_MAX_N`` raises
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


def report(bruteforce_n: int, paths: list[str],
           oeis: tuple[str | None, float | None] | None = None) -> int:
    """Print the ``validate`` report and return its exit code, 1 when a check fails.

    One line per check of :func:`run_offline_checks`, then one per artifact
    in ``paths``, then the ``--oeis`` lines when ``oeis`` holds the lookup
    URL and timeout, then a summary.
    """
    results = run_offline_checks(bruteforce_n)
    results += map(verify_artifact, paths)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{status}  {res.name}{detail}")
    if oeis:
        from .oeis import oeis_report

        oeis_report(*oeis)
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
    ``guards.MAX_INT_CHARS`` characters included.
    """
    kind = meta.get("kind")
    if kind == "dist":
        return make_dist_doc(Family(meta["family"]), parse_int(meta["n"]))
    if kind == "exact":
        return make_exact_doc(exact_counts(Family(meta["family"]), parse_int(meta["n"])))
    if kind == "compare":
        check_guard(meta["families"].count(",") + 1, MAX_FAMILIES, "compare families")
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
