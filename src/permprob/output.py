"""Deterministic artifacts for the command-line surface: one document per kind.

Each artifact kind has one builder that computes its values and checks its
size guard: ``make_dist_doc``, ``make_exact_doc`` and ``make_compare_doc``.
A builder returns a :class:`CsvDoc` that holds its metadata as one dict of
values, and ``CsvDoc.render`` renders it as CSV or, from the same values,
as JSON.  ``read_metadata``, beside that writer, is the one parser of the
CSV metadata line.  Only the builders that compute probabilities import
``probability``, so ``dist`` never loads it.  What only some commands run
lives where only they load it: ``svgplot.compare_svg`` plots the compare
grid, and ``validation.regenerate`` rebuilds the document that a previously
emitted artifact's metadata describes, which is how ``validate``
re-verifies it.  The compare grids of both ``compare`` routes come from
``probability._compare_grids``, which holds the family count to
``probability.MAX_FAMILIES``; the SVG route loads no part of this module.

CSV dialect: comma separator, header row, LF line endings, no quoting (data
fields are numeric).  A leading ``# permprob <kind> key=value ...`` line
carries the artifact's metadata, so a file is self-describing and can be
re-verified later; an exact artifact adds a ``# polynomial:`` line.  Floats
are fixed at 12 significant digits for reproducible diffs, and the JSON
rendering carries the same 12-digit values.
"""

from .guards import Record, check_guard
from .termdist import e_table

TYPE_CHECKING = False  # type checkers read it as True; typing stays unimported
if TYPE_CHECKING:
    from .families import Family
    from .probability import ExactCounts

# Largest dimension of a term-count table that ``dist`` emits unless forced,
# and that ``validate``, which never forces, rebuilds: B at n=200 takes about
# 0.3 s on two cores.
DIST_MAX_N = 200


def format_float(x: float) -> str:
    return f"{x:.12g}"


class CsvDoc(Record):
    """An artifact: its kind and metadata, a header row, data rows and, for
    an exact artifact, its polynomial.

    ``meta`` holds the metadata values in the order that the metadata line
    lists them: ints, a family name, or family names joined with commas.
    """

    __slots__ = ("kind", "meta", "header", "rows", "polynomial")

    def __init__(self, kind: str, meta: dict[str, object], header: list[str],
                 rows: list[list[str]], polynomial: str | None = None) -> None:
        self.kind = kind
        self.meta = meta
        self.header = header
        self.rows = rows
        self.polynomial = polynomial

    def render(self, fmt: str = "csv") -> str:
        """The document as ``fmt``: ``"csv"``, or ``"json"``.

        The CSV text opens with the ``# permprob <kind> key=value ...`` line
        that :func:`read_metadata` reads back, then an exact artifact's
        ``# polynomial:`` line.  The JSON object holds the kind and the
        metadata, integers as numbers, then the rows with every cell read
        back as a number: a float in a compare grid, an int elsewhere.  An
        exact artifact's rows fold into the list ``counts``, followed by its
        polynomial.
        """
        if fmt == "json":
            return self._json()
        lines = [" ".join(["# permprob", self.kind,
                           *(f"{key}={value}" for key, value in self.meta.items())])]
        if self.polynomial is not None:
            lines.append(f"# polynomial: {self.polynomial}")
        lines.append(",".join(self.header))
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def _json(self) -> str:
        import json  # only JSON output pays for this import

        doc: dict[str, object] = {"kind": self.kind}
        for key, value in self.meta.items():
            doc["grid_points" if key == "grid" else key] = (
                value.split(",") if key == "families" else value)
        cast = float if self.kind == "compare" else int
        rows = [[cast(cell) for cell in row] for row in self.rows]
        if self.kind == "exact":
            doc["counts"] = [count for _, count in rows]
            doc["polynomial"] = self.polynomial
        else:
            doc["rows"] = [dict(zip(self.header, row)) for row in rows]
        return json.dumps(doc, indent=2) + "\n"


def read_metadata(comments) -> dict[str, str]:
    """The kind and key=value pairs of the first ``# permprob <kind> ...`` line
    among ``comments``, every value as text; ``{}`` when there is none."""
    for comment in comments:
        parts = comment.lstrip("# ").split()
        if parts[:1] == ["permprob"] and len(parts) >= 2:
            return {"kind": parts[1],
                    **dict(item.split("=", 1) for item in parts[2:] if "=" in item)}
    return {}


def make_dist_doc(family: "Family", n: int, force: bool = False) -> CsvDoc:
    """Triangle of term counts for every dimension up to n, columns n,m,count.

    ``n`` above ``DIST_MAX_N`` raises :class:`GuardError` unless forced;
    ``validate`` rebuilds a dist artifact unforced, so the same limit holds
    there.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    check_guard(n, DIST_MAX_N, "dist n", force)
    rows = []
    for dim in range(1, n + 1):
        for m, count in enumerate(e_table(family, dim).counts):
            rows.append([str(dim), str(m), str(count)])
    return CsvDoc("dist", {"family": family.value, "n": n}, ["n", "m", "count"], rows)


def make_exact_doc(counts: "ExactCounts") -> CsvDoc:
    from .probability import bernstein_string

    meta = {"family": counts.family.value, "n": counts.n,
            "variables": counts.variable_count, "target": counts.family.target_permanent}
    return CsvDoc("exact", meta, ["i", "count"],
                  [[str(i), str(c)] for i, c in enumerate(counts.counts)],
                  bernstein_string(counts))


def make_compare_doc(families: "list[Family]", n: int, grid_points: int,
                     force: bool = False) -> CsvDoc:
    """Columns r, then Q_X and P_X for each family, on a uniform grid."""
    from .probability import _compare_grids

    grids = _compare_grids(families, n, grid_points, force)
    header = ["r"]
    for fam in families:
        header.extend([f"Q_{fam.value}", f"P_{fam.value}"])
    rows = []
    for i in range(grid_points):
        row = [format_float(grids[families[0]][i][0])]
        for fam in families:
            _, q, p, _ = grids[fam][i]
            row.extend([format_float(q), format_float(p)])
        rows.append(row)
    meta = {"n": n, "grid": grid_points, "families": ",".join(f.value for f in families)}
    return CsvDoc("compare", meta, header, rows)
