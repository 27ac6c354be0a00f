"""Deterministic CSV and JSON artifacts for the command-line surface.

CSV dialect: comma separator, header row, LF line endings, no quoting (data
fields are numeric).  Leading ``#`` comment lines carry artifact metadata so
a file is self-describing and can be re-verified later.  Floats are fixed at
12 significant digits for reproducible diffs.
"""

from __future__ import annotations

from .guards import Record
from .matrices import Family
from .probability import ExactCounts, bernstein_string
from .termdist import e_table

# Largest dimension of an emitted term-count table (``dist``, and ``validate``
# re-running a dist artifact) unless forced.
DIST_MAX_N = 30


def format_float(x: float) -> str:
    return f"{x:.12g}"


class CsvDoc(Record, mutable=True):
    """A CSV artifact that re-renders byte-identically after parsing."""

    __slots__ = ("comments", "header", "rows")

    def __init__(self, comments: list[str] | None = None,
                 header: list[str] | None = None,
                 rows: list[list[str]] | None = None) -> None:
        self.comments = [] if comments is None else comments
        self.header = [] if header is None else header
        self.rows = [] if rows is None else rows

    def render(self) -> str:
        lines = list(self.comments)
        lines.append(",".join(self.header))
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "CsvDoc":
        lines = text.splitlines()
        comments = []
        i = 0
        while i < len(lines) and lines[i].startswith("#"):
            comments.append(lines[i])
            i += 1
        if i >= len(lines):
            raise ValueError("missing header row")
        header = lines[i].split(",")
        rows = [line.split(",") for line in lines[i + 1 :]]
        return cls(comments=comments, header=header, rows=rows)

    def metadata(self) -> dict[str, str]:
        """Key=value pairs from the first ``# permprob <kind> ...`` comment."""
        for comment in self.comments:
            parts = comment.lstrip("# ").split()
            if parts and parts[0] == "permprob" and len(parts) >= 2:
                meta = {"kind": parts[1]}
                for item in parts[2:]:
                    if "=" in item:
                        key, value = item.split("=", 1)
                        meta[key] = value
                return meta
        return {}


def make_dist_doc(family: Family, n: int) -> CsvDoc:
    """Triangle of term counts for every dimension up to n, columns n,m,count."""
    rows = []
    for dim in range(1, n + 1):
        dist = e_table(family, dim)
        for m, count in enumerate(dist.counts):
            rows.append([str(dim), str(m), str(count)])
    return CsvDoc(
        comments=[f"# permprob dist family={family.value} n={n}"],
        header=["n", "m", "count"],
        rows=rows,
    )


def make_exact_doc(counts: ExactCounts) -> CsvDoc:
    return CsvDoc(
        comments=[
            "# permprob exact "
            f"family={counts.family.value} n={counts.n} "
            f"variables={counts.variable_count} "
            f"target={counts.family.target_permanent}",
            f"# polynomial: {bernstein_string(counts)}",
        ],
        header=["i", "count"],
        rows=[[str(i), str(c)] for i, c in enumerate(counts.counts)],
    )


def make_compare_doc(
    n: int,
    grid_points: int,
    families: list[Family],
    grids: dict[Family, list[tuple[float, float, float, float]]],
) -> CsvDoc:
    names = ",".join(f.value for f in families)
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
    return CsvDoc(
        comments=[f"# permprob compare n={n} grid={grid_points} families={names}"],
        header=header,
        rows=rows,
    )


def _json_text(doc: dict) -> str:
    import json  # only JSON output pays for this import

    return json.dumps(doc, indent=2) + "\n"


def _round12(x: float) -> float:
    return float(format_float(x))


def dist_json(family: Family, n: int) -> str:
    rows = []
    for dim in range(1, n + 1):
        for m, count in enumerate(e_table(family, dim).counts):
            rows.append({"n": dim, "m": m, "count": count})
    doc = {"kind": "dist", "family": family.value, "n": n, "rows": rows}
    return _json_text(doc)


def exact_json(counts: ExactCounts) -> str:
    doc = {
        "kind": "exact",
        "family": counts.family.value,
        "n": counts.n,
        "variables": counts.variable_count,
        "target": counts.family.target_permanent,
        "counts": list(counts.counts),
        "polynomial": bernstein_string(counts),
    }
    return _json_text(doc)


def compare_json(
    n: int,
    grid_points: int,
    families: list[Family],
    grids: dict[Family, list[tuple[float, float, float, float]]],
) -> str:
    rows = []
    for i in range(grid_points):
        row: dict[str, float] = {"r": _round12(grids[families[0]][i][0])}
        for fam in families:
            _, q, p, _ = grids[fam][i]
            row[f"Q_{fam.value}"] = _round12(q)
            row[f"P_{fam.value}"] = _round12(p)
        rows.append(row)
    doc = {
        "kind": "compare",
        "n": n,
        "grid_points": grid_points,
        "families": [f.value for f in families],
        "rows": rows,
    }
    return _json_text(doc)
