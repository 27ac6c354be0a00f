"""The benchmark's workloads: fixed command lists and the checks on their outputs.

A workload is a fixed list of ``permprob`` command lines.  One pass runs the
whole list; the seed only shuffles the order of the commands within a pass.
A command may be marked ``last`` when it reads files that other commands of
the same pass write, and then always runs after them.

Every command's output is checked in two ways.  CSV and JSON bytes must match
the SHA-256 digests in ``expected.json``, recorded from the package at the
commit that added this benchmark, because the artifact format is a
byte-stable contract.  Independent identities are checked as well, so a
wrong digest file cannot hide a wrong answer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_DIGESTS: dict[str, str] = json.loads(
    (Path(__file__).with_name("expected.json")).read_text(encoding="utf-8")
)

# Labelled acyclic digraphs on n vertices (OEIS A003024).  A family-C matrix is
# I plus the adjacency matrix of a digraph and has permanent 1 exactly when the
# digraph is acyclic, so these are the totals of the C exact counts.
A003024 = {1: 1, 2: 3, 3: 25, 4: 543, 5: 29281}

# Exact assignment counts at n=3, from the paper's tables.
REFERENCE_EXACT_COUNTS_N3 = {
    "A": (1, 9, 36, 78, 90, 45, 6, 0, 0, 0),
    "B": (1, 6, 13, 10, 2, 0, 0, 0),
    "C": (1, 6, 12, 6, 0, 0, 0),
}

# Check = function(stdout, written_file_text_or_None) -> list of problems.
Check = Callable[[str, "str | None"], list[str]]


@dataclass(frozen=True)
class Command:
    """One ``permprob`` invocation and the checks its outputs must pass."""

    argv: tuple[str, ...]
    checks: tuple[Check, ...]
    out: str | None = None  # file the command writes with --out
    last: bool = False  # runs after every other command of the pass

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def problems(self, stdout: str, written: str | None) -> list[str]:
        found = []
        for check in self.checks:
            found.extend(check(stdout, written))
        return found


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]

    def order(self, rng: random.Random) -> list[Command]:
        """The commands of one pass, shuffled by ``rng``; ``last`` ones stay last."""
        free = [c for c in self.commands if not c.last]
        rng.shuffle(free)
        return free + [c for c in self.commands if c.last]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stdout_digest(key: str) -> Check:
    def check(stdout: str, written: str | None) -> list[str]:
        if _digest(stdout) != EXPECTED_DIGESTS[key]:
            return [f"stdout bytes differ from the recorded artifact for {key!r}"]
        return []

    return check


def file_digest(key: str) -> Check:
    def check(stdout: str, written: str | None) -> list[str]:
        if written is None:
            return [f"{key!r} wrote no file"]
        if _digest(written) != EXPECTED_DIGESTS[key]:
            return [f"file bytes differ from the recorded artifact for {key!r}"]
        return []

    return check


def _csv_rows(text: str) -> list[dict[str, str]]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def exact_identities(family: str, n: int) -> Check:
    """C totals follow A003024; n=3 counts match the paper's reference table."""

    def check(stdout: str, written: str | None) -> list[str]:
        text = stdout if written is None else written
        lines = [
            line for line in text.splitlines()
            if not line.startswith(("#", "P(r) = "))
        ]
        counts = tuple(int(row["count"]) for row in _csv_rows("\n".join(lines)))
        found = []
        if family == "C" and sum(counts) != A003024[n]:
            found.append(f"exact C n={n} total {sum(counts)} != A003024 {A003024[n]}")
        if n == 3 and counts != REFERENCE_EXACT_COUNTS_N3[family]:
            found.append(f"exact {family} n=3 counts {counts} differ from the reference")
        return found

    return check


def compare_identities(stdout: str, written: str | None) -> list[str]:
    """Every P column starts at 1: at r=0 every variable entry is 0."""
    rows = _csv_rows(stdout if written is None else written)
    if not rows or rows[0]["r"] != "0":
        return ["compare output has no r=0 row"]
    bad = [k for k, v in rows[0].items() if k.startswith("P_") and float(v) != 1.0]
    return [f"compare {k}(0) != 1" for k in bad]


def dist_identities(stdout: str, written: str | None) -> list[str]:
    """The term counts of each dimension n sum to n!."""
    totals: dict[int, int] = {}
    for row in _csv_rows(stdout if written is None else written):
        n = int(row["n"])
        totals[n] = totals.get(n, 0) + int(row["count"])
    return [f"dist n={n} total != {n}!" for n, t in totals.items() if t != math.factorial(n)]


def json_parses(stdout: str, written: str | None) -> list[str]:
    try:
        json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    return []


def svg_curves(grid_points: int) -> Check:
    """Q and P curves for each of the three families, one point per grid value."""

    def check(stdout: str, written: str | None) -> list[str]:
        try:
            root = ET.fromstring(stdout)
        except ET.ParseError as exc:
            return [f"svg does not parse: {exc}"]
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        if len(lines) != 6:
            return [f"svg has {len(lines)} curves, expected 6"]
        if any(len(p.get("points", "").split()) != grid_points for p in lines):
            return [f"svg curve without {grid_points} points"]
        return []

    return check


def summary_line(expected: str) -> Check:
    def check(stdout: str, written: str | None) -> list[str]:
        tail = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        return [] if tail == expected else [f"last line {tail!r} != {expected!r}"]

    return check


def starts_with(prefix: str) -> Check:
    def check(stdout: str, written: str | None) -> list[str]:
        return [] if stdout.startswith(prefix) else [f"stdout does not start {prefix!r}"]

    return check


def _exact(family: str, n: int) -> Command:
    argv = ("exact", "--family", family, "--n", str(n))
    return Command(argv, (stdout_digest(" ".join(argv)), exact_identities(family, n)))


def _compare(n: int) -> Command:
    argv = ("compare", "--n", str(n))
    return Command(argv, (stdout_digest(" ".join(argv)), compare_identities))


def _compare_svg(n: int) -> Command:
    return Command(("compare", "--n", str(n), "--format", "svg"), (svg_curves(101),))


def _dist(family: str, n: int) -> Command:
    argv = ("dist", "--family", family, "--n", str(n))
    return Command(argv, (stdout_digest(" ".join(argv)), dist_identities))


def _written(argv: tuple[str, ...], out: str, *checks: Check) -> Command:
    argv = argv + ("--out", out)
    return Command(argv, (file_digest(" ".join(argv)), *checks), out=out)


FAMILIES = ("A", "B", "C")

# Written by tables-validate and re-verified by its final validate command.
ARTIFACTS = ("dist_C_30.csv", "exact_C_4.csv", "compare_3.csv")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "exact-n5",
            tuple(_exact(f, 5) for f in FAMILIES) + (_compare(5), _compare_svg(5)),
        ),
        Workload(
            "small-k",
            tuple(_exact(f, n) for n in (3, 4) for f in FAMILIES)
            + (_compare(4), _compare_svg(3)),
        ),
        Workload(
            "tables-validate",
            tuple(_dist(f, 30) for f in FAMILIES)
            + (
                Command(
                    ("dist", "--family", "C", "--n", "30", "--format", "json"),
                    (stdout_digest("dist --family C --n 30 --format json"), json_parses),
                ),
                Command(("seq",), (summary_line("7/7 sequence checks passed"),)),
                _written(("dist", "--family", "C", "--n", "30"), ARTIFACTS[0],
                         dist_identities),
                _written(("exact", "--family", "C", "--n", "4"), ARTIFACTS[1],
                         exact_identities("C", 4), starts_with("P(r) = ")),
                _written(("compare", "--n", "3"), ARTIFACTS[2], compare_identities),
                Command(
                    ("validate", "--n", "9") + ARTIFACTS,
                    (summary_line("15/15 checks passed"),),
                    last=True,
                ),
            ),
        ),
    )
}
