"""Command-line surface: tables, probability grids, exact counts, validation.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 guard
violation.  Defaults work without any configuration; a ``permprob.conf``
key=value file (or the path in ``PERMPROB_CONFIG``) supplies defaults that
command-line flags override.

Each handler imports the rendering, plotting, validation and sequence
modules it needs itself, so a command loads only what it runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .guards import GuardError, check_guard
from .matrices import Family
from .probability import bernstein_string, compare_grid, exact_counts
from .termdist import v_closed_form

DEFAULT_GRID = 101

_FAMILY_COLORS = {Family.A: "#1f77b4", Family.B: "#d62728", Family.C: "#2ca02c"}


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Effective options after merging defaults, config file, and flags."""

    families: list[Family]
    n: int
    grid_points: int = DEFAULT_GRID
    output_format: str = "csv"
    output_path: str | None = None
    force: bool = False
    oeis_enabled: bool = False
    oeis_base_url: str | None = None
    oeis_timeout: float | None = None


def load_config_file(path: str | None = None) -> dict[str, str]:
    """Read key=value lines; a missing file is an empty configuration."""
    path = path or os.environ.get("PERMPROB_CONFIG", "permprob.conf")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return {}
    config = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _resolve(args: argparse.Namespace, file_cfg: dict[str, str], *, default_n: int,
             formats: tuple[str, ...]) -> RunConfig:
    def pick(attr: str, key: str, default, cast):
        value = getattr(args, attr, None)
        if value is None and key in file_cfg:
            try:
                value = cast(file_cfg[key])
            except ValueError as exc:
                raise UsageError(f"bad config value for {key}: {exc}") from exc
        return default if value is None else value

    raw_families = getattr(args, "family", None)
    if not raw_families and "family" in file_cfg:
        raw_families = [file_cfg["family"]]
    families = []
    if raw_families:
        for name in raw_families:
            try:
                families.append(Family(name))
            except ValueError:
                raise UsageError(f"unknown family {name!r}; expected A, B, or C")

    fmt = pick("format", "format", formats[0], str)
    if fmt not in formats:
        raise UsageError(
            f"format {fmt!r} is not supported here (choose from {', '.join(formats)})"
        )
    n = pick("n", "n", default_n, int)
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    grid = pick("grid", "grid", DEFAULT_GRID, int)
    if grid < 2:
        raise UsageError(f"grid must be >= 2, got {grid}")
    force = bool(getattr(args, "force", False)) or _parse_bool(file_cfg.get("force", ""))
    oeis = bool(getattr(args, "oeis", False)) or _parse_bool(file_cfg.get("oeis", ""))
    timeout = None
    if file_cfg.get("oeis_timeout"):
        timeout = pick("oeis_timeout", "oeis_timeout", None, float)
        if not 0.0 < timeout < math.inf:
            raise UsageError(
                f"oeis_timeout must be a positive number of seconds, got {timeout}"
            )
    return RunConfig(
        families=families,
        n=n,
        grid_points=grid,
        output_format=fmt,
        output_path=pick("out", "out", None, str),
        force=force,
        oeis_enabled=oeis,
        oeis_base_url=file_cfg.get("oeis_url"),
        oeis_timeout=timeout,
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_one_family(cfg: RunConfig, command: str) -> Family:
    if len(cfg.families) != 1:
        raise UsageError(f"{command} needs exactly one --family (A, B, or C)")
    return cfg.families[0]


def _cmd_dist(args: argparse.Namespace, file_cfg: dict[str, str]) -> int:
    from .output import DIST_MAX_N, dist_json, make_dist_doc

    cfg = _resolve(args, file_cfg, default_n=6, formats=("csv", "json"))
    family = _require_one_family(cfg, "dist")
    check_guard(cfg.n, DIST_MAX_N, "table dimension", cfg.force)
    if cfg.output_format == "json":
        _emit(dist_json(family, cfg.n), cfg.output_path)
    else:
        _emit(make_dist_doc(family, cfg.n).render(), cfg.output_path)
    return 0


def _cmd_exact(args: argparse.Namespace, file_cfg: dict[str, str]) -> int:
    from .output import exact_json, make_exact_doc

    cfg = _resolve(args, file_cfg, default_n=3, formats=("csv", "json"))
    family = _require_one_family(cfg, "exact")
    counts = exact_counts(family, cfg.n, force=cfg.force)
    if cfg.output_format == "json":
        _emit(exact_json(counts), cfg.output_path)
    else:
        _emit(make_exact_doc(counts).render(), cfg.output_path)
        if cfg.output_path:
            print(f"P(r) = {bernstein_string(counts)}")
    return 0


def _cmd_compare(args: argparse.Namespace, file_cfg: dict[str, str]) -> int:
    cfg = _resolve(args, file_cfg, default_n=3, formats=("csv", "json", "svg"))
    families = cfg.families or [Family.A, Family.B, Family.C]
    grids = {
        fam: compare_grid(fam, cfg.n, grid_points=cfg.grid_points, force=cfg.force)
        for fam in families
    }
    if cfg.output_format == "svg":
        from .svgplot import Series, line_chart

        series = []
        for fam in families:
            rows = grids[fam]
            color = _FAMILY_COLORS[fam]
            series.append(
                Series(
                    label=f"Q ({fam.value})",
                    points=tuple((r, q) for r, q, _, _ in rows),
                    color=color,
                )
            )
            series.append(
                Series(
                    label=f"P ({fam.value})",
                    points=tuple((r, p) for r, _, p, _ in rows),
                    color=color,
                    dashed=True,
                )
            )
        text = line_chart(
            series,
            title=f"Probability that the permanent hits its target (n={cfg.n})",
        )
        _emit(text, cfg.output_path)
    elif cfg.output_format == "json":
        from .output import compare_json

        _emit(compare_json(cfg.n, cfg.grid_points, families, grids), cfg.output_path)
    else:
        from .output import make_compare_doc

        doc = make_compare_doc(cfg.n, cfg.grid_points, families, grids)
        _emit(doc.render(), cfg.output_path)
    return 0


def _cmd_validate(args: argparse.Namespace, file_cfg: dict[str, str]) -> int:
    from .validation import run_offline_checks, verify_artifact

    cfg = _resolve(args, file_cfg, default_n=8, formats=("csv",))
    results = run_offline_checks(bruteforce_n=cfg.n, force=cfg.force)
    for path in args.paths:
        results.append(verify_artifact(path, force=cfg.force))
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{status}  {res.name}{detail}")
    if cfg.oeis_enabled:
        _print_oeis_report(cfg)
    failed = sum(1 for res in results if not res.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _print_oeis_report(cfg: RunConfig) -> None:
    from datetime import datetime, timezone

    from .sequences import builtin_checks

    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for check in builtin_checks():
        prefix = check.expected[:8]
        line = _lookup_line(prefix, cfg, expected_id=check.ref.oeis_id)
        print(f"OEIS  {check.ref.oeis_id} [{check.ref.slice_name}] {line} at {stamp}")
    informational = [v_closed_form(n, 4) for n in range(4, 9)]
    line = _lookup_line(informational, cfg, expected_id=None)
    print(f"OEIS  V_n(4) column {line} at {stamp}")


def _lookup_line(prefix, cfg: RunConfig, expected_id: str | None) -> str:
    from .sequences import OEISFormatError, oeis_lookup

    try:
        result = oeis_lookup(
            prefix, base_url=cfg.oeis_base_url, timeout=cfg.oeis_timeout
        )
    except OEISFormatError as exc:
        return f"error: {exc}"
    if result.status == "skipped":
        return f"lookup skipped ({result.note})"
    if expected_id is None:
        if result.ids:
            return f"candidates: {', '.join(result.ids[:5])}"
        return "no listed sequence matches"
    if expected_id in result.ids:
        return "listed"
    return f"not among {len(result.ids)} candidates"


def _cmd_seq(args: argparse.Namespace, file_cfg: dict[str, str]) -> int:
    from .sequences import builtin_checks

    cfg = _resolve(args, file_cfg, default_n=8, formats=("csv",))
    checks = builtin_checks()
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        failed += 0 if check.passed else 1
        note = ""
        if check.self_ref_from is not None:
            note = f"  (terms from n={check.self_ref_from} are self-referential)"
        print(
            f"{status}  {check.ref.oeis_id}  {check.ref.slice_name:<8}"
            f"  {check.window}{note}"
        )
    if cfg.oeis_enabled:
        _print_oeis_report(cfg)
    print(f"{len(checks) - failed}/{len(checks)} sequence checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permprob",
        description=(
            "Term-count tables, approximate and exact probabilities that the "
            "permanent of a random 0/1 matrix hits its target value"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, formats: tuple[str, ...]) -> None:
        p.add_argument("--family", action="append", choices=["A", "B", "C"],
                       help="matrix family (repeatable where a subset makes sense)")
        p.add_argument("--n", type=int, help="matrix dimension")
        p.add_argument("--grid", type=int, help="number of grid points on [0, 1]")
        p.add_argument("--format", choices=formats, help="output format")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--force", action="store_true",
                       help="accept long runtimes past the size guards")
        p.add_argument("--oeis", action="store_true",
                       help="also run remote sequence lookups")

    p_dist = sub.add_parser("dist", help="emit the term-count triangle for a family")
    add_common(p_dist, formats=("csv", "json"))
    p_dist.set_defaults(handler=_cmd_dist)

    p_compare = sub.add_parser(
        "compare", help="tabulate approximate vs exact probability on a grid"
    )
    add_common(p_compare, formats=("csv", "json", "svg"))
    p_compare.set_defaults(handler=_cmd_compare)

    p_exact = sub.add_parser(
        "exact", help="count assignments and emit exact hit counts"
    )
    add_common(p_exact, formats=("csv", "json"))
    p_exact.set_defaults(handler=_cmd_exact)

    p_validate = sub.add_parser("validate", help="run all offline cross-checks")
    add_common(p_validate, formats=("csv",))
    p_validate.add_argument("paths", nargs="*",
                            help="previously emitted CSV artifacts to re-verify")
    p_validate.set_defaults(handler=_cmd_validate)

    p_seq = sub.add_parser("seq", help="check generated slices against known sequences")
    add_common(p_seq, formats=("csv",))
    p_seq.set_defaults(handler=_cmd_seq)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    file_cfg = load_config_file()
    try:
        return args.handler(args, file_cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
