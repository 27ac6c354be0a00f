"""Command-line surface: tables, probability grids, exact counts, validation.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 guard
violation.  Defaults work without any configuration; a ``permprob.conf``
key=value file (or the path in ``PERMPROB_CONFIG``) supplies defaults that
command-line flags override.  Each subcommand parses only the flags it reads
and resolves only the matching config keys, so a shared config file may hold
keys that some subcommands ignore.  The parsed ``argparse.Namespace`` is the
one options object: ``_resolve`` fills in and checks each option the
subcommand reads, and the handler takes the namespace alone.

At top level this module imports only ``guards`` and ``families``.  Each
handler imports the probability, term-table, rendering, plotting,
validation and sequence modules it needs itself, so a command loads only
what it runs: the oracle modules ``matrices`` and ``termoracles`` load only
under ``validate``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from .guards import GuardError, Record, parse_int
from .families import Family

# Longest permprob.conf, in characters, that is read.
MAX_CONFIG_CHARS = 64 * 1024


class UsageError(ValueError):
    pass


def load_config_file(path: str | None = None) -> dict[str, str]:
    """Read key=value lines; a missing file is an empty configuration.

    A path that cannot be read, a file that is not UTF-8 text, or one longer
    than ``MAX_CONFIG_CHARS`` is a :class:`UsageError`.
    """
    path = path or os.environ.get("PERMPROB_CONFIG", "permprob.conf")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(MAX_CONFIG_CHARS + 1)
    except FileNotFoundError:
        return {}
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if len(text) > MAX_CONFIG_CHARS:
        raise UsageError(
            f"cannot read config {path}: longer than {MAX_CONFIG_CHARS} characters")
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


def _resolve(args: argparse.Namespace, file_cfg: dict[str, str],
             spec: _Subcommand) -> None:
    """Fill in ``args`` each option ``spec`` reads that no flag set, and check it.

    An unset option takes its ``permprob.conf`` key, or else its default;
    options ``spec`` does not read stay absent.  ``family`` becomes a list of
    :class:`Family`.  An ``n`` or ``grid`` key longer than
    ``guards.MAX_INT_CHARS`` characters is refused before ``int()`` reads it.
    ``oeis`` brings ``oeis_url`` and ``oeis_timeout``: the
    timeout, from that key or else from ``PERMPROB_OEIS_TIMEOUT``, is checked
    by :func:`permprob.sequences.oeis_timeout`.
    """
    def pick(attr: str, default, cast=str):
        value = getattr(args, attr)
        if value is None and attr in file_cfg:
            try:
                value = cast(file_cfg[attr])
            except ValueError as exc:
                raise UsageError(f"bad config value for {attr}: {exc}") from exc
        setattr(args, attr, default if value is None else value)
        return getattr(args, attr)

    def flag(attr: str) -> None:
        setattr(args, attr, getattr(args, attr) or _parse_bool(file_cfg.get(attr, "")))

    options = spec.options
    if "family" in options:
        names = pick("family", [], lambda raw: [raw])
        args.family = []
        for name in names:
            try:
                args.family.append(Family(name))
            except ValueError:
                raise UsageError(f"unknown family {name!r}; expected A, B, or C")
    if "format" in options and pick("format", spec.formats[0]) not in spec.formats:
        raise UsageError(
            f"format {args.format!r} is not supported here "
            f"(choose from {', '.join(spec.formats)})"
        )
    if "n" in options and pick("n", spec.default_n, parse_int) < 1:
        raise UsageError(f"n must be >= 1, got {args.n}")
    if "grid" in options:
        from .probability import DEFAULT_GRID

        if pick("grid", DEFAULT_GRID, parse_int) < 2:
            raise UsageError(f"grid must be >= 2, got {args.grid}")
    if "out" in options:
        pick("out", None)
    if "force" in options:
        flag("force")
    if "oeis" in options:
        from .sequences import OEIS_TIMEOUT_ENV, oeis_timeout

        flag("oeis")
        args.oeis_url = file_cfg.get("oeis_url")
        source = "oeis_timeout"
        raw = file_cfg.get(source)
        if not raw:
            source = OEIS_TIMEOUT_ENV
            raw = os.environ.get(source)
        try:
            args.oeis_timeout = oeis_timeout(raw, source) if raw else None
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_one_family(args: argparse.Namespace, command: str) -> Family:
    if len(args.family) != 1:
        raise UsageError(f"{command} needs exactly one --family (A, B, or C)")
    return args.family[0]


def _cmd_dist(args: argparse.Namespace) -> int:
    from .output import make_dist_doc

    family = _require_one_family(args, "dist")
    doc = make_dist_doc(family, args.n, args.force)
    _emit(doc.render(args.format), args.out)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    from .output import make_exact_doc
    from .probability import bernstein_string, exact_counts

    family = _require_one_family(args, "exact")
    counts = exact_counts(family, args.n, force=args.force)
    _emit(make_exact_doc(counts).render(args.format), args.out)
    if args.out and args.format == "csv":
        print(f"P(r) = {bernstein_string(counts)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .output import compare_svg, make_compare_doc

    families = args.family or list(Family)
    if args.format == "svg":
        text = compare_svg(families, args.n, args.grid, args.force)
    else:
        doc = make_compare_doc(families, args.n, args.grid, args.force)
        text = doc.render(args.format)
    _emit(text, args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .termoracles import WALK_MAX_N
    from .validation import run_offline_checks, verify_artifact

    if args.n > WALK_MAX_N:  # --force cannot lift this one
        raise UsageError(f"n must be <= {WALK_MAX_N} for the symmetric-group "
                         f"walk, got {args.n}")
    results = run_offline_checks(bruteforce_n=args.n, force=args.force)
    for path in args.paths:
        results.append(verify_artifact(path, force=args.force))
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{status}  {res.name}{detail}")
    if args.oeis:
        _print_oeis_report(args)
    failed = sum(1 for res in results if not res.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _print_oeis_report(args: argparse.Namespace) -> None:
    from datetime import datetime, timezone

    from .sequences import builtin_checks
    from .termdist import v_closed_form

    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for check in builtin_checks():
        prefix = check.expected[:8]
        line = _lookup_line(prefix, args, expected_id=check.oeis_id)
        print(f"OEIS  {check.oeis_id} [{check.slice_name}] {line} at {stamp}")
    informational = [v_closed_form(n, 4) for n in range(4, 9)]
    line = _lookup_line(informational, args, expected_id=None)
    print(f"OEIS  V_n(4) column {line} at {stamp}")


def _lookup_line(prefix, args: argparse.Namespace, expected_id: str | None) -> str:
    from .sequences import OEISFormatError, oeis_lookup

    try:
        result = oeis_lookup(prefix, base_url=args.oeis_url, timeout=args.oeis_timeout)
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


def _cmd_seq(args: argparse.Namespace) -> int:
    from .sequences import builtin_checks

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
    if args.oeis:
        _print_oeis_report(args)
    print(f"{len(checks) - failed}/{len(checks)} sequence checks passed")
    return 1 if failed else 0


class _Subcommand(Record):
    """A subcommand's handler and the options it reads.

    ``options`` names both the flags the subcommand parses and the
    ``permprob.conf`` keys it resolves; it parses and resolves no others.
    """

    __slots__ = ("handler", "help", "options", "formats", "default_n")

    def __init__(self, handler: Callable[[argparse.Namespace], int],
                 help: str, options: tuple[str, ...],
                 formats: tuple[str, ...] = ("csv",),
                 default_n: int | None = None) -> None:
        self.handler = handler
        self.help = help
        self.options = options
        self.formats = formats
        self.default_n = default_n


_ARTIFACT_OPTIONS = ("family", "n", "format", "out", "force")

_SUBCOMMANDS = {
    "dist": _Subcommand(_cmd_dist, "emit the term-count triangle for a family",
                        _ARTIFACT_OPTIONS, ("csv", "json"), default_n=6),
    "compare": _Subcommand(_cmd_compare,
                           "tabulate approximate vs exact probability on a grid",
                           _ARTIFACT_OPTIONS + ("grid",), ("csv", "json", "svg"),
                           default_n=3),
    "exact": _Subcommand(_cmd_exact, "count assignments and emit exact hit counts",
                         _ARTIFACT_OPTIONS, ("csv", "json"), default_n=3),
    "validate": _Subcommand(_cmd_validate, "run all offline cross-checks",
                            ("n", "force", "oeis"), default_n=8),
    "seq": _Subcommand(_cmd_seq, "check generated slices against known sequences",
                       ("oeis",)),
}

_FLAGS = {
    "family": dict(action="append", choices=["A", "B", "C"],
                   help="matrix family (repeatable where a subset makes sense)"),
    "n": dict(type=int, help="matrix dimension"),
    "grid": dict(type=int, help="number of grid points on [0, 1]"),
    "format": dict(help="output format"),
    "out": dict(help="output path (default: stdout)"),
    "force": dict(action="store_true",
                  help="accept long runtimes past the size guards"),
    "oeis": dict(action="store_true", help="also run remote sequence lookups"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permprob",
        description=(
            "Term-count tables, approximate and exact probabilities that the "
            "permanent of a random 0/1 matrix hits its target value"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for option in spec.options:
            kwargs = dict(_FLAGS[option])
            if option == "format":
                kwargs["choices"] = spec.formats
            p.add_argument(f"--{option}", **kwargs)
        if name == "validate":
            p.add_argument("paths", nargs="*",
                           help="previously emitted CSV artifacts to re-verify")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    spec = _SUBCOMMANDS[args.command]
    try:
        _resolve(args, load_config_file(), spec)
        return spec.handler(args)
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
