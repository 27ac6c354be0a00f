"""Command-line surface: tables, probability grids, exact counts, validation.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 guard
violation.  Defaults work without any configuration; a ``permprob.conf``
key=value file (or the path in ``PERMPROB_CONFIG``) supplies defaults that
command-line flags override.  Each subcommand parses only the flags it reads
and resolves only the matching config keys, so a shared config file may hold
keys that some subcommands ignore.

One table drives the command line: ``_SUBCOMMANDS`` gives each subcommand's
handler and options, and ``_FLAGS`` each flag's kind and help.  ``_parse``
reads a command line of whole flags with plain values itself, and hands
any other to ``usage``, whose argparse parser is built from the same table
and prints the help and the usage errors; only those command lines import
argparse, which brings ``gettext`` and ``locale`` with it.  ``_resolve``
then makes one pass over the table: each option the subcommand reads comes
from its flag, else its ``permprob.conf`` key, else its default, and is
checked.  The resulting namespace is the one options object a handler
takes.

At top level this module imports only ``guards`` and ``families``.  Each
handler imports the probability, term-table, rendering, plotting,
validation and sequence modules it needs itself, so a command loads only
what it runs: the oracle modules ``matrices`` and ``termoracles`` load only
under ``validate``, and the OEIS client only under ``--oeis``.  The
``validate`` and ``seq`` handlers hand their options to the ``report`` of
``validation`` and ``sequences``, which print the reports, so this module,
which every command compiles when bytecode is not written, holds only the
parsing, the resolving and the artifact handlers.
"""

import os
import sys
from types import SimpleNamespace

from .guards import MAX_INT_CHARS, GuardError, Record, parse_int
from .families import Family

# Longest permprob.conf, in characters, that is read.
MAX_CONFIG_CHARS = 64 * 1024


class UsageError(ValueError):
    pass


def load_config_file() -> dict[str, str]:
    """Read the key=value lines of ``PERMPROB_CONFIG``, else of ``permprob.conf``.

    A missing file is an empty configuration.  A path that cannot be read,
    a file that is not UTF-8 text, or one longer than ``MAX_CONFIG_CHARS``
    is a :class:`UsageError`.
    """
    path = os.environ.get("PERMPROB_CONFIG", "permprob.conf")
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_one_family(args: SimpleNamespace, command: str) -> Family:
    if len(args.family) != 1:
        raise UsageError(f"{command} needs exactly one --family (A, B, or C)")
    return args.family[0]


def _cmd_dist(args: SimpleNamespace) -> int:
    from .output import make_dist_doc

    family = _require_one_family(args, "dist")
    doc = make_dist_doc(family, args.n, args.force)
    _emit(doc.render(args.format), args.out)
    return 0


def _cmd_exact(args: SimpleNamespace) -> int:
    from .output import make_exact_doc
    from .probability import exact_counts

    family = _require_one_family(args, "exact")
    doc = make_exact_doc(exact_counts(family, args.n, force=args.force))
    _emit(doc.render(args.format), args.out)
    if args.out and args.format == "csv":
        print(f"P(r) = {doc.polynomial}")
    return 0


def _cmd_compare(args: SimpleNamespace) -> int:
    families = args.family or list(Family)
    if args.format == "svg":
        from .svgplot import compare_svg

        text = compare_svg(families, args.n, args.grid, args.force)
    else:
        from .output import make_compare_doc

        text = make_compare_doc(families, args.n, args.grid, args.force).render(args.format)
    _emit(text, args.out)
    return 0


def _cmd_validate(args: SimpleNamespace) -> int:
    from .validation import report

    return report(args.n, args.paths, args.oeis)


def _cmd_seq(args: SimpleNamespace) -> int:
    from .sequences import report

    return report(args.oeis)


class _Subcommand(Record):
    """A subcommand's handler, which takes the options and returns the exit
    code, and the options it reads.

    ``options`` names both the flags the subcommand parses and the
    ``permprob.conf`` keys it resolves; it parses and resolves no others.
    ``paths``, when set, is the help of the file paths it takes as
    positional arguments.
    """

    __slots__ = ("handler", "help", "options", "formats", "default_n", "paths")

    def __init__(self, handler, help: str, options: tuple[str, ...],
                 formats: tuple[str, ...] = ("csv",), default_n: int | None = None,
                 paths: str | None = None) -> None:
        self.handler = handler
        self.help = help
        self.options = options
        self.formats = formats
        self.default_n = default_n
        self.paths = paths


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
                            ("n", "oeis"), default_n=8,
                            paths="previously emitted CSV artifacts to re-verify"),
    "seq": _Subcommand(_cmd_seq, "check generated slices against known sequences",
                       ("oeis",)),
}

# Each flag's kind and help, in the order ``_resolve`` resolves them.  The
# kind says how the flag's text is read: ``int`` and ``str`` convert it, a
# tuple names the values allowed (empty: the subcommand's formats), and
# ``bool`` marks a switch, which takes no text.  Only ``--family`` may be
# given more than once.
_FLAGS = {
    "family": (("A", "B", "C"), "matrix family (repeatable where a subset makes sense)"),
    "format": ((), "output format"),
    "n": (int, "matrix dimension"),
    "grid": (int, "number of grid points on [0, 1]"),
    "out": (str, "output path (default: stdout)"),
    "force": (bool, "accept long runtimes past the size guards"),
    "oeis": (bool, "also run remote sequence lookups"),
}


def _parse(argv: list[str]) -> tuple[_Subcommand, SimpleNamespace]:
    """The subcommand ``argv`` names, and the values of the flags it gives.

    The command lines that scripts type are read here: the subcommand, then
    whole flag names, a switch alone and any other flag as ``--flag value``,
    with a value that does not start with ``-``, or as ``--flag=value``, and
    ``validate``'s one run of paths.  An ``int`` flag takes only decimal
    digits and a choice only a listed value.  Any other command line, ``-h``
    and every usage error among them, is read by argparse through
    :func:`permprob.usage.parse`.  A flag not given is None, and ``family``
    is the list of names given.
    """
    spec = _SUBCOMMANDS.get(argv[0] if argv else "")
    if spec is not None:
        args = SimpleNamespace(paths=[], **dict.fromkeys(spec.options))
        closed = False  # validate's paths end at the first flag after them
        tokens = iter(argv[1:])
        for token in tokens:
            if token[:1] != "-":
                if not spec.paths or closed:
                    break
                args.paths.append(token)
                continue
            closed = bool(args.paths)
            option, eq, value = token[2:].partition("=")
            if token[:2] != "--" or option not in spec.options:
                break
            kind = _FLAGS[option][0]
            if kind is bool:
                if eq:
                    break
                value = True
            elif not eq:
                value = next(tokens, "-")
                if value[:1] == "-":
                    break
            if kind is int:
                if not value.isdecimal() or len(value) > MAX_INT_CHARS:
                    break
                value = int(value)
            elif kind not in (bool, str) and value not in (kind or spec.formats):
                break
            if option == "family":
                value = (args.family or []) + [value]
            setattr(args, option, value)
        else:
            return spec, args
    from .usage import parse

    return parse(argv)


def _resolve(spec: _Subcommand, args: SimpleNamespace, file_cfg: dict[str, str]) -> None:
    """Fill in each option ``spec`` reads, in one pass over ``_FLAGS``, and check it.

    An option no flag gave takes its ``permprob.conf`` key, or else its
    default; a switch is on when its flag or its key says so.  An ``n`` or
    ``grid`` key longer than ``guards.MAX_INT_CHARS`` characters is refused
    before ``int()`` reads it.  The lookup settings of
    :func:`permprob.sequences.oeis_settings` are checked whenever the
    subcommand reads ``oeis``, and ``oeis`` becomes them when it is on, else
    None.
    """
    for option, (kind, _) in _FLAGS.items():
        if option not in spec.options:
            continue
        value, raw = getattr(args, option), file_cfg.get(option)
        if kind is bool:
            value = value or _parse_bool(raw or "")
        elif value is None and raw is not None:
            if option == "family" and raw not in kind:
                raise UsageError(f"unknown family {raw!r}; expected A, B, or C")
            try:  # a key names one family, where flags give a list
                value = parse_int(raw) if kind is int else [raw] if option == "family" else raw
            except ValueError as exc:
                raise UsageError(f"bad config value for {option}: {exc}") from exc
        if option == "family":
            value = [Family(name) for name in value or ()]
        elif option == "format":
            value = spec.formats[0] if value is None else value
            if value not in spec.formats:
                raise UsageError(f"format {value!r} is not supported here "
                                 f"(choose from {', '.join(spec.formats)})")
        elif kind is int:
            if value is None and option == "grid":
                from .probability import DEFAULT_GRID as value
            value = spec.default_n if value is None else value
            least = 2 if option == "grid" else 1
            if value < least:
                raise UsageError(f"{option} must be >= {least}, got {value}")
        elif option == "oeis":
            from .sequences import oeis_settings

            try:
                settings = oeis_settings(file_cfg)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            value = settings if value else None
        setattr(args, option, value)


def main(argv: list[str] | None = None) -> int:
    try:
        spec, args = _parse(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # -h, or a command line that does not parse
        return exc.code
    try:
        _resolve(spec, args, load_config_file())
        return spec.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:  # only a subcommand that reads force can lift it
        print(f"guard violation: {exc}"
              + ("; pass --force to accept the runtime" if "force" in spec.options
                 else ", which no --force lifts"), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
