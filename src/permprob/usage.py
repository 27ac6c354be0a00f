"""Help and usage text of the ``permprob`` command line.

The text is generated from the subcommand table in :mod:`permprob.cli` and
is never wrapped: a usage line or an option row stays one line however long
it is.  A subcommand's help therefore differs from argparse's help of the
same table only in its whitespace; the top-level help lists the subcommands
under ``commands:``.  Only ``-h`` and a command line that does not parse
need it, so it lives here rather than in ``cli``, which every command
compiles.
"""

import sys

from .cli import _FLAGS, _SUBCOMMANDS

DESCRIPTION = ("Term-count tables, approximate and exact probabilities that the\n"
               "permanent of a random 0/1 matrix hits its target value")
# A flag's help where one subcommand reads it otherwise than ``_FLAGS`` says.
# The walk's limit is ``termoracles.BRUTEFORCE_MAX_N``, written out so that
# help loads no oracle module.
_OWN_HELP = {
    ("validate", "n"): "largest matrix dimension whose S_n is walked "
                       f"(default: {_SUBCOMMANDS['validate'].default_n}, at most 12)",
}


def _flag(option: str, formats: tuple[str, ...]) -> str:
    """``--option`` and the value it takes, as usage and help show them."""
    kind = _FLAGS[option][0]
    if kind is bool:
        return f"--{option}"
    if kind in (int, str):
        return f"--{option} {option.upper()}"
    return f"--{option} {{{','.join(kind or formats)}}}"


def _section(title: str, rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows) + 2
    return ["", f"{title}:"] + [f"  {left:<{width}}{right}" for left, right in rows]


def help_text(name: str | None) -> str:
    """The help of subcommand ``name``, or of ``permprob``; its first line is the usage."""
    options = [("-h, --help", _FLAGS["help"][1])]
    spec = _SUBCOMMANDS.get(name)
    if spec is None:
        usage = "permprob [-h] {%s} ..." % ",".join(_SUBCOMMANDS)
        lines = _section("commands", [(cmd, sub.help) for cmd, sub in _SUBCOMMANDS.items()])
        about = DESCRIPTION
    else:
        flags = [_flag(option, spec.formats) for option in spec.options]
        usage = " ".join([f"permprob {name} [-h]"] + [f"[{flag}]" for flag in flags])
        options += [(flag, _OWN_HELP.get((name, option), _FLAGS[option][1]))
                    for flag, option in zip(flags, spec.options)]
        lines = []
        if spec.paths:
            usage += " [paths ...]"
            lines = _section("positional arguments", [("paths", spec.paths)])
        about = spec.help
    lines = [f"usage: {usage}", "", about] + lines + _section("options", options)
    return "\n".join(lines) + "\n"


def show(name: str | None, error: str | None = None) -> int:
    """Print the help of ``name``, or its usage line and ``error``, as argparse does.

    The help goes to stdout and gives exit code 0.  An error goes to stderr
    as the usage line, then ``prog: error: message``, and gives exit code 2.
    """
    text = help_text(name)
    if error is None:
        sys.stdout.write(text)
        return 0
    prog = f"permprob {name}" if name else "permprob"
    sys.stderr.write(f"{text.splitlines()[0]}\n{prog}: error: {error}\n")
    return 2


def show_top(argv: list[str]) -> int:
    """Print the help of ``permprob`` for ``-h``, else its usage error: the
    missing subcommand, or an ``argv[0]`` that names none."""
    if not argv:
        return show(None, "the following arguments are required: command")
    if argv[0] == "-h" or (len(argv[0]) > 2 and "--help".startswith(argv[0])):
        return show(None)
    choices = ", ".join(map(repr, _SUBCOMMANDS))
    return show(None, f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
