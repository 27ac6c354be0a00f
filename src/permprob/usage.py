"""The argparse reading of the ``permprob`` command line.

``cli._parse`` reads the command lines that scripts type itself; every
other one, ``-h`` and every usage error among them, comes here.
:func:`build_parser` builds the argparse parser that the subcommand table in
:mod:`permprob.cli` describes, and :func:`parse` reads ``argv`` with it, so
argparse prints the help and the usage errors.  Its help is never wrapped: a
usage line or an option row stays one line however long it is.  Only these
command lines load this module, and with it ``argparse``, ``gettext`` and
``locale``.
"""

import argparse

from .cli import _FLAGS, _SUBCOMMANDS

DESCRIPTION = ("Term-count tables, approximate and exact probabilities that the\n"
               "permanent of a random 0/1 matrix hits its target value")
# A flag's help where one subcommand reads it otherwise than ``_FLAGS`` says.
# The walk's limit is ``validation.BRUTEFORCE_MAX_N``, written out so that
# help loads no oracle route.
_OWN_HELP = {
    ("validate", "n"): "largest matrix dimension whose S_n is walked "
                       f"(default: {_SUBCOMMANDS['validate'].default_n}, at most 12)",
}


def _unwrapped(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=1 << 16, max_help_position=1 << 16)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli._SUBCOMMANDS`` and ``cli._FLAGS`` describe.

    A flag not given is None, a switch included, and ``family`` is the list
    of names given.  Each subcommand's parser is also the default of its
    ``parser`` attribute, so that :func:`parse` can report under its usage
    line.
    """
    parser = argparse.ArgumentParser(prog="permprob", description=DESCRIPTION,
                                     formatter_class=_unwrapped)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        sub = commands.add_parser(name, help=spec.help, description=spec.help,
                                  formatter_class=_unwrapped)
        sub.set_defaults(parser=sub)
        for option in spec.options:
            kind, help = _FLAGS[option]
            kwargs = {"help": _OWN_HELP.get((name, option), help)}
            if kind is bool:
                kwargs.update(action="store_true", default=None)
            elif kind is int:
                kwargs["type"] = int
            elif kind is not str:
                kwargs["choices"] = list(kind or spec.formats)
            if option == "family":
                kwargs["action"] = "append"
            sub.add_argument(f"--{option}", **kwargs)
        if spec.paths:
            sub.add_argument("paths", nargs="*", help=spec.paths)
    return parser


def parse(argv: list[str]):
    """The subcommand ``argv`` names and its values, as :func:`build_parser` reads them.

    Help exits 0 and a usage error exits 2, as argparse exits.  Unrecognized
    arguments are reported under the subcommand's usage line, where
    ``parse_args`` would report them under the top-level one.  So is a flag
    read as ``[]`` from ``--flag=--`` by an argparse that strips ``--`` from
    an explicit argument (3.10, 3.11 and early 3.12 releases); a later one
    reads the text ``--``.
    """
    args, extras = build_parser().parse_known_args(argv)
    sub = args.parser
    if extras:
        sub.error("unrecognized arguments: " + " ".join(extras))
    spec = _SUBCOMMANDS[args.command]
    for option in spec.options:
        value = getattr(args, option)
        if value == [] or (option == "family" and value and [] in value):
            sub.error(f"argument --{option}: expected one argument")
    return spec, args
