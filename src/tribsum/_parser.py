"""The argparse parser of the command line, built from ``cli``'s option
table, and the parse of a command line that table's reader leaves to it.
``cli`` imports this module only for help, usage, errors and other
non-canonical command lines, so a canonical call loads neither argparse
nor the gettext, locale and shutil modules that argparse loads.  The
parser formats text with argparse's own formatter.  This module imports
nothing from ``cli``: run as ``python -m tribsum.cli``, that module is
``__main__``, not ``tribsum.cli``.
"""

import argparse


class UsageError(Exception):
    """A command line argparse rejected; ``parser`` is the parser that did."""

    def __init__(self, parser: argparse.ArgumentParser, message: str) -> None:
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(self, message)


def _argument_type(convert):
    """*convert* as an argparse type: its ValueError's message is the usage
    error's, as an ArgumentTypeError's is."""
    def typed(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return typed


def _add_options(parser: argparse.ArgumentParser, options: dict) -> None:
    for name, spec in options.items():
        if "type" in spec:
            spec = {**spec, "type": _argument_type(spec["type"])}
        parser.add_argument(name, **spec)


def build_parser(program: dict, description: str, commands: dict) -> argparse.ArgumentParser:
    """The parser of *program*'s options and of each subcommand in *commands*
    (name -> help, handler, options); options map each option's name to
    its add_argument call's keyword arguments."""
    parser = _Parser(prog="tribsum", description=description)
    _add_options(parser, program)
    # Given its prog, argparse formats no usage line to find it.
    sub = parser.add_subparsers(dest="subcommand", required=True, prog=parser.prog)
    for name, (help_text, func, options) in commands.items():
        command = sub.add_parser(name, help=help_text)
        _add_options(command, options)
        command.set_defaults(func=func)
    return parser


def parse(parser: argparse.ArgumentParser, argv: list[str], args: object,
          joined: set[str]) -> UsageError | None:
    """Parse *argv* into the namespace *args* with *parser*.  Return None, or
    the usage error, which the caller writes; help exits 0.

    argparse takes a separate "-3/4" for an option name, so a value that
    starts with "-" and a digit is first joined to the option of *joined*
    before it, as "--s=-3/4"; core validates it as a literal."""
    for i in range(len(argv) - 1, 0, -1):
        if (argv[i - 1] in joined and len(argv[i]) > 1
                and argv[i][0] == "-" and argv[i][1] in "0123456789"):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        parser.parse_args(argv, args)
    except UsageError as exc:
        return exc
    return None
