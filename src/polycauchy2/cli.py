"""Command-line front end: triangle tables, sequence tables, series dumps, verification.

Exit codes are the machine contract: 0 success (or identity pass), 1 identity
failure, 2 usage error, 3 internal error (an ArithmeticError, reported on one
stderr line), 141 stdout closed early (128 + SIGPIPE). Numbers print as
canonical rational text, so identical calls give identical bytes. Every value
is recomputed on every call; ``--cache PATH`` is accepted and ignored.
``stirling2`` checks that no entry can round before its first byte, then
computes and writes one row at a time, and writes its JSON directly.

One table, ``_COMMANDS``, states the grammar. Plain calls are parsed straight
from it: ``--opt value``, flags, one positional from its choices, and ints
as ASCII digits with an optional "-". Help, usage errors and every other
spelling (``--opt=value``, abbreviations, ...) go to the argparse parser
that ``build_parser`` builds from the same table. Argparse stays the
reference grammar, and it is imported only on those calls.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .convolution import DEFAULT_NMAX, IDENTITY_NAMES, verify_identity
from .exact import rational_to_text
from .polycauchy import PolyCauchyTable
from .series import BUILTIN_SERIES_NAMES, builtin_series
from .stirling import level2_text_rows

__all__ = ["build_parser", "main", "entry"]

_FIELD_SEPARATORS = {"csv": ",", "tsv": "\t"}

_DEFAULT_SERIES_ORDER = 40


def _emit_table(fmt: str, header: list[str], rows: list[list[str]], json_payload: dict) -> None:
    if fmt == "json":
        print(json.dumps(json_payload))
        return
    sep = _FIELD_SEPARATORS[fmt]
    print(sep.join(header))
    for row in rows:
        print(sep.join(row))


def cmd_stirling2(args) -> int:
    text_rows = level2_text_rows(args.nmax, args.signed)
    if args.format == "json":
        # Entries are digits and an optional "-", so none needs JSON escaping.
        sys.stdout.write(f'{{"nmax": {args.nmax}, "signed": {str(args.signed).lower()}, "rows": [')
        for n, row in enumerate(text_rows):
            sys.stdout.write((', ["' if n else '["') + '", "'.join(row) + '"]')
        sys.stdout.write("]}\n")
        return 0
    sys.stdout.write("n:values\n")
    for n, row in enumerate(text_rows):
        sys.stdout.write(f"{n}:{_FIELD_SEPARATORS[args.format].join(row)}\n")
    return 0


def cmd_polycauchy(args) -> int:
    # 'both' prints the formula and series routes side by side.
    both = args.route == "both"
    columns = ["formula", "series"] if both else ["value"]
    routes = columns if both else [args.route]
    tables = [PolyCauchyTable.build(args.nmax, args.k, route) for route in routes]
    texts = [[rational_to_text(table.value(n, args.k)) for table in tables] for n in range(args.nmax + 1)]
    _emit_table(
        args.format,
        ["n", *columns],
        [[str(n), *row] for n, row in enumerate(texts)],
        {
            "k": args.k,
            "nmax": args.nmax,
            "route": args.route,
            "values": [{"n": n, **dict(zip(columns, row))} for n, row in enumerate(texts)],
        },
    )
    return 0


def cmd_series(args) -> int:
    texts = [rational_to_text(c) for c in builtin_series(args.name, args.order, k=args.k)]
    _emit_table(
        args.format,
        ["i", "coefficient"],
        [[str(i), text] for i, text in enumerate(texts)],
        {
            "name": args.name,
            "order": args.order,
            "k": args.k,
            "coefficients": [{"i": i, "value": text} for i, text in enumerate(texts)],
        },
    )
    return 0


def cmd_verify(args) -> int:
    nmax = args.nmax
    if nmax is None:
        nmax = DEFAULT_NMAX
    elif args.identity.startswith("conjecture"):
        raise ValueError(f"{args.identity} takes no --nmax: its sample points are fixed")
    report = verify_identity(args.identity, nmax)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.to_text())
    return 0 if report.status == "pass" else 1


# The grammar. A command is (help, handler, positional, options), with the
# positional as (name, choices) or None. An option is (name, kind, default,
# help, metavar), spelled "--" + name; its kind is bool for a flag, int, str
# or a tuple of choices.
_FORMAT_AND_CACHE = (
    ("format", ("csv", "tsv", "json"), "csv", "output format", None),
    ("cache", str, None, "ignored; no file is read or written", "PATH"),
)

_COMMANDS = {
    "stirling2": ("level-2 triangle rows", cmd_stirling2, None, (
        *_FORMAT_AND_CACHE,
        ("nmax", int, 12, "last row to print", None),
        ("signed", bool, False, "apply the sign (-1)^(n-m) to each entry", None),
    )),
    "polycauchy": ("sequence values C_{2n}^(k)", cmd_polycauchy, None, (
        *_FORMAT_AND_CACHE,
        ("k", int, 1, "weight index, any integer", None),
        ("nmax", int, 12, "last index to print", None),
        ("route", ("formula", "series", "both"), "formula",
         "computation route; 'both' prints the two side by side", None),
    )),
    "series": ("ordinary coefficients of a builtin series", cmd_series, ("name", BUILTIN_SERIES_NAMES), (
        *_FORMAT_AND_CACHE,
        ("order", int, _DEFAULT_SERIES_ORDER, "truncation order of the printed series", "M"),
        ("k", int, None, "weight for the lif families", None),
    )),
    "verify": ("sweep one identity and report", cmd_verify, ("identity", IDENTITY_NAMES), (
        *_FORMAT_AND_CACHE,
        ("nmax", int, None, f"sweep bound (default {DEFAULT_NMAX}); conjecture identities take none", None),
    )),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``: help, usage errors and every spelling it accepts."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polycauchy2",
        description="Exact tables and identity checks for the level-2 poly-Cauchy sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, positional, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kind, default, option_help, metavar in options:
            if kind is bool:
                p.add_argument(f"--{name}", action="store_true", help=option_help)
            elif isinstance(kind, tuple):
                p.add_argument(f"--{name}", choices=kind, default=default, help=option_help)
            else:
                p.add_argument(f"--{name}", type=kind, default=default, metavar=metavar, help=option_help)
        if positional is not None:
            p.add_argument(positional[0], choices=positional[1])
        p.set_defaults(handler=handler)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The args of a plain call, equal to argparse's, or None to leave argv to argparse.

    Plain is a flag, ``--opt value`` with a value that does not start with
    "-" (an int may be ASCII digits after one "-"), and one positional from
    its choices. A repeated option keeps its last value.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, positional, options = _COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    values.update((name, default) for name, _, default, _, _ in options)
    kinds = {f"--{name}": (name, kind) for name, kind, _, _, _ in options}
    tokens = iter(argv[1:])
    for token in tokens:
        name, kind = kinds.get(token, (None, None))
        if kind is bool:
            values[name] = True
        elif kind is not None:
            value = next(tokens, None)
            if value is None:
                return None
            if kind is int:
                digits = value.removeprefix("-")
                if not (digits.isascii() and digits.isdigit()):
                    return None
                try:
                    value = int(value)
                except ValueError:  # past the int-from-text digit limit
                    return None
            elif value.startswith("-") or (kind is not str and value not in kind):
                return None
            values[name] = value
        elif positional is not None and positional[0] not in values and token in positional[1]:
            values[positional[0]] = token
        else:
            return None
    if positional is not None and positional[0] not in values:
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    nmax = getattr(args, "nmax", None)
    if nmax is not None and nmax < 0:
        build_parser().error("--nmax must be >= 0")
    if getattr(args, "order", 0) < 0:
        build_parser().error("--order must be >= 0")
    # Exact values routinely pass Python's default 4300-digit limit on
    # int -> text conversion in output.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ValueError as exc:
        build_parser().error(str(exc))
    except ArithmeticError as exc:
        print(f"polycauchy2: internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early. Point stdout at devnull so the interpreter's
        # own flush at exit cannot raise again, and exit as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
