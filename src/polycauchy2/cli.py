"""Command-line front end: triangle tables, sequence tables, series dumps, verification.

Exit codes are the machine contract: 0 success (or identity pass), 1 identity
failure, 2 usage error, 3 internal error (an ArithmeticError, reported on one
stderr line), 141 stdout closed early (128 + SIGPIPE). Numbers print as
canonical rational text, so identical calls give identical bytes. Every value
is recomputed on every call; ``--cache PATH`` is accepted and ignored.
``stirling2`` finishes its exact arithmetic before it writes one row at a
time, and writes its JSON directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .convolution import DEFAULT_NMAX, IDENTITY_NAMES, verify_identity
from .exact import rational_to_text
from .polycauchy import PolyCauchyTable
from .series import BUILTIN_SERIES_NAMES, builtin_series
from .stirling import level2_text_rows

__all__ = ["build_parser", "main", "entry"]

_FIELD_SEPARATORS = {"csv": ",", "tsv": "\t"}

_DEFAULT_SERIES_ORDER = 40


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "tsv", "json"), default="csv", help="output format"
    )
    common.add_argument("--cache", metavar="PATH", help="ignored; no file is read or written")

    parser = argparse.ArgumentParser(
        prog="polycauchy2",
        description="Exact tables and identity checks for the level-2 poly-Cauchy sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stirling2", parents=[common], help="level-2 triangle rows")
    p.add_argument("--nmax", type=int, default=12, help="last row to print")
    p.add_argument(
        "--signed", action="store_true", help="apply the sign (-1)^(n-m) to each entry"
    )
    p.set_defaults(handler=cmd_stirling2)

    p = sub.add_parser("polycauchy", parents=[common], help="sequence values C_{2n}^(k)")
    p.add_argument("--k", type=int, default=1, help="weight index, any integer")
    p.add_argument("--nmax", type=int, default=12, help="last index to print")
    p.add_argument(
        "--route",
        choices=("formula", "series", "both"),
        default="formula",
        help="computation route; 'both' prints the two side by side",
    )
    p.set_defaults(handler=cmd_polycauchy)

    p = sub.add_parser("series", parents=[common], help="ordinary coefficients of a builtin series")
    p.add_argument("name", choices=BUILTIN_SERIES_NAMES)
    p.add_argument(
        "--order",
        type=int,
        default=_DEFAULT_SERIES_ORDER,
        metavar="M",
        help="truncation order of the printed series",
    )
    p.add_argument("--k", type=int, default=None, help="weight for the lif families")
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("verify", parents=[common], help="sweep one identity and report")
    p.add_argument("identity", choices=IDENTITY_NAMES)
    p.add_argument(
        "--nmax",
        type=int,
        default=None,
        help=f"sweep bound (default {DEFAULT_NMAX}); conjecture identities take none",
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def _emit_table(fmt: str, header: list[str], rows: list[list[str]], json_payload: dict) -> None:
    if fmt == "json":
        print(json.dumps(json_payload))
        return
    sep = _FIELD_SEPARATORS[fmt]
    print(sep.join(header))
    for row in rows:
        print(sep.join(row))


def cmd_stirling2(args: argparse.Namespace) -> int:
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


def cmd_polycauchy(args: argparse.Namespace) -> int:
    if args.route == "both":
        formula = PolyCauchyTable.build(args.nmax, args.k, "formula")
        series = PolyCauchyTable.build(args.nmax, args.k, "series")
        pairs = [
            (
                rational_to_text(formula.value(n, args.k)),
                rational_to_text(series.value(n, args.k)),
            )
            for n in range(args.nmax + 1)
        ]
        _emit_table(
            args.format,
            ["n", "formula", "series"],
            [[str(n), f, s] for n, (f, s) in enumerate(pairs)],
            {
                "k": args.k,
                "nmax": args.nmax,
                "route": "both",
                "values": [
                    {"n": n, "formula": f, "series": s} for n, (f, s) in enumerate(pairs)
                ],
            },
        )
        return 0
    table = PolyCauchyTable.build(args.nmax, args.k, args.route)
    texts = [rational_to_text(table.value(n, args.k)) for n in range(args.nmax + 1)]
    _emit_table(
        args.format,
        ["n", "value"],
        [[str(n), text] for n, text in enumerate(texts)],
        {
            "k": args.k,
            "nmax": args.nmax,
            "route": args.route,
            "values": [{"n": n, "value": text} for n, text in enumerate(texts)],
        },
    )
    return 0


def cmd_series(args: argparse.Namespace) -> int:
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


def cmd_verify(args: argparse.Namespace) -> int:
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    nmax = getattr(args, "nmax", None)
    if nmax is not None and nmax < 0:
        parser.error("--nmax must be >= 0")
    if getattr(args, "order", 0) < 0:
        parser.error("--order must be >= 0")
    # Exact values routinely pass Python's default 4300-digit limit on
    # int -> text conversion in output.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ValueError as exc:
        parser.error(str(exc))
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
