"""Command-line surface: generate graphs, count, evaluate sequences, verify.

Exit status contract: 0 success, 1 verification disagreement, 2 usage
error, 3 resource cap (oracle cap exceeded, computation abandoned, out of
memory, or a result of more than ``counting.MAX_DIGITS`` digits to print).
Results go to stdout, byte-deterministic for identical invocations, and
errors to stderr. The oracle's cap is ``verify --brute-cap``, 26 by default;
``count --method brute`` holds it at 26, checked before the graph is built.
Every integer printed goes through ``counting.decimal_text``, except a
``seq --method matrix`` value and a ``count --method closed-form`` count,
V_n(a, -b) or U_{n+2}(a, -b), which ``counting.sequence_text`` computes
on exact Decimals and prints by str; so no interpreter setting changes
what prints. The closed-form count runs no Dickson summation
(``counting.closed_form_count``). ``poly`` runs neither that nor the
doubling: at a >= 2 its coefficients come from the linear recurrence
that the differential system of V_N(p, q) and U_N(p, q) gives
(``counting._lucas_coefficients``), and each prints through
``decimal_text``. The ``verify`` report prints through
``verify.report_text``, whose bytes are those of
``json.dumps(report, indent=2)``.

``main`` may be called any number of times in one process. It builds its
parser with ``build_parser`` on the first call and parses every later
``argv`` with that parser; a parse leaves no state behind, so each call's
output depends only on its own ``argv``, as in a fresh process. A command
request gets one argparse pass: when ``argv[0]`` names a command, that
command's parser reads the rest, and what it leaves over is the top-level
parser's "unrecognized arguments" error, so the messages and exit codes
are those of parsing the whole ``argv`` at the top level. The top-level
parser runs only for help, a missing command or an unknown one. Option
choices are read from their tables when the parser is built: ``--family``'s
from ``_UNIT_ROWS`` and ``counting._ENCODING``.
"""

from __future__ import annotations

import argparse
import sys

from .counting import (
    DEFAULT_BRUTE_CAP,
    ComputationAbandoned,
    OracleCapExceeded,
    _ENCODING,
    _check_cap,
    _check_n,
    _family,
    _family_order,
    closed_form_polynomial,
    count_brute_force,
    count_via_elimination,
    decimal_text,
    family_graph,
    sequence_text,
)
from .graphs import ChainsawParams, EXPORT_FORMATS, export_graph, graph_from_json
from .sequences import KINDS, METHODS, SequenceSpec
from .verify import InjectedGraph, report_text, run_verification

COUNT_METHODS = ("brute", "eliminate", "closed-form")
_UNIT_ROWS = {"path": "broken", "cycle": "chainsaw"}  # the a = b = 1 rows of the family table


def _family_params(args) -> tuple[ChainsawParams, str]:
    """Checked (params, table family): path and cycle, which take no --a/--b, are P and C at (n, 1, 1).

    Their n is checked here, so an error names the family typed, not its row or the unit blades.
    """
    if args.family in _UNIT_ROWS:
        if args.a is not None or args.b is not None:
            raise ValueError("--a and --b apply only to the chainsaw and broken families")
        row = _UNIT_ROWS[args.family]
        _check_n(args.family, args.n, _ENCODING[row][1])
        return ChainsawParams(args.n, 1, 1), row
    if args.a is None or args.b is None:
        raise ValueError(f"family {args.family!r} requires --a and --b")
    return ChainsawParams(args.n, args.a, args.b), args.family


def _cmd_generate(args) -> int:
    sys.stdout.write(export_graph(family_graph(*_family_params(args)), args.format))
    return 0


def _cmd_count(args) -> int:
    params, family = _family_params(args)
    if args.method == "closed-form":  # D_n(a, -b) or E_{n+1}(a, -b) as `seq --method matrix` prints it
        kind, shift = _family(params, family)
        print(sequence_text(SequenceSpec(kind, params.n + shift, params.a, -params.b, "matrix")))
        return 0
    if args.method == "brute":
        _check_cap(_family_order(params, family), DEFAULT_BRUTE_CAP)  # before the graph is built
        value = count_brute_force(family_graph(params, family))
    else:
        value = count_via_elimination(family_graph(params, family))
    print(decimal_text(value))
    return 0


def _cmd_poly(args) -> int:
    print(decimal_text(closed_form_polynomial(*_family_params(args))))
    return 0


def _cmd_seq(args) -> int:
    print(sequence_text(SequenceSpec(args.kind, args.n, args.p, args.q, args.method)))
    return 0


def _load_injection(args) -> InjectedGraph | None:
    fields = (args.inject_graph, args.inject_family, args.inject_n, args.inject_a, args.inject_b)
    if all(f is None for f in fields):
        return None
    if any(f is None for f in fields):
        raise ValueError(
            "--inject-graph, --inject-family, --inject-n, --inject-a and --inject-b "
            "must be given together"
        )
    with open(args.inject_graph, "r", encoding="utf-8") as fh:
        graph = graph_from_json(fh.read())
    return InjectedGraph(
        graph=graph,
        family=args.inject_family,
        params=ChainsawParams(args.inject_n, args.inject_a, args.inject_b),
    )


def _cmd_verify(args) -> int:
    report = run_verification(
        n_max=args.n_max,
        a_max=args.a_max,
        brute_cap=args.brute_cap,
        inject=_load_injection(args),
    )
    print(report_text(report))
    return 0 if report["summary"]["all_pass"] else 1


def _add_family_options(sub) -> None:
    sub.add_argument("--family", required=True, choices=(*_UNIT_ROWS, *_ENCODING))
    sub.add_argument("--n", required=True, type=int)
    sub.add_argument("--a", type=int)
    sub.add_argument("--b", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsaw",
        description="Exact independent-set counts on chainsaw graph families, "
        "with Lucas/Dickson cross-checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="print a generated graph")
    _add_family_options(gen)
    gen.add_argument("--format", default="edge-list", choices=EXPORT_FORMATS)
    gen.set_defaults(handler=_cmd_generate)

    count = commands.add_parser("count", help="count independent sets")
    _add_family_options(count)
    count.add_argument("--method", default="eliminate", choices=COUNT_METHODS)
    count.set_defaults(handler=_cmd_count)

    poly = commands.add_parser("poly", help="print independence polynomial coefficients")
    _add_family_options(poly)
    poly.set_defaults(handler=_cmd_poly)

    seq = commands.add_parser("seq", help="evaluate a Lucas or Dickson value")
    seq.add_argument("--kind", required=True, choices=KINDS)
    seq.add_argument("--n", required=True, type=int)
    seq.add_argument("--p", required=True, type=int)
    seq.add_argument("--q", required=True, type=int)
    seq.add_argument("--method", default="recurrence", choices=METHODS)
    seq.set_defaults(handler=_cmd_seq)

    verify = commands.add_parser("verify", help="run the identity sweep, emit a JSON report")
    verify.add_argument("--n-max", default=8, type=int)
    verify.add_argument("--a-max", default=4, type=int)
    verify.add_argument("--brute-cap", default=DEFAULT_BRUTE_CAP, type=int, help="default: %(default)s")
    verify.add_argument("--inject-graph", help="path to a json graph export to cross-check")
    verify.add_argument("--inject-family", choices=tuple(_ENCODING))
    verify.add_argument("--inject-n", type=int)
    verify.add_argument("--inject-a", type=int)
    verify.add_argument("--inject-b", type=int)
    verify.set_defaults(handler=_cmd_verify)

    parser._commands = commands.choices  # each command's parser by name, for main's one-pass dispatch
    return parser


_parser: argparse.ArgumentParser | None = None  # main's parser, built on its first call


def main(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        argv = sys.argv[1:] if argv is None else list(argv)
        command = _parser._commands.get(argv[0]) if argv else None
        if command is None:  # help, no command or an unknown one: the top-level parse and its messages
            args = _parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                _parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args.handler(args)
    except (OracleCapExceeded, ComputationAbandoned) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
