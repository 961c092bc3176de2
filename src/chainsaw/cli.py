"""Command-line surface: generate graphs, count, evaluate sequences, verify.

Exit status contract: 0 success, 1 verification disagreement, 2 usage
error, 3 resource cap (oracle cap exceeded, computation abandoned, out of
memory, or a result of more than ``counting.MAX_DIGITS`` digits to print).
All output is written to stdout and is byte-deterministic for identical
invocations. Every integer printed goes through ``counting.decimal_text``,
so no interpreter setting changes what prints.
"""

from __future__ import annotations

import argparse
import json
import sys

from .counting import (
    ComputationAbandoned,
    OracleCapExceeded,
    closed_form_count,
    closed_form_polynomial,
    count_brute_force,
    count_via_elimination,
    cycle_coefficients,
    decimal_text,
    family_graph,
    path_coefficients,
)
from .graphs import (
    ChainsawParams,
    EXPORT_FORMATS,
    Graph,
    export_graph,
    graph_from_json,
    make_cycle,
    make_path,
)
from .sequences import METHODS, SequenceSpec, evaluate
from .verify import InjectedGraph, run_verification

GRAPH_FAMILIES = ("path", "cycle", "chainsaw", "broken")
COUNT_METHODS = ("brute", "eliminate", "closed-form")


def _family_params(family: str, n: int, a: int | None, b: int | None) -> ChainsawParams | None:
    """Checked (n, a, b) for chainsaw and broken; None for path and cycle, which take no --a/--b."""
    if family in ("path", "cycle"):
        if a is not None or b is not None:
            raise ValueError("--a and --b apply only to the chainsaw and broken families")
        return None
    if a is None or b is None:
        raise ValueError(f"family {family!r} requires --a and --b")
    return ChainsawParams(n, a, b)


def _build_graph(family: str, n: int, a: int | None, b: int | None) -> Graph:
    params = _family_params(family, n, a, b)
    if params is None:
        return make_path(n) if family == "path" else make_cycle(n)
    return family_graph(params, family)


def _plain_coefficients(family: str, n: int) -> list[int]:
    return path_coefficients(n) if family == "path" else cycle_coefficients(n)


def _closed_form(family: str, n: int, a: int | None, b: int | None) -> int:
    params = _family_params(family, n, a, b)
    if params is None:
        return sum(_plain_coefficients(family, n))
    return closed_form_count(params, family)


def _cmd_generate(args) -> int:
    graph = _build_graph(args.family, args.n, args.a, args.b)
    sys.stdout.write(export_graph(graph, args.format))
    return 0


def _cmd_count(args) -> int:
    if args.method == "closed-form":
        value = _closed_form(args.family, args.n, args.a, args.b)
    else:
        engine = count_brute_force if args.method == "brute" else count_via_elimination
        value = engine(_build_graph(args.family, args.n, args.a, args.b))
    print(decimal_text(value))
    return 0


def _cmd_poly(args) -> int:
    params = _family_params(args.family, args.n, args.a, args.b)
    if params is None:
        coefficients = _plain_coefficients(args.family, args.n)
    else:
        coefficients = closed_form_polynomial(params, args.family)
    print(decimal_text(coefficients))
    return 0


def _cmd_seq(args) -> int:
    spec = SequenceSpec(args.kind, args.n, args.p, args.q, args.method)
    print(decimal_text(evaluate(spec)))
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
    print(json.dumps(report, indent=2))
    return 0 if report["summary"]["all_pass"] else 1


def _add_family_options(sub) -> None:
    sub.add_argument("--family", required=True, choices=GRAPH_FAMILIES)
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
    seq.add_argument("--kind", required=True, choices=("U", "V", "D", "E"))
    seq.add_argument("--n", required=True, type=int)
    seq.add_argument("--p", required=True, type=int)
    seq.add_argument("--q", required=True, type=int)
    seq.add_argument("--method", default="recurrence", choices=METHODS)
    seq.set_defaults(handler=_cmd_seq)

    verify = commands.add_parser("verify", help="run the identity sweep, emit a JSON report")
    verify.add_argument("--n-max", default=8, type=int)
    verify.add_argument("--a-max", default=4, type=int)
    verify.add_argument("--brute-cap", type=int, help="default: the oracle's cap")
    verify.add_argument("--inject-graph", help="path to a json graph export to cross-check")
    verify.add_argument("--inject-family", choices=("chainsaw", "broken"))
    verify.add_argument("--inject-n", type=int)
    verify.add_argument("--inject-a", type=int)
    verify.add_argument("--inject-b", type=int)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
