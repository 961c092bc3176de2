"""Command-line surface: generate graphs, count, evaluate sequences, verify, bench.

Exit status contract: 0 success, 1 verification or benchmark disagreement,
2 usage error, 3 resource cap (oracle cap exceeded, computation abandoned, or
a result too long to print).
All output is written to stdout and, timings aside, is byte-deterministic
for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .counting import (
    ComputationAbandoned,
    OracleCapExceeded,
    closed_form_count,
    count_brute_force,
    count_via_elimination,
    cycle_coefficients,
    independence_polynomial,
    path_coefficients,
)
from .graphs import (
    ChainsawParams,
    EXPORT_FORMATS,
    Graph,
    export_graph,
    graph_from_json,
    make_broken_chainsaw,
    make_chainsaw,
    make_cycle,
    make_path,
)
from .sequences import METHODS, SequenceSpec, evaluate
from .verify import InjectedGraph, run_verification

GRAPH_FAMILIES = ("path", "cycle", "chainsaw", "broken")
COUNT_METHODS = ("brute", "eliminate", "closed-form")
BENCH_GRAPH_METHODS = ("brute", "eliminate", "closed-form")


def _build_graph(family: str, n: int, a: int | None, b: int | None) -> Graph:
    if family in ("path", "cycle"):
        if a is not None or b is not None:
            raise ValueError("--a and --b apply only to the chainsaw and broken families")
        return make_path(n) if family == "path" else make_cycle(n)
    if a is None or b is None:
        raise ValueError(f"family {family!r} requires --a and --b")
    params = ChainsawParams(n, a, b)
    return make_chainsaw(params) if family == "chainsaw" else make_broken_chainsaw(params)


def _closed_form(family: str, n: int, a: int | None, b: int | None) -> int:
    if family == "path":
        return sum(path_coefficients(n))
    if family == "cycle":
        return sum(cycle_coefficients(n))
    if a is None or b is None:
        raise ValueError(f"family {family!r} requires --a and --b")
    return closed_form_count(ChainsawParams(n, a, b), family)


def _decimal(value: int) -> str:
    """`value` as decimal text. Past the int-to-str limit that is a resource cap (exit 3)."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ComputationAbandoned(f"result has more than {limit} digits to print") from None


def _cmd_generate(args) -> int:
    graph = _build_graph(args.family, args.n, args.a, args.b)
    sys.stdout.write(export_graph(graph, args.format))
    return 0


def _cmd_count(args) -> int:
    if args.method == "closed-form":
        value = _closed_form(args.family, args.n, args.a, args.b)
    else:
        graph = _build_graph(args.family, args.n, args.a, args.b)
        if args.method == "brute":
            value = count_brute_force(graph)
        else:
            value = count_via_elimination(graph)
    print(_decimal(value))
    return 0


def _cmd_poly(args) -> int:
    graph = _build_graph(args.family, args.n, args.a, args.b)
    print(json.dumps(independence_polynomial(graph)))
    return 0


def _cmd_seq(args) -> int:
    spec = SequenceSpec(args.kind, args.n, args.p, args.q, args.method)
    print(_decimal(evaluate(spec)))
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


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _bench_graph(args) -> tuple[dict, bool]:
    engines = {"brute": count_brute_force, "eliminate": count_via_elimination}
    # Every method is checked before any is timed, so a bad request never
    # leaves a half-run bench behind.
    for m in args.methods:
        if m not in BENCH_GRAPH_METHODS:
            raise ValueError(f"unknown bench method {m!r}; expected one of {BENCH_GRAPH_METHODS}")
    graph = None
    if any(m != "closed-form" for m in args.methods):
        graph = _build_graph(args.family, args.n, args.a, args.b)
    rows = []
    for m in args.methods:
        if m == "closed-form":
            value, seconds = _timed(lambda: _closed_form(args.family, args.n, args.a, args.b))
        else:
            value, seconds = _timed(lambda: engines[m](graph))
        rows.append({"method": m, "seconds": round(seconds, 6), "value": str(value)})
    instance = {"family": args.family, "n": args.n}
    if args.a is not None:
        instance.update(a=args.a, b=args.b)
    agree = len({row["value"] for row in rows}) <= 1
    return {"instance": instance, "results": rows, "agree": agree}, agree


def _bench_seq(args) -> tuple[dict, bool]:
    if args.kind is None or args.p is None or args.q is None:
        raise ValueError("bench --family seq requires --kind, --p and --q")
    rows = []
    for m in args.methods:
        if m not in METHODS:
            raise ValueError(f"unknown sequence method {m!r}; expected one of {METHODS}")
        spec = SequenceSpec(args.kind, args.n, args.p, args.q, m)
        value, seconds = _timed(lambda: evaluate(spec))
        rows.append({"method": m, "seconds": round(seconds, 6), "value": str(value)})
    # Self-consistency protocol: for indices too large to re-run term by
    # term, matrix and recurrence are compared at a short prefix checkpoint.
    check_n = min(args.n, 1000)
    mat = evaluate(SequenceSpec(args.kind, check_n, args.p, args.q, "matrix"))
    rec = evaluate(SequenceSpec(args.kind, check_n, args.p, args.q, "recurrence"))
    checkpoint = {"n": check_n, "matrix": str(mat), "recurrence": str(rec), "agree": mat == rec}
    agree = len({row["value"] for row in rows}) <= 1 and checkpoint["agree"]
    instance = {"family": "seq", "kind": args.kind, "n": args.n, "p": args.p, "q": args.q}
    return {"instance": instance, "results": rows, "checkpoint": checkpoint, "agree": agree}, agree


def _cmd_bench(args) -> int:
    if args.family == "seq":
        report, agree = _bench_seq(args)
    else:
        report, agree = _bench_graph(args)
    print(json.dumps(report, indent=2))
    return 0 if agree else 1


def _add_family_options(sub, families=GRAPH_FAMILIES) -> None:
    sub.add_argument("--family", required=True, choices=families)
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
    verify.add_argument("--brute-cap", default=24, type=int)
    verify.add_argument("--inject-graph", help="path to a json graph export to cross-check")
    verify.add_argument("--inject-family", choices=("chainsaw", "broken"))
    verify.add_argument("--inject-n", type=int)
    verify.add_argument("--inject-a", type=int)
    verify.add_argument("--inject-b", type=int)
    verify.set_defaults(handler=_cmd_verify)

    bench = commands.add_parser("bench", help="time engines on one instance")
    _add_family_options(bench, GRAPH_FAMILIES + ("seq",))
    bench.add_argument("--kind", choices=("U", "V", "D", "E"))
    bench.add_argument("--p", type=int)
    bench.add_argument("--q", type=int)
    bench.add_argument("--methods", required=True, nargs="+")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    # Sequence values at large indices run to hundreds of thousands of
    # digits; lift the interpreter's int-to-str guard so they print, and
    # give the caller's value back afterwards (0 means it has no guard).
    old_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old_digits:
        sys.set_int_max_str_digits(max(old_digits, 2_000_000))
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (OracleCapExceeded, ComputationAbandoned) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if old_digits:
            sys.set_int_max_str_digits(old_digits)


if __name__ == "__main__":
    sys.exit(main())
