"""Cross-checking sweep over the chainsaw families and sequence engines.

``run_verification`` walks every (n, a, b) with 1 <= n <= n_max and
1 <= b <= a <= a_max and records one check row per identity instance:
left value, right value, pass flag, all values as decimal strings (by
``counting.decimal_text``) so a failure is reproducible from the report
alone. Each row pits two different routes, and no two rows repeat the
same comparison:

* ``chainsaw count`` / ``broken count``: elimination on the generated
  graph == the stratified closed form, and the closed form == the Lucas
  value V_n(a, -b) or U_{n+2}(a, -b) by index doubling, computed once per
  (n, a, b) and shared with the ``lucas`` row;
* ``chainsaw strata`` / ``broken strata``: the brute-force oracle's strata
  == the closed-form strata, for every graph within the oracle's cap;
* ``lucas V`` / ``lucas U``: the three-term recurrence == index doubling;
* ``path coefficients`` / ``cycle coefficients``: elimination on the
  n-vertex path P(n, 1, 1) / cycle C(n, 1, 1) == its closed-form strata,
  which at a = 1 are the binomial terms;
* optionally, one externally injected graph: elimination == the closed
  form its declared parameters predict (the negative-control hook).

The Dickson values are not swept on their own: the closed form sums the
Dickson summands, and D_n(a, -b) = V_n(a, -b), E_{n+1}(a, -b) =
U_{n+2}(a, -b). The path and cycle counts are the a = b = 1 grid rows.

Report assembly is sequential and sorted by construction, so identical
invocations serialize to identical bytes. ``report_text`` is that
serialization: byte for byte ``json.dumps(report, indent=2)``, written
without the pure-Python encoder that ``indent`` selects. Each check row
is one f-string template whose strings go through
``json.encoder.encode_basestring_ascii``, the escaper ``json.dumps`` uses,
and whose ints go through ``str``; the small ``parameters`` and
``summary`` objects still go through ``json.dumps`` and are re-indented.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .counting import (
    DEFAULT_BRUTE_CAP,
    _check_cap,
    brute_force_strata,
    closed_form_count,
    count_via_elimination,
    decimal_text,
    family_graph,
    independence_polynomial,
    stratified_closed_form,
)
from .graphs import ChainsawParams, Graph, _check_int, _Frozen
from .sequences import SequenceSpec, evaluate


class InjectedGraph(_Frozen):
    """An externally supplied graph plus the family parameters it claims."""

    __slots__ = ("graph", "family", "params")

    def __init__(self, graph: Graph, family: str, params: ChainsawParams) -> None:
        self._init(graph, family, params)


def _strata_str(table: dict[int, int]) -> str:
    pairs = sorted(table.items())
    return "{" + ", ".join(f"{decimal_text(t)}: {decimal_text(c)}" for t, c in pairs) + "}"


class _Report:
    def __init__(self) -> None:
        self.checks: list[dict] = []

    def add(self, identity: str, params: dict, left, right) -> None:
        self.checks.append(
            {
                "identity": identity,
                "params": params,
                "left": left if isinstance(left, str) else decimal_text(left),
                "right": right if isinstance(right, str) else decimal_text(right),
                "pass": left == right,
            }
        )

    def finish(self, parameters: dict) -> dict:
        by_identity: dict[str, dict[str, int]] = {}
        failed = 0
        for check in self.checks:
            slot = by_identity.setdefault(check["identity"], {"checks": 0, "failed": 0})
            slot["checks"] += 1
            if not check["pass"]:
                slot["failed"] += 1
                failed += 1
        return {
            "parameters": parameters,
            "checks": self.checks,
            "summary": {
                "total": len(self.checks),
                "failed": failed,
                "by_identity": by_identity,
                "all_pass": failed == 0,
            },
        }


def _sweep_tuple(
    report: _Report, params: ChainsawParams, tag: dict, family: str, lucas_name: str, lucas: int, brute_cap: int
) -> None:
    """The rows of one family at `params`: elimination, closed form and the Lucas value agree."""
    graph = family_graph(params, family)
    elim = count_via_elimination(graph)
    closed = closed_form_count(params, family)
    report.add(f"{family} count: elimination == stratified closed form", tag, elim, closed)
    report.add(f"{family} count: closed form == {lucas_name}", tag, closed, lucas)
    if graph.order <= brute_cap:
        brute = brute_force_strata(graph, cap=brute_cap)
        closed_strata = stratified_closed_form(params, family)
        report.add(
            f"{family} strata: brute force == closed form",
            tag,
            _strata_str(brute),
            _strata_str(closed_strata),
        )


def _sweep_grid_point(report: _Report, params: ChainsawParams, brute_cap: int) -> None:
    """The count, strata and Lucas rows of one (n, a, b); each Lucas value is doubled once."""
    n, a, b = params.n, params.a, params.b
    tag = {"n": n, "a": a, "b": b}
    v = evaluate(SequenceSpec("V", n, a, -b, "matrix"))
    u = evaluate(SequenceSpec("U", n + 2, a, -b, "matrix"))
    _sweep_tuple(report, params, tag, "chainsaw", "V(n, a, -b)", v, brute_cap)
    _sweep_tuple(report, params, tag, "broken", "U(n+2, a, -b)", u, brute_cap)
    for kind, idx, doubled in (("V", n, v), ("U", n + 2, u)):
        rec = evaluate(SequenceSpec(kind, idx, a, -b, "recurrence"))
        report.add(f"lucas {kind}: recurrence == matrix", tag, rec, doubled)


def _sweep_path_cycle(report: _Report, n: int) -> None:
    unit = ChainsawParams(n, 1, 1)
    for label, family in (
        ("path coefficients == C(n-t+1, t)", "broken"),
        ("cycle coefficients == C(n-t, t) + C(n-t-1, t-1)", "chainsaw"),
    ):
        report.add(
            label,
            {"n": n},
            independence_polynomial(family_graph(unit, family)),
            list(stratified_closed_form(unit, family).values()),
        )


def run_verification(
    n_max: int = 8,
    a_max: int = 4,
    brute_cap: int = DEFAULT_BRUTE_CAP,
    inject: InjectedGraph | None = None,
) -> dict:
    """Run the full identity sweep; returns the report as a plain dict.

    Strata rows cover the graphs the oracle admits within `brute_cap`. A
    bound or cap that is not exactly an int is NotAnInt.
    """
    _check_int(n_max, "n_max")
    _check_int(a_max, "a_max")
    if n_max < 1 or a_max < 1:
        raise ValueError(f"sweep bounds must be at least 1, got n_max={n_max}, a_max={a_max}")
    _check_cap(0, brute_cap)  # the cap alone: the empty graph is within any valid one
    # a declaration outside the family's domain, such as C(0, a, b), fails before the sweep
    declared = None if inject is None else closed_form_count(inject.params, inject.family)
    report = _Report()
    for n in range(1, n_max + 1):
        _sweep_path_cycle(report, n)
    for n in range(1, n_max + 1):
        for a in range(1, a_max + 1):
            for b in range(1, a + 1):
                _sweep_grid_point(report, ChainsawParams(n, a, b), brute_cap)
    if inject is not None:
        p = inject.params
        report.add(
            "injected graph count == declared closed form",
            {"family": inject.family, "n": p.n, "a": p.a, "b": p.b},
            count_via_elimination(inject.graph),
            declared,
        )
    return report.finish({"n_max": n_max, "a_max": a_max, "brute_cap": brute_cap})


def _nested(obj: dict) -> str:
    """`obj` as `json.dumps(obj, indent=2)` prints it one level deep in the report."""
    return json.dumps(obj, indent=2).replace("\n", "\n  ")  # escaped strings hold no newline


def _check_text(check: dict) -> str:
    params = ",\n".join(
        f"        {_quote(k)}: {_quote(v) if isinstance(v, str) else v}" for k, v in check["params"].items()
    )
    return f"""    {{
      "identity": {_quote(check["identity"])},
      "params": {{
{params}
      }},
      "left": {_quote(check["left"])},
      "right": {_quote(check["right"])},
      "pass": {"true" if check["pass"] else "false"}
    }}"""


def report_text(report: dict) -> str:
    """A report of `run_verification` as `json.dumps(report, indent=2)`, byte for byte.

    A check row's params are a nonempty dict of ints and strings.
    """
    checks = ",\n".join(map(_check_text, report["checks"]))
    return f"""{{
  "parameters": {_nested(report["parameters"])},
  "checks": [
{checks}
  ],
  "summary": {_nested(report["summary"])}
}}"""
