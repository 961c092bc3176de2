"""Spans around the calls into chainsaw's layers, recorded from outside.

The tracer replaces each layer's public functions at every module that
binds them (``cli``, ``verify`` and ``counting`` re-bind names they import,
and ``counting`` reaches the kernels through the ``_kernels`` module), so
every call from one layer into another opens a span. A span is
``[name, start, end, parent, request, attrs]``; spans stay in memory and
are handed over once, when the worker process ends. Self time is a span's
duration minus the durations of its children, which never overlap because
the program is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
import types

WRAPPED = {  # defining module -> public functions that open a span
    "chainsaw.cli": ("main",),
    "chainsaw.verify": ("run_verification",),
    "chainsaw.counting": (
        "count_brute_force",
        "brute_force_strata",
        "independence_polynomial",
        "count_via_elimination",
        "stratified_closed_form",
        "closed_form_count",
        "path_coefficients",
        "cycle_coefficients",
    ),
    "chainsaw._kernels": ("count_independent", "strata_by_chain_count"),
    "chainsaw.sequences": ("evaluate", "dickson_D_sum", "dickson_E_sum"),
    "chainsaw.graphs": ("make_path", "make_cycle", "make_chainsaw", "make_broken_chainsaw"),
}
BINDING_MODULES = ("chainsaw.cli", "chainsaw.verify", "chainsaw.counting", "chainsaw._kernels")
LAYER = {"chainsaw._kernels": "kernels"}


def _terms(name: str, args: tuple) -> int:
    if name == "stratified_closed_form":
        params, family = args[0], args[1]
        return (params.n if family == "chainsaw" else params.n + 1) // 2 + 1
    n = args[0]
    return (n + 1) // 2 + 1 if name == "path_coefficients" else n // 2 + 1


def _attrs(layer: str, name: str, args: tuple, result) -> dict | None:
    """Work counts of one call, read from its arguments and result."""
    if layer == "kernels":
        return {"subsets": 1 << (args[2] if name == "count_independent" else args[3])}
    if name == "independence_polynomial":
        return {"vertices": args[0].order}
    if name in ("stratified_closed_form", "path_coefficients", "cycle_coefficients"):
        return {"terms": _terms(name, args)}
    if layer == "sequences":
        method = args[0].method if name == "evaluate" else "summation"
        return {"method": method, "bits": abs(result).bit_length()}
    if layer == "graphs":
        return {"graph": result}  # sized when the request ends, outside any span
    if name == "run_verification":
        return {"checks": len(result["checks"])}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._first = 0
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        span_name = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self._request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _attrs(layer, name, args, result)
            return result

        return traced

    def install(self) -> None:
        for modname in BINDING_MODULES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__
                if value.__name__ in WRAPPED.get(owner, ()):
                    layer = LAYER.get(owner, owner.rsplit(".", 1)[-1])
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, layer))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def begin_request(self) -> None:
        self._request += 1
        self._first = len(self.spans)

    def end_request(self, start: float, end: float) -> None:
        """Close the request with a root span over [start, end] that adopts its top-level spans."""
        root = len(self.spans)
        for span in self.spans[self._first :]:
            if span[3] == -1:
                span[3] = root
            attrs = span[5]
            if attrs and "graph" in attrs:
                g = attrs.pop("graph")
                attrs.update(vertices=g.order, edges=g.size)
        self.spans.append(["request", start, end, -1, self._request, None])

    def rows(self) -> list[dict]:
        """The spans as JSON-ready rows; `parent` is an index into the same list."""
        keys = ("name", "start", "end", "parent", "request", "attrs")
        return [dict(zip(keys, span)) for span in self.spans]


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def request_balance(spans: list[list], selfs: list[float]) -> float:
    """Largest gap, over requests, between the sum of self times and the request's wall time."""
    total: dict[int, float] = {}
    wall: dict[int, float] = {}
    for span, own in zip(spans, selfs):
        total[span[4]] = total.get(span[4], 0.0) + own
        if span[0] == "request":
            wall[span[4]] = span[2] - span[1]
    return max((abs(total[r] - wall[r]) for r in wall), default=0.0)


ELIM = ("counting.independence_polynomial", "counting.count_via_elimination")
ORACLE = ("counting.count_brute_force", "counting.brute_force_strata")
STRATA = (
    "counting.stratified_closed_form",
    "counting.closed_form_count",
    "counting.path_coefficients",
    "counting.cycle_coefficients",
)


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and work counts summed over `spans`."""
    selfs = self_times(spans)
    m = {
        "kernels.scan_s": 0.0, "kernels.calls": 0, "kernels.subsets": 0,
        "counting.oracle_s": 0.0,
        "counting.elim_s": 0.0, "counting.elim_calls": 0, "counting.elim_vertices": 0,
        "counting.strata_s": 0.0, "counting.strata_terms": 0,
        "sequences.matrix_s": 0.0, "sequences.recurrence_s": 0.0, "sequences.summation_s": 0.0,
        "sequences.eval_calls": 0, "sequences.result_bits": 0,
        "graphs.build_s": 0.0, "graphs.vertices": 0, "graphs.edges": 0,
        "verify.self_s": 0.0, "verify.checks": 0,
        "cli.self_s": 0.0,
    }
    for span, own in zip(spans, selfs):
        name, attrs = span[0], span[5] or {}
        if name.startswith("kernels."):
            m["kernels.scan_s"] += own
            m["kernels.calls"] += 1
            m["kernels.subsets"] += attrs.get("subsets", 0)
        elif name in ORACLE:
            m["counting.oracle_s"] += own
        elif name in ELIM:
            m["counting.elim_s"] += own
            if "vertices" in attrs:
                m["counting.elim_calls"] += 1
                m["counting.elim_vertices"] += attrs["vertices"]
        elif name in STRATA:
            m["counting.strata_s"] += own
            m["counting.strata_terms"] += attrs.get("terms", 0)
        elif name.startswith("sequences."):
            m[f"sequences.{attrs.get('method', 'matrix')}_s"] += own
            m["sequences.eval_calls"] += 1
            m["sequences.result_bits"] += attrs.get("bits", 0)
        elif name.startswith("graphs."):
            m["graphs.build_s"] += own
            m["graphs.vertices"] += attrs.get("vertices", 0)
            m["graphs.edges"] += attrs.get("edges", 0)
        elif name == "verify.run_verification":
            m["verify.self_s"] += own
            m["verify.checks"] += attrs.get("checks", 0)
        elif name == "cli.main":
            m["cli.self_s"] += own
    return m


def layer_metrics(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Per-layer values of one pass over the plan, from totals over `passes` traced passes."""
    out = {k: v / passes for k, v in totals.items()}
    out["kernels.subsets_per_s"] = _rate(totals["kernels.subsets"], totals["kernels.scan_s"])
    out["counting.elim_vertices_per_s"] = _rate(totals["counting.elim_vertices"], totals["counting.elim_s"])
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0
