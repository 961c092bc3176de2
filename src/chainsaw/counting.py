"""Exact independent-set counting engines.

Three mutually independent routes, cross-checked by the verification sweep:

* ``count_brute_force`` / ``brute_force_strata``: every independent set
  counted from the definition by the meet-in-the-middle mask kernel
  (two half-size subset tables joined by a subset-sum transform). This is
  the oracle; it refuses graphs above a configurable vertex cap.
* ``independence_polynomial`` / ``count_via_elimination``: the branching
  identity I(G) = I(G - v) + x * I(G - N[v]), with looped vertices dropped
  up front, multiplication across connected components, and memoization
  keyed on the induced vertex subset.
* ``stratified_closed_form`` / ``closed_form_count``: chainsaw-family
  closed forms assembled from binomial coefficients, one entry per number
  of chain vertices used.

Every count is an exact Python int; nothing here touches floats or
fixed-width arithmetic.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

from . import _kernels
from .graphs import CHAIN, ChainsawParams, Graph, make_broken_chainsaw, make_chainsaw
from .sequences import SequenceSpec, binom, evaluate

DEFAULT_BRUTE_CAP = 26
BRUTE_CAP_ENV = "CHAINSAW_BRUTE_CAP"

DEFAULT_MAX_STATES = 1_000_000

FAMILIES = ("chainsaw", "broken")

PivotRule = Callable[[int, list[int]], int]


class OracleCapExceeded(RuntimeError):
    """Brute-force enumeration was asked for a graph above the vertex cap."""


class ComputationAbandoned(RuntimeError):
    """The elimination engine hit its resource budget before finishing."""


def _resolve_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(BRUTE_CAP_ENV, "").strip()
    return int(env) if env else DEFAULT_BRUTE_CAP


def _adjacency_masks(g: Graph) -> list[int]:
    return [sum(1 << u for u in g.adjacency[v]) for v in range(g.order)]


def _check_cap(g: Graph, cap: int | None) -> None:
    limit = _resolve_cap(cap)
    if g.order > limit:
        raise OracleCapExceeded(
            f"oracle cap exceeded: graph has {g.order} vertices, cap is {limit}"
        )


def count_brute_force(g: Graph, *, cap: int | None = None) -> int:
    """i(G) from the definition, by the oracle kernel. The empty set always counts."""
    _check_cap(g, cap)
    loop_mask = sum(1 << v for v in g.loops)
    return sum(_kernels.strata_by_chain_count(_adjacency_masks(g), loop_mask, 0, g.order))


def brute_force_strata(g: Graph, *, cap: int | None = None) -> dict[int, int]:
    """Independent sets keyed by how many chain-role vertices they contain."""
    _check_cap(g, cap)
    loop_mask = sum(1 << v for v in g.loops)
    chain_mask = sum(1 << v for v in g.chain_vertices())
    counts = _kernels.strata_by_chain_count(_adjacency_masks(g), loop_mask, chain_mask, g.order)
    return {t: c for t, c in enumerate(counts) if c}


def _components(mask: int, adj: list[int]) -> list[int]:
    comps = []
    rem = mask
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            grown = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                grown |= adj[low.bit_length() - 1]
            frontier = grown & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _max_degree_pivot(mask: int, adj: list[int]) -> int:
    best, best_deg = -1, -1
    m = mask
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        deg = (adj[v] & mask).bit_count()
        if deg > best_deg:
            best, best_deg = v, deg
    return best


def _poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        if c:
            for j, d in enumerate(q):
                out[i + j] += c * d
    return tuple(out)


def independence_polynomial(
    g: Graph,
    *,
    pivot_rule: PivotRule | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[int]:
    """Exact coefficients [i_0(G), i_1(G), ...] of the independence polynomial.

    Looped vertices are discarded first (they join no independent set).
    Each connected component is solved separately and the component
    polynomials multiplied. Within a component the pivot v (by default a
    maximum-degree vertex, ties to the lowest index) splits the count into
    sets avoiding v and sets containing v:

        I(G) = I(G - v) + x * I(G - N[v])

    Subproblems are memoized on the induced vertex subset, encoded as a
    bitmask over the original vertex numbering. Exhausting ``max_states``
    memo entries (or the interpreter stack) raises ComputationAbandoned
    rather than ever returning a wrong answer.
    """
    adj = _adjacency_masks(g)
    pivot = pivot_rule or _max_degree_pivot
    live = 0
    for v in range(g.order):
        if v not in g.loops:
            live |= 1 << v
    memo: dict[int, tuple[int, ...]] = {}

    def poly(mask: int) -> tuple[int, ...]:
        if mask == 0:
            return (1,)
        cached = memo.get(mask)
        if cached is not None:
            return cached
        comps = _components(mask, adj)
        if len(comps) > 1:
            result = (1,)
            for comp in comps:
                result = _poly_mul(result, poly(comp))
        else:
            v = pivot(mask, adj)
            without_v = poly(mask & ~(1 << v))
            excl_closed = poly(mask & ~(adj[v] | (1 << v)))
            out = [0] * max(len(without_v), len(excl_closed) + 1)
            for i, c in enumerate(without_v):
                out[i] += c
            for i, c in enumerate(excl_closed):
                out[i + 1] += c
            result = tuple(out)
        if len(memo) >= max_states:
            raise ComputationAbandoned(
                f"elimination abandoned after {max_states} memo entries"
            )
        memo[mask] = result
        return result

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * g.order + 200))
    try:
        return list(poly(live))
    except RecursionError as exc:
        raise ComputationAbandoned("elimination abandoned: recursion too deep") from exc
    finally:
        sys.setrecursionlimit(old_limit)


def count_via_elimination(
    g: Graph,
    *,
    pivot_rule: PivotRule | None = None,
    max_states: int = DEFAULT_MAX_STATES,
) -> int:
    """i(G) as the coefficient sum of the independence polynomial."""
    return sum(independence_polynomial(g, pivot_rule=pivot_rule, max_states=max_states))


def path_coefficient(n: int, t: int) -> int:
    """Independent sets of size t in the n-vertex path: C(n-t+1, t)."""
    return binom(n - t + 1, t)


def cycle_coefficient(n: int, t: int) -> int:
    """Independent sets of size t in the n-vertex cycle (n >= 1).

    The textbook weight n/(n-t) * C(n-t, t) is evaluated as
    C(n-t, t) + C(n-t-1, t-1), the split into sets avoiding and containing
    a fixed vertex, so the arithmetic never leaves the integers. Values of
    t beyond floor(n/2) fall out as 0; t = n (where the textbook form
    degenerates) cannot carry a nonzero set for n > 1.
    """
    if n < 1:
        raise ValueError(f"cycle length must be at least 1, got {n}")
    return binom(n - t, t) + binom(n - t - 1, t - 1)


def path_coefficients(n: int) -> list[int]:
    """Full coefficient list for the n-vertex path, t = 0..floor((n+1)/2)."""
    return [path_coefficient(n, t) for t in range((n + 1) // 2 + 1)]


def cycle_coefficients(n: int) -> list[int]:
    """Full coefficient list for the n-vertex cycle, t = 0..floor(n/2)."""
    if n < 1:
        raise ValueError(f"cycle length must be at least 1, got {n}")
    return [cycle_coefficient(n, t) for t in range(n // 2 + 1)]


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def stratified_closed_form(params: ChainsawParams, family: str) -> dict[int, int]:
    """Closed-form strata: entry t counts independent sets using t chain vertices.

    chainsaw: cycle_coefficient(n, t) * b^t * a^(n-2t)      for t <= floor(n/2)
    broken:   path_coefficient(n, t)  * b^t * a^(n-2t+1)    for t <= floor((n+1)/2)

    Picking t pairwise non-adjacent chain vertices leaves t blades with b
    usable states and the remaining blades with a (one blade vertex or
    none), which is where the powers come from.
    """
    _check_family(family)
    n, a, b = params.n, params.a, params.b
    if family == "chainsaw":
        return {
            t: cycle_coefficient(n, t) * b**t * a ** (n - 2 * t)
            for t in range(n // 2 + 1)
        }
    return {
        t: path_coefficient(n, t) * b**t * a ** (n - 2 * t + 1)
        for t in range((n + 1) // 2 + 1)
    }


def closed_form_count(params: ChainsawParams, family: str, *, method: str = "strata") -> int:
    """i(C(n,a,b)) or i(P(n,a,b)) in closed form.

    method="strata" sums the stratified closed form. method="sequence"
    evaluates the equivalent Lucas value (V_n(a,-b) for chainsaws,
    U_{n+2}(a,-b) for broken chainsaws) by matrix powering, which is the
    route that stays fast for very large n. The two routes are checked
    against each other by the verification sweep, never assumed equal here.
    """
    _check_family(family)
    if method == "strata":
        return sum(stratified_closed_form(params, family).values())
    if method == "sequence":
        n, a, b = params.n, params.a, params.b
        if family == "chainsaw":
            return evaluate(SequenceSpec("V", n, a, -b, "matrix"))
        return evaluate(SequenceSpec("U", n + 2, a, -b, "matrix"))
    raise ValueError(f"unknown closed-form method {method!r}; expected 'strata' or 'sequence'")


def family_graph(params: ChainsawParams, family: str) -> Graph:
    """The generated graph a closed form refers to."""
    _check_family(family)
    if family == "chainsaw":
        return make_chainsaw(params)
    return make_broken_chainsaw(params)
