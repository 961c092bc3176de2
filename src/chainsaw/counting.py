"""Exact independent-set counting engines.

Three routes, cross-checked by the verification sweep, and a fourth that
lifts the closed form to the whole polynomial. The oracle and elimination
share the frontier pass, so no verify row compares those two:

* ``count_brute_force`` / ``brute_force_strata``: every independent set,
  counted by ``_kernels.strata_by_chain_count``, the frontier pass run with
  no state limit. This is the oracle; it refuses graphs above its vertex
  cap, an argument of 26 by default, and the cap is its only limit.
* ``independence_polynomial`` / ``count_via_elimination``: the same pass
  with at most min(32, max_states) states a step, and for a graph past
  that, branching on a pivot with a memo and component splits
  (``_eliminate``). One engine serves both, over coefficient tuples or over
  plain ints at x = 1.
* ``stratified_closed_form`` / ``closed_form_count``: chainsaw-family
  closed forms, one entry per number of chain vertices used: the summands
  of D_n(a, -b) and E_{n+1}(a, -b), from the Dickson summations' weights.
  The count adds them in Horner form, so its memory is linear and its time
  quadratic. ``count --method closed-form`` does not use it: it prints the
  same V_n(a, -b) or U_{n+2}(a, -b) by ``sequence_text``'s doubling.
* ``closed_form_polynomial``: the chainsaw-family independence polynomial
  as a Lucas value, I(C(n,a,b); x) = V_n(p, q) and I(P(n,a,b); x) =
  U_{n+2}(p, q) with p = 1+(a-1)x, q = -x(1+(b-1)x). V and U satisfy a
  first-order differential system in x, so their coefficients follow a
  linear recurrence (``_lucas_coefficients``): products by small ints and
  two exact divisions per coefficient, linear in the digits printed. At
  a = 1 there are no blades, so the strata are the coefficients.

Each family's Dickson kind and index shift (chainsaw D_n = V_n, broken E_{n+1} =
U_{n+2}) is one row of ``_ENCODING``; the shift picks its graph, P(n, a, b) or
C(n, a, b), and the n-vertex cycle and path are its rows at (n, 1, 1). A row
admits n from 1 - its shift: C(n, a, b) from n = 1, P(n, a, b) from n = 0.

Every count is an exact Python int; nothing here touches floats or
fixed-width arithmetic. ``decimal_text`` turns counts into the decimal text
the command line prints. ``sequence_text`` prints a sequence value; a
``matrix`` one is computed in base 10, by the Decimal doubling
``_decimal_lucas``. ``evaluate`` still returns an int.
"""

from __future__ import annotations

import operator
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from itertools import repeat

from . import _kernels
from .graphs import ChainsawParams, Graph, _check_int, make_broken_chainsaw, make_chainsaw
from .sequences import (
    _LUCAS_VALUE,
    SequenceSpec,
    _by_matrix,
    _check_spec,
    _dickson_sum,
    _dickson_terms,
    evaluate,
)

DEFAULT_BRUTE_CAP = 26

DEFAULT_MAX_STATES = 1_000_000

MAX_DIGITS = 2_000_000  # the longest result, in decimal digits, that is ever printed
_BASE_BITS = 4096  # pieces this narrow (about 1233 digits) become a Decimal directly
# at most 603 digits: below the lowest int-to-str limit CPython accepts
# (sys.int_info.str_digits_check_threshold, 640), so str() always prints it
_STR_BITS = 2000

_ENCODING = {"chainsaw": ("D", 0), "broken": ("E", 1)}  # family -> (Dickson kind, index shift)

# a decimal context that never rounds: an inexact or rounded result raises. Every exact operation
# leaves its flags clear, so one context serves every call; ``localcontext`` runs on a copy of it
_EXACT = Context(MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


class OracleCapExceeded(RuntimeError):
    """Brute-force enumeration was asked for a graph above the vertex cap."""


class ComputationAbandoned(RuntimeError):
    """A computation hit a resource budget: elimination memo entries or printable result size."""


def _to_decimal(piece: int, w: int, powers: dict) -> Decimal:
    """0 <= piece < 2^w as an exact Decimal, split at 2^h near 2^(w/2); `powers` caches 2^h by h.

    The method of CPython 3.12's ``_pylong.int_to_decimal``. In the exact
    context libmpdec multiplies large operands by a number-theoretic
    transform, so the conversion is quasi-linear. h is w/2 rounded down to
    its top three bits, so widths close together split at the same h and
    share its power.
    """
    if w <= _BASE_BITS:
        return Decimal(piece)
    half = w >> 1
    cut = half.bit_length() - 3  # at least 9, as w > _BASE_BITS
    half = half >> cut << cut
    if half not in powers:
        powers[half] = _EXACT.power(2, half)
    hi = piece >> half
    low = _to_decimal(piece - (hi << half), half, powers)
    return _EXACT.add(_EXACT.multiply(_to_decimal(hi, w - half, powers), powers[half]), low)


def decimal_text(value: int | list[int]) -> str:
    """`value` as decimal text, a list of ints as a JSON array, whatever the int-to-str limit.

    Quasi-linear in the length. More than MAX_DIGITS digits, sign not
    counted, is a resource cap: ComputationAbandoned, raised before any
    conversion when the bit length alone shows it. The entries of a list
    share one cache of powers of 2.
    """
    if isinstance(value, list):
        powers: dict = {}
        return "[" + ", ".join([_int_text(v, powers) for v in value]) + "]"
    return _int_text(value, {})


def _int_text(value: int, powers: dict) -> str:
    magnitude = abs(value)
    width = magnitude.bit_length()
    # at least floor((width - 1) * log10(2)) + 1 digits, with log10(2) rounded down
    if (width - 1) * 30102999 // 10**8 < MAX_DIGITS:
        digits = str(magnitude) if width <= _STR_BITS else str(_to_decimal(magnitude, width, powers))
        if len(digits) <= MAX_DIGITS:
            return "-" + digits if value < 0 else digits
    raise ComputationAbandoned(f"result has more than {MAX_DIGITS} digits to print")


def sequence_text(spec: SequenceSpec) -> str:
    """The decimal text of ``evaluate(spec)``, with the ValueErrors of ``evaluate``.

    A ``matrix`` value is doubled on exact Decimals and printed by str, so
    no int is converted. More than MAX_DIGITS digits is ComputationAbandoned,
    read from the Decimal's exponent before any text is written. The other
    methods run on ints and print through ``decimal_text``.
    """
    if spec.method != "matrix":
        return decimal_text(evaluate(spec))
    _check_spec(spec)
    value = _decimal_lucas(spec.kind, spec.n, Decimal(spec.p), Decimal(spec.q))
    if value.adjusted() >= MAX_DIGITS:  # adjusted() is the digit count less one
        raise ComputationAbandoned(f"result has more than {MAX_DIGITS} digits to print")
    return str(value)


def _check_cap(order: int, cap: int) -> None:
    """OracleCapExceeded unless a graph of `order` vertices is within `cap`.

    A cap that is not exactly an int is NotAnInt, and one below 1 a ValueError.
    """
    _check_int(cap, "--brute-cap")
    if cap < 1:
        raise ValueError(f"--brute-cap must be at least 1, got {cap}")
    if order > cap:
        raise OracleCapExceeded(f"oracle cap exceeded: graph has {order} vertices, cap is {cap}")


def count_brute_force(g: Graph, *, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """i(G) from the definition, by the oracle kernel. The empty set always counts."""
    _check_cap(g.order, cap)
    return sum(_kernels.strata_by_chain_count(g.adjacency, g.loops, (), g.order))


def brute_force_strata(g: Graph, *, cap: int = DEFAULT_BRUTE_CAP) -> dict[int, int]:
    """Independent sets keyed by how many chain-role vertices they contain."""
    _check_cap(g.order, cap)
    counts = _kernels.strata_by_chain_count(g.adjacency, g.loops, set(g.chain_vertices()), g.order)
    return {t: c for t, c in enumerate(counts) if c}


def _neighbours(mask: int, adj: list[int]) -> int:
    """Union of the neighbour masks of the vertices in `mask`."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj[low.bit_length() - 1]
    return out


def _split(rest: int, seeds: int, adj: list[int]) -> list[int]:
    """Connected components of `rest`, given that each one holds a vertex of `seeds`.

    One breadth-first search starts at every group of seeds joined by edges
    among the seeds (a blade's seeds are one group), all growing a layer per
    round. Searches that meet merge; a search with nothing left to grow into
    is a whole component. Once at most one search is still growing, the part
    of `rest` the finished ones did not take is the last component, so the
    work stays near the seeds however large that last piece is.
    """
    growing: list[tuple[int, int]] = []  # (component so far, its unexpanded frontier)
    while seeds:
        group = seeds & -seeds
        joined = adj[group.bit_length() - 1] & seeds
        while joined:
            group |= joined
            joined = _neighbours(joined, adj) & seeds & ~group
        seeds ^= group
        growing.append((group, group))
    done: list[int] = []
    while len(growing) > 1:
        merged: list[tuple[int, int]] = []
        for comp, frontier in growing:
            grown = _neighbours(frontier, adj) & rest & ~comp
            if not grown:
                done.append(comp)
                continue
            comp |= grown
            for other in [m for m in merged if m[0] & comp]:
                merged.remove(other)
                comp |= other[0]
                grown |= other[1]
            merged.append((comp, grown))
        growing = merged
    if growing:
        for comp in done:
            rest &= ~comp
        done.append(rest)
    return done


def _max_degree_vertex(candidates: int, mask: int, adj: list[int]) -> int:
    """The candidate with the most neighbours in `mask`, ties to the lowest index."""
    best, best_deg = -1, -1
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        v = low.bit_length() - 1
        deg = (adj[v] & mask).bit_count()
        if deg > best_deg:
            best, best_deg = v, deg
    return best


def _is_clique(mask: int, adj: list[int]) -> bool:
    """Whether every vertex of `mask` is adjacent to all the others."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & mask | low != mask:
            return False
    return True


def _poly_add(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if len(p) < len(q):
        p, q = q, p
    return tuple(map(operator.add, p, q)) + p[len(q) :]


def _poly_shift(p: tuple[int, ...]) -> tuple[int, ...]:
    return (0,) + p


def _poly_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if len(p) < len(q):
        p, q = q, p
    out = [0] * (len(p) + len(q) - 1)
    for j, d in enumerate(q):  # one pass over the longer factor per term of the shorter
        end = j + len(p)
        out[j:end] = map(operator.add, out[j:end], map(operator.mul, p, repeat(d)))
    return tuple(out)


def _product(values: list, one, mul):
    if not values:
        return one
    result = values[0]
    for value in values[1:]:
        result = mul(result, value)
    return result


_SOLVE, _JOIN = 0, 1
_PASS_STATES = 32  # the most states a frontier pass step holds before it hands the graph over


def _eliminate(g: Graph, one, add, shift, mul, max_states: int):
    """I(G) evaluated in the value type given by `one`, `add`, `shift` (times x) and `mul`.

    ``_kernels.frontier_pass`` comes first, with at most
    min(_PASS_STATES, max_states) states a step, so it never abandons; a
    graph it hands back is branched on as follows, from the start.
    Works on vertex bitmasks over the original numbering. `_split` with
    every live vertex as a seed finds the root components. Only connected
    masks are solved and memoized: a connected mask takes as pivot v a
    maximum-degree vertex among its seeds (`_max_degree_vertex`), splits
    both G - v and G - N[v] into components around the removed vertices
    (`_split`), then joins the component values as
    I(G - v) + x * I(G - N[v]). If v sees the whole mask and so does every
    other vertex, the mask is a clique K_k: its value 1 + kx, built once per
    k from `one`, `add` and `shift`, is pushed without a split or a memo
    entry. Testing the chosen pivot first keeps that at one comparison per
    state in graphs without cliques. The pending work lives on an explicit
    stack of tasks: a solve task for a connected mask, and a join task that
    consumes the values its components pushed. A `max_states` that is not
    exactly an int, such as NaN, which no memo size reaches, is NotAnInt,
    and a negative one, which no memo size is below, is a ValueError.
    """
    _check_int(max_states, "max_states")
    if max_states < 0:
        raise ValueError(f"max_states must be at least 0, got {max_states}")
    passed = _kernels.frontier_pass(g.adjacency, g.loops, one, add, lambda v: shift, min(_PASS_STATES, max_states))
    if passed is not None:
        return passed
    adj = [sum(map((1).__lshift__, nbrs)) for nbrs in g.adjacency]
    live = ((1 << g.order) - 1) & ~sum(1 << v for v in g.loops)
    single = add(one, shift(one))
    cliques: dict = {}  # k -> 1 + kx
    memo: dict = {}
    values: list = []
    # every live vertex seeds the root split, so a root piece scans all its vertices for a pivot
    tasks: list[tuple] = [(_SOLVE, comp, comp) for comp in reversed(_split(live, live, adj))]
    while tasks:
        kind, mask, arg = tasks.pop()
        if kind == _JOIN:
            n_without, n_with = arg
            cut = len(values) - n_with
            with_v = _product(values[cut:], one, mul)
            without_v = _product(values[cut - n_without : cut], one, mul)
            del values[cut - n_without :]
            result = add(without_v, shift(with_v))
            if len(memo) >= max_states:
                raise ComputationAbandoned(f"elimination abandoned after {max_states} memo entries")
            memo[mask] = result
            values.append(result)
            continue
        if not mask & (mask - 1):
            values.append(single)
            continue
        cached = memo.get(mask)
        if cached is not None:
            values.append(cached)
            continue
        v = _max_degree_vertex(arg, mask, adj)
        closed = adj[v] & mask | 1 << v
        if closed == mask and _is_clique(mask, adj):
            k = mask.bit_count()
            if k not in cliques:
                value = one
                for _ in range(k):
                    value = add(value, shift(one))
                cliques[k] = value
            values.append(cliques[k])
            continue
        reach = _neighbours(closed, adj)
        rest_without = mask ^ (1 << v)
        rest_with = mask & ~closed
        without_v = _split(rest_without, adj[v] & rest_without, adj)
        with_v = _split(rest_with, reach & rest_with, adj)
        tasks.append((_JOIN, mask, (len(without_v), len(with_v))))
        for comp in reversed(with_v):
            tasks.append((_SOLVE, comp, reach & comp))
        for comp in reversed(without_v):
            tasks.append((_SOLVE, comp, adj[v] & comp))
    return _product(values, one, mul)


def independence_polynomial(g: Graph, *, max_states: int = DEFAULT_MAX_STATES) -> list[int]:
    """Exact coefficients [i_0(G), i_1(G), ...] of the independence polynomial.

    Every step applies I(G) = I(G - v) + x * I(G - N[v]) to some vertex v;
    looped vertices join no independent set. The vertices are first decided
    one by one by ``_kernels.frontier_pass``, with no memo entry: a graph
    that keeps at most min(32, max_states) states a step that way, such as
    a chain of cliques or a grid of a few rows, is counted there. Any other
    graph is branched on (``_eliminate``) with a fixed pivot choice, one
    factor per connected component, and a clique K_k closed as 1 + kx: that
    is the definition, as an independent set holds at most one vertex of a
    clique, so elimination rests on no closed form and on no oracle.
    Exhausting ``max_states`` memo entries raises ComputationAbandoned
    rather than ever returning a wrong answer.
    """
    return list(_eliminate(g, (1,), _poly_add, _poly_shift, _poly_mul, max_states))


def count_via_elimination(g: Graph, *, max_states: int = DEFAULT_MAX_STATES) -> int:
    """i(G) = I(G; 1): the same elimination as the polynomial, on plain ints at x = 1."""
    return _eliminate(g, 1, operator.add, _kernels.same, operator.mul, max_states)


def _check_n(family: str, n: int, shift: int) -> None:
    """ValueError, naming `family`, unless n >= 1 - shift: the domain of a row with that index shift."""
    if n + shift < 1:
        raise ValueError(f"family {family!r} requires n >= {1 - shift}, got n={n}")


def _family(params: ChainsawParams, family: str) -> tuple[str, int]:
    """The family's row of ``_ENCODING``, once `params` is known to be in its domain."""
    try:
        kind, shift = _ENCODING[family]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(_ENCODING)}") from None
    _check_n(family, params.n, shift)
    return kind, shift


def stratified_closed_form(params: ChainsawParams, family: str) -> dict[int, int]:
    """Closed-form strata: entry t counts independent sets using t chain vertices.

    chainsaw: (C(n-t, t) + C(n-t-1, t-1)) * b^t * a^(n-2t)   for t <= floor(n/2)
    broken:   C(n-t+1, t) * b^t * a^(n-2t+1)                 for t <= floor((n+1)/2)

    Picking t pairwise non-adjacent chain vertices leaves t blades with b
    usable states and the remaining blades with a (one blade vertex or
    none), which is where the powers come from.
    """
    kind, shift = _family(params, family)
    return dict(enumerate(_dickson_terms(kind, params.n + shift, params.a, -params.b)))


def closed_form_count(params: ChainsawParams, family: str) -> int:
    """i(C(n,a,b)) or i(P(n,a,b)) in closed form: the Dickson summation D_n(a,-b) or E_{n+1}(a,-b).

    The same weights as the stratified closed form, summed in Horner form
    (``sequences._dickson_sum``), so memory stays linear in the count. It
    equals V_n(a,-b) for chainsaws and U_{n+2}(a,-b) for broken chainsaws;
    the verification sweep checks that against index doubling rather than
    assuming it here.
    """
    kind, shift = _family(params, family)
    return _dickson_sum(kind, params.n + shift, params.a, -params.b)


def _decimal_lucas(kind: str, n: int, p, q) -> Decimal:
    """The `kind` value at index n, at (p, q), as an exact Decimal, by ``sequences._by_matrix``.

    p and q are exact integral Decimals. Every operation runs in the exact
    context, where the doubling's halvings by // are exact integer
    divisions; outside it one addition rounds a long value to the default
    28 digits. The closing + Decimal(0) makes an int value (index below 2)
    a Decimal and turns the -0 a product with a zero factor can leave
    (V_3(0, 1)) into 0.
    """
    with localcontext(_EXACT):
        return _by_matrix(kind, n, p, q) + Decimal(0)


def _lucas_coefficients(second: bool, n: int, a: int, b: int) -> list[int]:
    """V_n(p, q)'s coefficients, or U_n(p, q)'s if not `second`, n >= 1, at p = 1 + c x and q = -x (1 + d x).

    Here c = a - 1 and d = b - 1. With alpha and beta the roots of
    z^2 - p z + q, differentiating alpha^n and beta^n gives
    2 q V' = n q' V + n W U and 2 q D U' = (n q' D - q D') U + n W V, where
    W = 2 q p' - p q' = 1 + e x, e = 2d - c, and D = p^2 - 4q = 1 + d1 x + d2 x^2.
    At x^k the two equations are (n - 2k) v_k - n u_k = -r1 and
    (n - 2k) u_k - n v_k = -r2, with r1 and r2 sums of earlier coefficients
    times small ints: f2..f4 are the x^2..x^4 coefficients of 2 q D, and
    g1..g3 the x..x^3 coefficients of n q' D - q D'. The determinant
    4k(k - n) is not 0 for 0 < k < n, so v_k and u_k are two exact divisions
    from v_0 = u_0 = 1. U has degree n - 1, and v_n is the first equation
    at k = n, where u_n = 0. No product is long, so the work is linear in
    the digits of the result.
    """
    c, d = a - 1, b - 1
    e, d1, d2 = 2 * d - c, 2 * c + 4, c * c + 4 * d
    f2, f3, f4 = -2 * (d1 + d), -2 * (d2 + d * d1), -2 * d * d2
    g1, g2, g3 = d1 - n * (d1 + 2 * d), 2 * d2 + d * d1 - n * (d2 + 2 * d * d1), 2 * d * d2 * (1 - n)
    ne = n * e
    v = u = 1
    u2 = u3 = 0  # u_{k-2}, u_{k-3}
    out = [1]
    for k in range(1, n):
        r1 = 2 * d * (n - k + 1) * v - ne * u
        r2 = (f2 * (k - 1) - g1) * u + (f3 * (k - 2) - g2) * u2 + (f4 * (k - 3) - g3) * u3 - ne * v
        s, den = n - 2 * k, 4 * k * (n - k)
        v, u, u2, u3 = (s * r1 + n * r2) // den, (s * r2 + n * r1) // den, u, u2
        out.append(v if second else u)
    if second:
        out.append((2 * d * v - ne * u) // n)
    return out


def closed_form_polynomial(params: ChainsawParams, family: str) -> list[int]:
    """Coefficients of I(C(n,a,b); x) = V_n(p, q) or I(P(n,a,b); x) = U_{n+2}(p, q), no graph built.

    p = 1 + (a-1) x and q = -x (1 + (b-1) x): the paper's count with weight
    x on each chosen vertex. At a >= 2 the coefficients follow the linear
    recurrence of V and U's differential system (``_lucas_coefficients``).
    At a = 1 (so b = 1) there are no blade vertices: every vertex is a chain
    vertex, and the strata are the coefficients.
    """
    if params.a == 1:
        return list(stratified_closed_form(params, family).values())
    kind, shift = _family(params, family)
    second, lucas_shift = _LUCAS_VALUE[kind]
    return _lucas_coefficients(second, params.n + shift + lucas_shift, params.a, params.b)


def family_graph(params: ChainsawParams, family: str) -> Graph:
    """The generated graph a closed form refers to: P(n, a, b) at an index shift, else C(n, a, b).

    Each generator is looked up by its module-level name when called, so a
    wrapper put on that name (as by a tracer) sees every build.
    """
    return (make_broken_chainsaw if _family(params, family)[1] else make_chainsaw)(params)


def _family_order(params: ChainsawParams, family: str) -> int:
    """The order of the family's graph, before it is built: n chain vertices, n + shift blades."""
    shift = _family(params, family)[1]
    return params.n + (params.n + shift) * (params.a - 1)
