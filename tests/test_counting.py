"""Cross-checks between the three counting engines and the closed forms."""

import decimal
import functools
import inspect
import itertools
import json
import math
import operator
import random
import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainsaw import _kernels, counting
from chainsaw.counting import (
    ComputationAbandoned,
    OracleCapExceeded,
    _ENCODING,
    _family_order,
    _poly_add,
    _poly_shift,
    brute_force_strata,
    closed_form_count,
    closed_form_polynomial,
    count_brute_force,
    count_via_elimination,
    decimal_text,
    family_graph,
    independence_polynomial,
    sequence_text,
    stratified_closed_form,
)
from chainsaw.graphs import ChainsawParams, Graph, NotAnInt, make_broken_chainsaw, make_chainsaw, make_cycle, make_path
from chainsaw.sequences import SequenceSpec, evaluate, lucas_U, lucas_V
from helpers import random_graph, reference_count, reference_polynomial, reference_strata

BRANCH_ONLY = ("chainsaw.counting._PASS_STATES", 0)  # the frontier pass hands every graph over


def _disjoint_union(g1: Graph, g2: Graph) -> Graph:
    off = g1.order
    edges = g1.edges() + [(u + off, v + off) for u, v in g2.edges()]
    loops = list(g1.loops) + [v + off for v in g2.loops]
    return Graph.build(g1.order + g2.order, edges, loops, g1.roles + g2.roles)


def _lowest_candidate(candidates, mask, adj):
    return (candidates & -candidates).bit_length() - 1


def _highest_candidate(candidates, mask, adj):
    return candidates.bit_length() - 1


def _grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertex r * cols + c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.build(rows * cols, edges)


def _grid_count(rows: int, cols: int) -> int:
    """i(grid) by a transfer over the columns: each column an independent set of a path, neighbours disjoint."""
    columns = [m for m in range(1 << rows) if not m & m >> 1]
    ways = {m: 1 for m in columns}
    for _ in range(cols - 1):
        ways = {m: sum(w for k, w in ways.items() if not k & m) for m in columns}
    return sum(ways.values())


def _spider(legs: int, length: int) -> Graph:
    """`legs` paths of `length` vertices joined at the centre 0."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges += [(0, first)] + [(v, v + 1) for v in range(first, first + length - 1)]
    return Graph.build(1 + legs * length, edges)


def _convolve(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


class TestBruteForce:
    def test_frozen_examples(self):
        assert count_brute_force(make_path(3)) == 5
        assert count_brute_force(make_cycle(1)) == 1
        assert count_brute_force(make_chainsaw(ChainsawParams(2, 2, 1))) == 6

    def test_strata_frozen_examples(self):
        assert brute_force_strata(make_chainsaw(ChainsawParams(2, 2, 1))) == {0: 4, 1: 2}
        assert brute_force_strata(make_cycle(4)) == {0: 1, 1: 4, 2: 2}
        assert brute_force_strata(make_broken_chainsaw(ChainsawParams(1, 2, 1))) == {0: 4, 1: 1}

    def test_cap_blocks_large_graphs(self):
        with pytest.raises(OracleCapExceeded, match="6 vertices, cap is 5"):
            count_brute_force(make_path(6), cap=5)

    def test_cap_argument_admits_exactly_at_the_limit(self):
        assert count_brute_force(make_path(6), cap=6) == 21

    @pytest.mark.parametrize("env", ["5", "abc"])
    @pytest.mark.parametrize("engine", [count_brute_force, brute_force_strata])
    def test_the_default_cap_ignores_the_environment(self, monkeypatch, engine, env):
        # the cap is an argument: no environment variable sets its default
        monkeypatch.setenv("CHAINSAW_BRUTE_CAP", env)
        with pytest.raises(OracleCapExceeded, match="^oracle cap exceeded: graph has 27 vertices, cap is 26$"):
            engine(make_path(27))

    @pytest.mark.parametrize("cap", [-3, 0])
    def test_a_cap_below_one_is_a_value_error(self, cap):
        with pytest.raises(ValueError, match=f"^--brute-cap must be at least 1, got {cap}$"):
            brute_force_strata(make_path(3), cap=cap)

    def test_the_cap_is_the_only_limit(self, monkeypatch):
        assert count_brute_force(make_path(50), cap=50) == lucas_U(52, 1, -1)

        def no_kernel(*args):
            raise AssertionError("the kernel ran above the cap")

        monkeypatch.setattr("chainsaw._kernels.strata_by_chain_count", no_kernel)
        for engine, kwargs, order, limit in [(count_brute_force, {}, 27, 26), (brute_force_strata, {}, 27, 26),
                                             (count_brute_force, {"cap": 10}, 11, 10),
                                             (brute_force_strata, {"cap": 60}, 61, 60)]:
            with pytest.raises(OracleCapExceeded, match=f"^oracle cap exceeded: graph has {order} vertices, cap is {limit}$"):
                engine(make_path(order), **kwargs)

    def test_strata_honors_the_cap(self):
        with pytest.raises(OracleCapExceeded):
            brute_force_strata(make_cycle(9), cap=8)

    def test_cap_errors_are_runtime_errors(self):
        assert issubclass(OracleCapExceeded, RuntimeError)
        assert issubclass(ComputationAbandoned, RuntimeError)


class TestElimination:
    def test_frozen_examples(self):
        assert count_via_elimination(make_cycle(5)) == 11
        assert count_via_elimination(make_path(0)) == 1
        assert count_via_elimination(make_chainsaw(ChainsawParams(3, 2, 1))) == 14

    def test_polynomial_frozen_examples(self):
        assert independence_polynomial(make_path(4)) == [1, 4, 3]
        assert independence_polynomial(make_path(0)) == [1]
        assert independence_polynomial(make_cycle(4)) == [1, 4, 2]
        assert independence_polynomial(make_chainsaw(ChainsawParams(1, 1, 1))) == [1]

    def test_loops_never_enter_a_set(self):
        g = Graph.build(3, [(0, 1)], loops=[0, 1, 2])
        assert independence_polynomial(g) == [1]

    @pytest.mark.parametrize("seed", range(30))
    def test_engines_agree_with_the_reference(self, monkeypatch, seed):
        g = random_graph(random.Random(1000 + seed), max_order=12)
        want_poly = reference_polynomial(g)
        assert independence_polynomial(g) == want_poly
        assert count_via_elimination(g) == sum(want_poly)
        assert count_brute_force(g) == sum(want_poly)
        assert brute_force_strata(g) == reference_strata(g)
        monkeypatch.setattr(*BRANCH_ONLY)
        assert independence_polynomial(g) == want_poly
        assert count_via_elimination(g) == sum(want_poly)

    @pytest.mark.parametrize("seed", range(30))
    def test_the_frontier_pass_alone_agrees_with_the_reference(self, seed):
        # the same graphs, with room for every state a 12-vertex graph can reach
        g = random_graph(random.Random(1000 + seed), max_order=12)
        want_poly = reference_polynomial(g)
        args = g.adjacency, g.loops
        limit = 1 << g.order
        assert list(_kernels.frontier_pass(*args, (1,), _poly_add, lambda v: _poly_shift, limit)) == want_poly
        assert _kernels.frontier_pass(*args, 1, operator.add, lambda v: _kernels.same, limit) == sum(want_poly)

    def test_a_wide_frontier_hands_over_to_branching(self, monkeypatch):
        # past the centre, 2^k blocked sets of the outer ring after k of its 8 neighbours: over 32 at k = 5
        g = _spider(8, 2)
        splits = []

        def spy(rest, seeds, adj, split=counting._split):
            splits.append(rest)
            return split(rest, seeds, adj)

        monkeypatch.setattr("chainsaw.counting._split", spy)
        assert count_via_elimination(g) == reference_count(g)
        assert splits

    @pytest.mark.parametrize("length", [1, 2, 30, 500])
    def test_a_spider_counts_as_its_closed_form(self, length):
        # without the centre, 8 paths P_L; with it, 8 paths P_{L-1}: F_{L+2}^8 + F_{L+1}^8
        g = _spider(8, length)
        limit = counting._PASS_STATES
        passed = _kernels.frontier_pass(g.adjacency, g.loops, 1, operator.add, lambda v: _kernels.same, limit)
        assert (passed is None) == (length >= 2)  # the star stays in the pass, longer legs reach the branching
        assert count_via_elimination(g) == lucas_U(length + 2, 1, -1) ** 8 + lucas_U(length + 1, 1, -1) ** 8

    def test_a_spider_polynomial_is_its_closed_form(self):
        # I(x) = I(P_L; x)^8 + x I(P_{L-1}; x)^8, the path polynomials being the a = 1 broken strata
        length = 30
        without, with_centre = (
            functools.reduce(_convolve, [list(stratified_closed_form(ChainsawParams(m, 1, 1), "broken").values())] * 8)
            for m in (length, length - 1)
        )
        want = [c + d for c, d in itertools.zip_longest(without, [0] + with_centre, fillvalue=0)]
        assert independence_polynomial(_spider(8, length)) == want

    def test_a_long_chainsaw_counts_within_a_small_budget(self):
        # the pass holds at most 12 states a step here; branching takes about 2n memo entries
        g = make_chainsaw(ChainsawParams(20000, 3, 2))
        assert count_via_elimination(g, max_states=64) == lucas_V(20000, 3, -2)

    def test_a_grid_counts_within_a_small_budget(self):
        g = _grid(4, 40)
        want = _grid_count(4, 40)
        assert count_via_elimination(g, max_states=64) == want
        assert sum(independence_polynomial(g, max_states=64)) == want

    @pytest.mark.parametrize("seed", range(8))
    def test_pivot_choice_cannot_change_the_polynomial(self, monkeypatch, seed):
        g = random_graph(random.Random(2000 + seed), max_order=11)
        default = independence_polynomial(g)
        monkeypatch.setattr(*BRANCH_ONLY)  # so that every graph reaches the pivot choice
        assert independence_polynomial(g) == default
        for chooser in (_lowest_candidate, _highest_candidate):
            monkeypatch.setattr("chainsaw.counting._max_degree_vertex", chooser)
            assert independence_polynomial(g) == default
            assert count_via_elimination(g) == sum(default)

    def test_the_root_split_of_isolated_vertices(self):
        # every vertex its own root component: each a one-vertex piece, 1 + x
        assert count_via_elimination(Graph.build(60)) == 2**60
        assert independence_polynomial(Graph.build(12)) == [math.comb(12, k) for k in range(13)]

    def test_the_root_split_of_looped_vertices_is_empty(self):
        g = Graph.build(5, loops=range(5))
        assert count_via_elimination(g) == 1
        assert independence_polynomial(g) == [1]

    @pytest.mark.parametrize("seed", range(6))
    def test_components_multiply(self, seed):
        rng = random.Random(3000 + seed)
        g1 = random_graph(rng, max_order=7)
        g2 = random_graph(rng, max_order=7)
        whole = independence_polynomial(_disjoint_union(g1, g2))
        product = _convolve(independence_polynomial(g1), independence_polynomial(g2))
        assert whole == product

    @pytest.mark.parametrize("seed", range(6))
    def test_adding_an_edge_strictly_lowers_the_count(self, seed):
        rng = random.Random(4000 + seed)
        while True:
            g = random_graph(rng, max_order=10, loop_prob=0.0)
            missing = [
                (u, v)
                for u in range(g.order)
                for v in range(u + 1, g.order)
                if v not in g.adjacency[u]
            ]
            if missing:
                break
        u, v = rng.choice(missing)
        denser = Graph.build(g.order, g.edges() + [(u, v)], g.loops, g.roles)
        assert count_via_elimination(denser) < count_via_elimination(g)

    @pytest.mark.parametrize("engine", [independence_polynomial, count_via_elimination])
    def test_an_engine_takes_only_the_graph_and_a_budget(self, engine):
        assert list(inspect.signature(engine).parameters) == ["g", "max_states"]

    def test_state_budget_abandons_rather_than_lying(self):
        for engine in (independence_polynomial, count_via_elimination):
            with pytest.raises(ComputationAbandoned, match="abandoned"):
                engine(make_cycle(10), max_states=1)

    def test_count_path_abandons_a_large_graph(self):
        with pytest.raises(ComputationAbandoned, match="after 10 memo entries"):
            count_via_elimination(make_chainsaw(ChainsawParams(3000, 3, 2)), max_states=10)

    def test_deep_elimination_never_touches_the_recursion_limit(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"setrecursionlimit({limit}) called")

        before = sys.getrecursionlimit()
        assert before <= 1000  # 9000 vertices branch far deeper than this
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert count_via_elimination(make_chainsaw(ChainsawParams(3000, 3, 2))) == lucas_V(3000, 3, -2)
        assert sys.getrecursionlimit() == before

    def test_recursion_limit_is_restored(self):
        before = sys.getrecursionlimit()
        big = make_chainsaw(ChainsawParams(240, 3, 2))
        assert 4 * big.order + 200 > before
        assert sum(independence_polynomial(big)) == closed_form_count(ChainsawParams(240, 3, 2), "chainsaw")
        assert sys.getrecursionlimit() == before
        with pytest.raises(ComputationAbandoned):
            independence_polynomial(big, max_states=10)
        assert sys.getrecursionlimit() == before


def _clique(k: int, loops=()) -> Graph:
    return Graph.build(k, [(u, v) for u in range(k) for v in range(u)], loops)


@st.composite
def _clique_rich_graph(draw):
    """Random cliques plus sparse extra edges and loops, at most 16 vertices."""
    order = draw(st.integers(0, 16))
    vertex = st.integers(0, max(order - 1, 0))
    edges = set()
    if order:
        for members in draw(st.lists(st.sets(vertex, max_size=7), max_size=4)):
            edges.update((u, v) for u in members for v in members if u < v)
        edges.update(draw(st.lists(st.tuples(vertex, vertex), max_size=order // 2)))
    loops = draw(st.sets(vertex, max_size=2)) if order else set()
    return Graph.build(order, sorted(edges), loops)


class TestCliquePieces:
    """A clique piece is closed as 1 + kx in one step: at most one vertex of a clique is in any set."""

    @pytest.mark.parametrize(
        "k,loops",
        [(k, ()) for k in range(1, 13)] + [(2, [0]), (5, [1, 3]), (8, [0, 7]), (12, range(0, 12, 3)), (4, range(4))],
    )
    def test_a_clique_counts_one_more_than_its_unlooped_vertices(self, k, loops):
        free = k - len(set(loops))
        assert count_via_elimination(_clique(k, loops)) == free + 1
        assert independence_polynomial(_clique(k, loops)) == ([1, free] if free else [1])

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 3), (3, 3, 3), (1, 4, 7, 2), (12, 12)])
    def test_disjoint_cliques_multiply(self, sizes):
        g = Graph.build(0)
        want = [1]
        for k in sizes:
            g = _disjoint_union(g, _clique(k))
            want = _convolve(want, [1, k])
        assert independence_polynomial(g) == want
        assert count_via_elimination(g) == math.prod(k + 1 for k in sizes)

    @settings(max_examples=150, deadline=None)
    @given(_clique_rich_graph())
    def test_clique_rich_graphs_agree_with_the_oracle(self, g):
        count = count_brute_force(g)
        assert count_via_elimination(g) == count
        assert sum(brute_force_strata(g).values()) == count
        default = independence_polynomial(g)
        assert sum(default) == count
        with pytest.MonkeyPatch.context() as patch:  # a function-scoped fixture would outlive the examples
            # the oracle is the frontier pass run to the end, so only the branching checks it independently
            patch.setattr(*BRANCH_ONLY)
            assert count_via_elimination(g) == count
            assert independence_polynomial(g) == default
            for chooser in (_lowest_candidate, _highest_candidate):
                patch.setattr("chainsaw.counting._max_degree_vertex", chooser)
                assert independence_polynomial(g) == default

    def test_a_clique_piece_takes_no_memo_entry(self):
        # make_cycle(10) at max_states=1 still abandons: test_state_budget_abandons_rather_than_lying
        for budget in (0, 1):
            assert count_via_elimination(_clique(40), max_states=budget) == 41
            assert independence_polynomial(_clique(40), max_states=budget) == [1, 40]


def _no_work(*args):
    raise AssertionError("an engine ran before its budget was checked")


class TestBudgetsAreExactInts:
    """A bool, a float, NaN or None budget is NotAnInt, and a negative `max_states` a ValueError, before any work.

    ``max_states=nan`` once counted a 6 x 30 grid for over 30 s: no memo
    size reaches NaN, and min(32, nan) is 32.
    """

    @pytest.mark.parametrize("value", [True, 2.5, math.nan], ids=repr)
    @pytest.mark.parametrize("engine", [count_via_elimination, independence_polynomial])
    def test_max_states(self, monkeypatch, engine, value):
        monkeypatch.setattr(_kernels, "frontier_pass", _no_work)
        with pytest.raises(NotAnInt, match=re.escape(f"max_states must be an int, got {value!r}")):
            engine(make_path(3), max_states=value)

    @pytest.mark.parametrize("value", [True, 2.5, math.nan, None], ids=repr)
    @pytest.mark.parametrize("engine", [count_brute_force, brute_force_strata])
    def test_cap(self, monkeypatch, engine, value):
        monkeypatch.setattr(_kernels, "strata_by_chain_count", _no_work)
        with pytest.raises(NotAnInt, match=re.escape(f"--brute-cap must be an int, got {value!r}")):
            engine(make_path(1), cap=value)

    @pytest.mark.parametrize("engine", [count_via_elimination, independence_polynomial])
    def test_negative_max_states(self, monkeypatch, engine):
        with pytest.raises(ComputationAbandoned, match="after 0 memo entries"):  # 0 is a budget, spent at once
            engine(make_path(3), max_states=0)
        # -1 was once reported as spent: "elimination abandoned after -1 memo entries"
        monkeypatch.setattr(_kernels, "frontier_pass", _no_work)
        with pytest.raises(ValueError, match=re.escape("max_states must be at least 0, got -1")):
            engine(make_path(3), max_states=-1)


class TestFamilyProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["chainsaw", "broken"]),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_elimination_matches_lucas_at_random_sizes(self, family, n, a, data):
        b = data.draw(st.integers(min_value=1, max_value=a), label="b")
        params = ChainsawParams(n, a, b)
        g = family_graph(params, family)
        want = lucas_V(n, a, -b) if family == "chainsaw" else lucas_U(n + 2, a, -b)
        count = count_via_elimination(g)
        poly = independence_polynomial(g)
        assert count == want
        assert sum(poly) == count
        assert (poly + [0])[1] == g.order - len(g.loops)  # C(1, a, b) may have no free vertex


class TestClosedFormPolynomial:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["chainsaw", "broken"]),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_matches_elimination(self, family, n, a, data):
        b = data.draw(st.integers(min_value=1, max_value=a), label="b")
        params = ChainsawParams(n, a, b)
        poly = closed_form_polynomial(params, family)
        assert poly == independence_polynomial(family_graph(params, family))
        assert sum(poly) == closed_form_count(params, family)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    def test_unit_blades_give_the_cycle_and_the_path(self, n):
        # P(n, 1, 1) is the n-vertex path, C(n, 1, 1) the n-cycle
        unit = ChainsawParams(n, 1, 1)
        cycle = [_binomial_cycle_weight(n, t) for t in range(n // 2 + 1)]
        path = [math.comb(n - t + 1, t) for t in range((n + 1) // 2 + 1)]
        assert closed_form_polynomial(unit, "chainsaw") == cycle
        assert closed_form_polynomial(unit, "broken") == path

    @pytest.mark.parametrize("family", ["chainsaw", "broken"])
    def test_matches_elimination_on_a_grid(self, family):
        # every 1 <= b <= a <= 8 and n <= 12: b = 1 makes d = 0, a = b makes e = 2d - c = d, n = 1 and
        # 2 leave the recurrence at most one step, and P(0, a, b) is U_2, whose only coefficients are u_0, u_1
        for n in range(0 if family == "broken" else 1, 13):
            for a in range(1, 9):
                for b in range(1, a + 1):
                    params = ChainsawParams(n, a, b)
                    want = independence_polynomial(family_graph(params, family))
                    assert closed_form_polynomial(params, family) == want, params

    @pytest.mark.parametrize("b_of_a", [lambda a: 1, lambda a: a - 1, lambda a: a], ids=["b=1", "1<b<a", "b=a"])
    @pytest.mark.parametrize("family", ["chainsaw", "broken"])
    @pytest.mark.parametrize("parity", [0, 1])
    def test_matches_elimination_at_both_parities(self, family, parity, b_of_a):
        # the index N is n for the chainsaw's V_N and n + 2 for the broken chainsaw's U_N, and the
        # recurrence runs its divisions by 4k(N - k) through every k of both halves
        a = 4
        params = ChainsawParams(130 + parity, a, b_of_a(a))
        assert closed_form_polynomial(params, family) == independence_polynomial(family_graph(params, family))

    @pytest.mark.parametrize("family", ["chainsaw", "broken"])
    def test_top_coefficient_and_sum_at_a_large_index(self, family):
        # the top coefficient of V_N(p, q) is V_N(a - 1, -(b - 1)), of U_N(p, q) U_N(a - 1, -(b - 1)),
        # as p ~ (a - 1) x and q ~ -(b - 1) x^2; the sum is I(G; 1)
        params = ChainsawParams(2000, 3, 2)
        kind, index = ("V", 2000) if family == "chainsaw" else ("U", 2002)
        poly = closed_form_polynomial(params, family)
        assert len(poly) == (index + 1 if kind == "V" else index)
        assert poly[-1] == evaluate(SequenceSpec(kind, index, params.a - 1, -(params.b - 1), "matrix"))
        assert sum(poly) == closed_form_count(params, family)

    def test_frozen_examples(self):
        assert closed_form_polynomial(ChainsawParams(5, 3, 2), "broken") == [1, 17, 111, 357, 601, 507, 169]
        assert closed_form_polynomial(ChainsawParams(1, 1, 1), "chainsaw") == [1]
        assert closed_form_polynomial(ChainsawParams(1, 4, 2), "chainsaw") == [1, 3]

    def test_never_touches_the_default_decimal_context(self):
        context = decimal.getcontext()
        saved = (context.prec, context.Emax, dict(context.traps), dict(context.flags))
        closed_form_polynomial(ChainsawParams(300, 5, 3), "broken")
        assert (context.prec, context.Emax, dict(context.traps), dict(context.flags)) == saved

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            closed_form_polynomial(ChainsawParams(2, 2, 1), "circular")


def _binomial_cycle_weight(n, t):
    """n/(n-t) * C(n-t, t) as C(n-t, t) + C(n-t-1, t-1)."""
    return math.comb(n - t, t) + (math.comb(n - t - 1, t - 1) if t else 0)


def _unit_row(n, family):
    """The table's row at (n, 1, 1) as a list: the path's ("broken") or cycle's ("chainsaw") coefficients."""
    return list(stratified_closed_form(ChainsawParams(n, 1, 1), family).values())


class TestTermsAgainstTheBinomialDefinition:
    """Every closed-form term against its binomial weight times fresh powers."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["chainsaw", "broken"]),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    def test_strata(self, family, n, a, data):
        b = data.draw(st.integers(min_value=1, max_value=a), label="b")
        if family == "chainsaw":
            want = {t: _binomial_cycle_weight(n, t) * b**t * a ** (n - 2 * t) for t in range(n // 2 + 1)}
        else:
            want = {t: math.comb(n - t + 1, t) * b**t * a ** (n - 2 * t + 1) for t in range((n + 1) // 2 + 1)}
        assert stratified_closed_form(ChainsawParams(n, a, b), family) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=400))
    def test_path_coefficients(self, n):
        assert _unit_row(n, "broken") == [math.comb(n - t + 1, t) for t in range((n + 1) // 2 + 1)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    def test_cycle_coefficients(self, n):
        assert _unit_row(n, "chainsaw") == [_binomial_cycle_weight(n, t) for t in range(n // 2 + 1)]


class TestPathCycleCoefficients:
    def test_frozen_examples(self):
        assert _unit_row(4, "broken") == [1, 4, 3]
        # the two diagonals are the only 2-subsets independent on C_4
        assert _unit_row(4, "chainsaw") == [1, 4, 2]
        assert _unit_row(0, "broken") == [1]
        assert _unit_row(1, "chainsaw") == [1]
        assert _unit_row(5, "broken") == [1, 5, 6, 1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=40))
    def test_path_formula_matches_elimination(self, n):
        assert independence_polynomial(make_path(n)) == _unit_row(n, "broken")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_cycle_formula_matches_elimination(self, n):
        assert independence_polynomial(make_cycle(n)) == _unit_row(n, "chainsaw")

    def test_cycle_length_zero_rejected(self):
        # the cycle is C(n, 1, 1), and C(0, a, b) is outside the table's domain
        with pytest.raises(ValueError, match="n=0"):
            _unit_row(0, "chainsaw")


class TestZeroChainLength:
    """P(0, a, b) = K_{a-1} is in every route's domain; C(0, a, b) is in none."""

    @pytest.mark.parametrize("a", range(1, 7))
    def test_broken_at_zero_counts_a(self, a):
        for b in range(1, a + 1):
            params = ChainsawParams(0, a, b)
            g = family_graph(params, "broken")
            assert count_brute_force(g) == a
            assert count_via_elimination(g) == a
            assert closed_form_count(params, "broken") == a
            assert stratified_closed_form(params, "broken") == {0: a}
            assert closed_form_polynomial(params, "broken") == ([1, a - 1] if a > 1 else [1])

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, 2), (5, 5)])
    def test_chainsaw_at_zero_rejected_by_every_route(self, a, b):
        params = ChainsawParams(0, a, b)
        with pytest.raises(ValueError, match="n=0"):
            make_chainsaw(params)
        for route in (family_graph, stratified_closed_form, closed_form_count, closed_form_polynomial):
            with pytest.raises(ValueError, match="n=0"):
                route(params, "chainsaw")


class TestClosedForms:
    def test_stratified_frozen_examples(self):
        assert stratified_closed_form(ChainsawParams(1, 2, 1), "broken") == {0: 4, 1: 1}
        assert stratified_closed_form(ChainsawParams(4, 1, 1), "chainsaw")[2] == 2
        for a in range(1, 5):
            for b in range(1, a + 1):
                assert stratified_closed_form(ChainsawParams(1, a, b), "chainsaw") == {0: a}

    def test_count_frozen_examples(self):
        assert closed_form_count(ChainsawParams(2, 2, 1), "chainsaw") == 6
        assert closed_form_count(ChainsawParams(5, 1, 1), "chainsaw") == 11
        assert closed_form_count(ChainsawParams(1, 2, 1), "broken") == 5

    def test_strata_sum_to_the_count(self):
        for family in ("chainsaw", "broken"):
            for n in range(1, 7):
                table = stratified_closed_form(ChainsawParams(n, 3, 2), family)
                assert sum(table.values()) == closed_form_count(ChainsawParams(n, 3, 2), family)

    def test_strata_keys_are_the_allowed_range(self):
        assert set(stratified_closed_form(ChainsawParams(7, 2, 2), "chainsaw")) == set(range(4))
        assert set(stratified_closed_form(ChainsawParams(7, 2, 2), "broken")) == set(range(5))

    def test_strata_values_are_positive(self):
        for family in ("chainsaw", "broken"):
            table = stratified_closed_form(ChainsawParams(6, 4, 2), family)
            assert all(c > 0 for c in table.values())

    def test_strata_match_brute_force(self):
        for family in ("chainsaw", "broken"):
            for n, a, b in ((1, 3, 2), (2, 2, 1), (3, 3, 3), (4, 2, 2), (5, 2, 1)):
                params = ChainsawParams(n, a, b)
                g = family_graph(params, family)
                assert brute_force_strata(g) == stratified_closed_form(params, family), (family, n, a, b)

    def test_lucas_doubling_agrees_with_strata(self):
        for family, kind, shift in (("chainsaw", "V", 0), ("broken", "U", 2)):
            for n in (1, 2, 3, 9, 40):
                for a, b in ((1, 1), (3, 2), (4, 4)):
                    lucas = evaluate(SequenceSpec(kind, n + shift, a, -b, "matrix"))
                    assert closed_form_count(ChainsawParams(n, a, b), family) == lucas

    def test_count_is_the_strata_sum_at_large_n(self):
        # the Horner sum and the listed strata share their weights; doubling is the independent side.
        # The CLI prints the doubling, so n = 20000 is the summation's one check at that size
        for family, kind, shift in (("chainsaw", "V", 0), ("broken", "U", 2)):
            for n, a, b in ((2000, 3, 2), (1999, 4, 1), (2001, 5, 5), (20000, 3, 2)):
                params = ChainsawParams(n, a, b)
                count = closed_form_count(params, family)
                assert count == sum(stratified_closed_form(params, family).values())
                assert count == evaluate(SequenceSpec(kind, n + shift, a, -b, "matrix"))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            closed_form_count(ChainsawParams(2, 2, 1), "circular")
        with pytest.raises(ValueError, match="family"):
            family_graph(ChainsawParams(2, 2, 1), "circular")

    @pytest.mark.parametrize("family", ["circular", ["chainsaw"]])
    def test_unknown_family_message_is_exact(self, family):
        expected = f"unknown family {family!r}; expected one of ('chainsaw', 'broken')"
        for route in (stratified_closed_form, closed_form_polynomial, family_graph):
            with pytest.raises(ValueError) as exc:
                route(ChainsawParams(2, 2, 1), family)
            assert str(exc.value) == expected

    def test_family_graph_shapes(self):
        assert family_graph(ChainsawParams(3, 4, 2), "chainsaw").order == 12
        assert family_graph(ChainsawParams(3, 4, 2), "broken").order == 15

    def test_family_order_is_the_order_of_the_graph(self):
        for family in ("chainsaw", "broken"):
            for n in range(1 - _ENCODING[family][1], 13):
                for a in range(1, 7):
                    for b in range(1, a + 1):
                        params = ChainsawParams(n, a, b)
                        assert _family_order(params, family) == family_graph(params, family).order

    def test_family_graph_calls_the_generators_by_name(self, monkeypatch):
        # a wrapper put on the module's names, as the benchmark's tracer does, sees every build
        built = []
        for name, original in (("make_chainsaw", make_chainsaw), ("make_broken_chainsaw", make_broken_chainsaw)):
            def spy(params, name=name, original=original):
                built.append(name)
                return original(params)

            monkeypatch.setattr(f"chainsaw.counting.{name}", spy)
        family_graph(ChainsawParams(3, 2, 1), "chainsaw")
        family_graph(ChainsawParams(3, 2, 1), "broken")
        assert built == ["make_chainsaw", "make_broken_chainsaw"]


_CUTOFF_BITS = 4096  # counting._BASE_BITS: wider values are split before conversion

_random_width = st.tuples(st.integers(0, 100_000), st.randoms(use_true_random=False)).map(
    lambda t: t[1].getrandbits(t[0]) if t[0] else 0
)
_near_ten_power = st.integers(0, 30_000).flatmap(
    lambda k: st.sampled_from([10**k - 1, 10**k, 10**k + 1])
)
_near_cutoff = st.integers(_CUTOFF_BITS - 64, 2 * _CUTOFF_BITS + 64).flatmap(
    lambda w: st.sampled_from([2**w - 1, 2**w, 2**w + 1])
)


class TestDecimalText:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(_random_width, _near_ten_power, _near_cutoff, st.integers(0, 10**40)), st.booleans())
    def test_matches_str(self, no_int_limit, magnitude, negative):
        value = -magnitude if negative else magnitude
        assert decimal_text(value) == str(value)

    def test_lists_print_as_json_arrays(self, no_int_limit):
        for values in ([], [0], [1, 4, 3], [10**5000 + 1, -(2**20000), 7]):
            assert decimal_text(values) == json.dumps(values)

    def test_long_entries_of_a_list_share_split_points(self, no_int_limit):
        # the entries of a list share one cache of powers of 2; widths 4097 to about 70,000 bits, close
        # together and of both signs, split at shared points and at points only one of them uses
        values = [(-1) ** k * 3**k + k for k in range(2585, 44000, 397)]
        assert decimal_text(values) == json.dumps(values)

    def test_budget_counts_digits_not_the_sign(self, no_int_limit, monkeypatch):
        monkeypatch.setattr("chainsaw.counting.MAX_DIGITS", 5000)
        for value in (10**4999, 10**5000 - 1, -(10**5000 - 1)):
            assert decimal_text(value) == str(value)
        for value in (10**5000, -(10**5000), 10**6000):
            with pytest.raises(ComputationAbandoned, match="^result has more than 5000 digits to print$"):
                decimal_text(value)

    def test_budget_edge_by_bit_length(self, no_int_limit, monkeypatch):
        # around 5000 digits every width sits on one side of the budget or
        # the other; the up-front bound must never refuse a printable value
        monkeypatch.setattr("chainsaw.counting.MAX_DIGITS", 5000)
        for w in range(16595, 16625):
            for value in (2**w - 1, 2**w, -(2**w)):
                if len(str(abs(value))) <= 5000:
                    assert decimal_text(value) == str(value)
                else:
                    with pytest.raises(ComputationAbandoned):
                        decimal_text(value)

    @pytest.mark.parametrize("limit", [640, 0])  # the lowest limit Python accepts, and no limit
    def test_values_either_side_of_the_str_cutoff(self, no_int_limit, limit):
        # 2^2000 (603 digits) and below go to str(), wider values are split first
        values = [2**2000 - 1, 2**2000, 2**2000 + 1, 2**2001]
        texts = [str(v) for v in values]
        sys.set_int_max_str_digits(limit)
        for value, text in zip(values, texts):
            assert decimal_text(value) == text
            assert decimal_text(-value) == "-" + text

    def test_default_budget_is_two_million_digits(self):
        # 2^6700000 has 2016900 digits: refused from its bit length alone
        with pytest.raises(ComputationAbandoned, match="more than 2000000 digits"):
            decimal_text(2**6_700_000)


class TestSequenceText:
    @pytest.mark.parametrize("method", ["recurrence", "summation", "matrix"])
    def test_is_the_text_of_evaluate(self, method):
        # one grid for every method: both parities of matrix's half-index finish, n < 2,
        # p = 0, q = 0 and p^2 = 4q; each value is the recurrence's, as an int and as text
        for kind in ("D", "E") if method == "summation" else "UVDE":
            for n in (*range(41), 300):
                for p in range(-3, 4):
                    for q in range(-3, 4):
                        spec = SequenceSpec(kind, n, p, q, method)
                        value = evaluate(SequenceSpec(kind, n, p, q, "recurrence"))
                        assert evaluate(spec) == value, spec
                        assert sequence_text(spec) == decimal_text(value), spec

    @pytest.mark.parametrize(
        "spec",
        [
            SequenceSpec("W", 3, 1, 1, "matrix"),
            SequenceSpec("U", 3, 1, 1, "doubling"),
            SequenceSpec("U", -4, 1, 1, "matrix"),
            SequenceSpec("V", 3, 1, 1, "summation"),
            SequenceSpec("D", 10, 0.5, 2, "matrix"),
            SequenceSpec("D", 10.0, 3, 2, "summation"),
            SequenceSpec("U", 5, 1, True, "recurrence"),
        ],
    )
    def test_refuses_what_evaluate_refuses(self, spec):
        with pytest.raises(ValueError) as expected:
            evaluate(spec)
        with pytest.raises(ValueError) as got:
            sequence_text(spec)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("p,q", [(7, -3), (-3, -1)])  # U_3000(-3, -1) is negative
    def test_budget_counts_digits_not_the_sign(self, no_int_limit, monkeypatch, p, q):
        spec = SequenceSpec("U", 3000, p, q, "matrix")
        value = evaluate(spec)
        digits = len(str(abs(value)))
        monkeypatch.setattr("chainsaw.counting.MAX_DIGITS", digits)
        assert sequence_text(spec) == str(value)
        monkeypatch.setattr("chainsaw.counting.MAX_DIGITS", digits - 1)
        with pytest.raises(ComputationAbandoned) as exc:
            sequence_text(spec)
        assert str(exc.value) == f"result has more than {digits - 1} digits to print"
