"""The oracle, the frontier pass run with no state limit, against the definition."""

import collections
import itertools
import math
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsaw import _kernels
from chainsaw.counting import (
    _PASS_STATES,
    DEFAULT_BRUTE_CAP,
    brute_force_strata,
    count_brute_force,
    count_via_elimination,
    family_graph,
    independence_polynomial,
    stratified_closed_form,
)
from chainsaw.graphs import (
    BLADE,
    CHAIN,
    ChainsawParams,
    Graph,
    make_broken_chainsaw,
    make_chainsaw,
    make_cycle,
    make_path,
)
from chainsaw.sequences import lucas_U, lucas_V
from helpers import random_graph, reference_count, reference_strata


def _strata(g: Graph, chain=None) -> list[int]:
    chain = set(g.chain_vertices()) if chain is None else chain
    counts = _kernels.strata_by_chain_count(g.adjacency, g.loops, chain, g.order)
    assert len(counts) == g.order + 1
    return counts


def _count(g: Graph) -> int:
    return _strata(g, ())[0]


@pytest.mark.parametrize("seed", range(12))
def test_count_matches_reference_on_both_backends(seed):
    g = random_graph(random.Random(seed), max_order=12)
    assert _count(g) == reference_count(g)


@pytest.mark.parametrize("seed", range(12))
def test_strata_match_reference_on_both_backends(seed):
    g = random_graph(random.Random(100 + seed), max_order=12)
    assert {t: c for t, c in enumerate(_strata(g)) if c} == reference_strata(g)


def test_matches_reference_on_300_random_graphs():
    rng = random.Random(300)
    for _ in range(300):
        g = random_graph(rng, max_order=14, loop_prob=0.15)
        assert {t: c for t, c in enumerate(_strata(g)) if c} == reference_strata(g), g
        assert _count(g) == reference_count(g), g


def test_empty_graph_has_one_independent_set():
    assert _strata(Graph.build(0)) == [1]


def test_all_loops_leave_only_the_empty_set():
    assert _strata(Graph.build(3, [], loops=range(3))) == [1, 0, 0, 0]


def test_zero_chain_mask_puts_everything_in_stratum_zero():
    counts = _strata(make_cycle(6), ())
    assert counts[0] == lucas_V(6, 1, -1)
    assert sum(counts[1:]) == 0


def test_cycles_of_odd_order_and_at_the_default_cap():
    # order 1 is a looped vertex alone, odd and even cycles, 26 is the default cap
    for n in (1, 3, 7, 13, 21, 25, 26):
        assert _count(make_cycle(n)) == lucas_V(n, 1, -1), n


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matches_plain_enumeration(data):
    # any graph of order <= 14, with loops and random roles, against all 2^order subsets
    order = data.draw(st.integers(min_value=0, max_value=14))
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    loops = data.draw(st.sets(st.integers(min_value=0, max_value=order - 1))) if order else set()
    roles = tuple(data.draw(st.lists(st.sampled_from((CHAIN, BLADE)), min_size=order, max_size=order)))
    g = Graph.build(order, edges, loops, roles)
    assert {t: c for t, c in enumerate(_strata(g)) if c} == reference_strata(g)


def test_no_mask_width_limit():
    # past the 48 vertices a fixed-width kernel held: cycle 50, and C(13, 4, 2) with 52
    assert count_brute_force(make_cycle(50), cap=50) == lucas_V(50, 1, -1)
    params = ChainsawParams(13, 4, 2)
    assert family_graph(params, "chainsaw").order == 52
    assert brute_force_strata(family_graph(params, "chainsaw"), cap=52) == stratified_closed_form(params, "chainsaw")
    assert count_brute_force(family_graph(params, "chainsaw"), cap=52) == lucas_V(13, 4, -2)


def test_edgeless_graph_fills_every_stratum():
    # 2^order independent sets; with no chain vertex, stratum 0 takes the largest count a slot holds
    g = Graph.build(20, [])
    assert _strata(g, ()) == [1 << 20] + [0] * 20
    assert _strata(g) == [math.comb(20, t) for t in range(21)]


def test_vertices_with_no_free_neighbour_are_factored_out():
    # 2^49 sets to test one by one; the choices merge into one state per step, so both take microseconds
    chain = set(range(1, 49, 3))  # k = 16 chain vertices
    expected = [math.comb(16, t) << (49 - 16) for t in range(17)] + [0] * 33
    hub = Graph.build(49, [(0, v) for v in range(1, 49)], loops=[0])  # every other vertex on the looped 0 only
    for g, free in ((Graph.build(49, []), 49), (hub, 48)):
        start = time.perf_counter()
        strata = _strata(g, chain)
        assert time.perf_counter() - start < 1.0
        assert strata == [c >> (49 - free) for c in expected]


def test_complete_bipartite_graph_is_a_few_states():
    # K_{20,20}, every vertex chain: the nonempty sets lie on one side, 2 C(20, t) - [t = 0]. Breadth-first
    # from 0 the right side comes next, and a step holds at most 3 states: nothing blocked, the rest of
    # the right side blocked by 0, or the left side blocked by a right vertex
    g = Graph.build(40, [(u, v) for u in range(20) for v in range(20, 40)])
    start = time.perf_counter()
    strata = _strata(g)
    assert time.perf_counter() - start < 0.2
    assert strata == [2 * math.comb(20, t) - (t == 0) for t in range(41)]


def test_long_cycle_and_path_within_their_cap():
    # i(C_60) = V_60(1, -1) and i(P_60) = U_62(1, -1), at 60 vertices each
    for g, expected in ((make_cycle(60), lucas_V(60, 1, -1)), (make_path(60), lucas_U(62, 1, -1))):
        start = time.perf_counter()
        assert count_brute_force(g, cap=60) == expected
        assert time.perf_counter() - start < 0.2


def test_chainsaws_are_numbered_chain_by_chain():
    # C(24, 2, 2) at 48 vertices: breadth-first, each blade comes next to its chain vertex,
    # so a state does not carry the blades of the chain vertices already passed
    params = ChainsawParams(24, 2, 2)
    g = family_graph(params, "chainsaw")
    start = time.perf_counter()
    strata = brute_force_strata(g, cap=48)
    assert time.perf_counter() - start < 0.05
    assert strata == stratified_closed_form(params, "chainsaw")


def test_perfect_matching_at_the_default_cap():
    # edges i -- i + 13: each edge holds neither end or one of its two, so (1 + 2z)^13 and 3^13 sets.
    # Breadth-first puts i + 13 right after i, so a step holds at most 2 states
    g = Graph.build(26, [(v, v + 13) for v in range(13)])
    assert _strata(g) == [math.comb(13, t) << t for t in range(14)] + [0] * 13
    assert _strata(g, ()) == [3**13] + [0] * 26


def test_ladder_at_the_default_cap_matches_elimination():
    # two 13-vertex rails i -- i + 1 joined by the rungs i -- i + 13; all roles chain, so stratum t is size t
    rails = [(r + i, r + i + 1) for r in (0, 13) for i in range(12)]
    g = Graph.build(26, rails + [(i, i + 13) for i in range(13)])
    strata = brute_force_strata(g, cap=26)
    assert sum(strata.values()) == count_via_elimination(g)
    assert [strata.get(t, 0) for t in range(max(strata) + 1)] == list(independence_polynomial(g))


def test_the_oracle_has_no_state_limit():
    # G(18, 0.3) peaks at 41 states a step, past the frontier pass's limit, so elimination branches
    # on it; at 18 vertices the reference's scan of every subset still takes well under a second
    rng = random.Random(1)
    g = Graph.build(18, [(u, v) for u, v in itertools.combinations(range(18), 2) if rng.random() < 0.3])
    assert _kernels.frontier_pass(g.adjacency, g.loops, 1, operator.add, lambda v: _kernels.same, _PASS_STATES) is None
    assert brute_force_strata(g) == reference_strata(g)
    assert count_via_elimination(g) == count_brute_force(g)


def test_matches_reference_at_the_default_cap():
    # the reference grows independent sets one vertex at a time, so 31,524 sets cost well under a second
    rng = random.Random(1)
    g = Graph.build(26, [(u, v) for u, v in itertools.combinations(range(26), 2) if rng.random() < 0.2])
    assert g.order == DEFAULT_BRUTE_CAP
    assert brute_force_strata(g) == reference_strata(g)


def _numbered_graphs():
    yield from (random_graph(random.Random(500 + seed), max_order=30) for seed in range(40))
    yield Graph.build(49, [(0, v) for v in range(1, 49)], loops=[0])  # the hub
    yield Graph.build(40, [(u, v) for u in range(20) for v in range(20, 40)])  # K_{20,20}
    for n in range(0, 7):
        for a in range(1, 6):
            for b in range(1, a + 1):
                if n:
                    yield make_chainsaw(ChainsawParams(n, a, b))
                yield make_broken_chainsaw(ChainsawParams(n, a, b))


def _reference_breadth_first(adjacency):
    """The vertices breadth-first from each lowest vertex not yet seen, by a queue."""
    seen, order = set(), []
    for root in range(len(adjacency)):
        if root in seen:
            continue
        seen.add(root)
        queue = collections.deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            fresh = [u for u in adjacency[v] if u not in seen]
            seen.update(fresh)
            queue.extend(fresh)
    return order


@pytest.mark.parametrize("g", _numbered_graphs())
def test_the_numbering_yields_each_vertex_with_its_later_neighbours(g):
    order, masks = _kernels.breadth_first(g.adjacency)
    assert order == _reference_breadth_first(g.adjacency) and len(masks) == g.order
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        assert masks[i] == sum(1 << (pos[u] - i - 1) for u in g.adjacency[v] if pos[u] > i), (i, v)


@pytest.mark.parametrize(
    "family,n,a,b,peak",
    [
        ("chainsaw", 160, 2, 1, 6),
        ("broken", 250, 3, 2, 6),
        ("chainsaw", 200, 4, 2, 14),
        ("chainsaw", 160, 5, 5, 8),
        ("broken", 420, 5, 3, 7),
    ],
)
def test_peak_states_a_step_on_the_benchmark_shapes(family, n, a, b, peak):
    # the numbering follows the adjacency sets' iteration order, which the order the edges were added
    # in can change: these peaks are what that order gives, and what elimination's limit of 32 sees
    g = family_graph(ChainsawParams(n, a, b), family)
    run = lambda limit: _kernels.frontier_pass(g.adjacency, g.loops, 1, operator.add, lambda v: _kernels.same, limit)
    assert run(peak - 1) is None
    assert run(peak) == count_brute_force(g, cap=g.order)


def test_an_order_other_than_the_adjacency_length_is_a_value_error():
    with pytest.raises(ValueError, match="^expected 3 adjacency lists, got 2$"):
        _kernels.strata_by_chain_count((frozenset({1}), frozenset({0})), frozenset(), (), 3)


def test_the_backend_is_pure_python():
    assert _kernels.active_backend() == "python"
