"""Construction, validation, and serialization tests for the graph module."""

import copy
import itertools
import json
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsaw.counting import count_via_elimination
from chainsaw.graphs import (
    BLADE,
    CHAIN,
    EXPORT_FORMATS,
    ChainsawParams,
    Graph,
    NotAnInt,
    export_graph,
    graph_from_json,
    make_broken_chainsaw,
    make_chainsaw,
    make_cycle,
    make_path,
)
from chainsaw.sequences import SequenceSpec
from chainsaw.verify import InjectedGraph
from helpers import random_graph, reference_broken_chainsaw, reference_chainsaw


def expected_chainsaw_size(n: int, a: int, b: int) -> int:
    """Edge count forced by the construction, derived case by case.

    Each of the n blades is a K_a (C(a,2) edges) and sends a-b extra edges
    forward. For n = 1 the extras land inside the only blade and collapse,
    and the cycle edge is a loop (not counted by Graph.size); for n = 2 the
    two cycle edges collapse into one.
    """
    clique = n * a * (a - 1) // 2
    extras = n * (a - b)
    if n == 1:
        return clique
    if n == 2:
        return 1 + clique + extras
    return n + clique + extras


class TestPath:
    def test_empty(self):
        g = make_path(0)
        assert g.order == 0
        assert g.size == 0

    def test_single_vertex(self):
        g = make_path(1)
        assert (g.order, g.size) == (1, 0)
        assert g.loops == frozenset()

    def test_degree_sequence(self):
        g = make_path(4)
        assert (g.order, g.size) == (4, 3)
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_path(-1)


class TestCycle:
    def test_one_vertex_is_a_loop(self):
        g = make_cycle(1)
        assert g.order == 1
        assert g.loops == frozenset({0})
        assert g.size == 0

    def test_two_vertices_are_a_single_edge(self):
        g = make_cycle(2)
        assert g.edges() == [(0, 1)]
        assert g.loops == frozenset()

    def test_plain_cycle(self):
        g = make_cycle(5)
        assert (g.order, g.size) == (5, 5)
        assert all(g.degree(v) == 2 for v in range(5))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            make_cycle(0)


class TestChainsawParams:
    def test_b_above_a_rejected(self):
        with pytest.raises(ValueError, match="a >= b >= 1"):
            ChainsawParams(1, 2, 3)

    @pytest.mark.parametrize("n,a,b", [(-1, 1, 1), (1, 1, 0), (-2, 3, 2)])
    def test_out_of_range_rejected(self, n, a, b):
        with pytest.raises(ValueError):
            ChainsawParams(n, a, b)

    @pytest.mark.parametrize("field", ["n", "a", "b"])
    def test_a_field_that_is_not_an_int_is_rejected(self, field):
        # a float a once gave closed_form_count(ChainsawParams(5, 2.5, 1), "chainsaw") = 188.28125
        for value in (2.5, 5.0, True):
            with pytest.raises(NotAnInt, match=f"^{field} must be an int, got {value!r}$"):
                ChainsawParams(**{"n": 5, "a": 2, "b": 1, field: value})

    def test_boundary_values_accepted(self):
        ChainsawParams(1, 1, 1)
        ChainsawParams(8, 4, 4)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, 2), (6, 6)])
    def test_zero_chain_length_is_the_orphaned_blade(self, a, b):
        # P(0, a, b) is C(1, a, b) minus its chain vertex: the clique K_{a-1}, the empty path at a = 1
        g = make_broken_chainsaw(ChainsawParams(0, a, b))
        assert g == Graph.build(a - 1, itertools.combinations(range(a - 1), 2), (), (BLADE,) * (a - 1))
        with pytest.raises(ValueError, match="n=0"):
            make_chainsaw(ChainsawParams(0, a, b))


def value_instances():
    """For each value class: a maker of fresh equal instances, their field tuple and the old dataclass repr."""
    g = make_path(2)
    g_repr = "Graph(order=2, adjacency=(frozenset({1}), frozenset({0})), loops=frozenset(), roles=('chain', 'chain'))"
    params = ChainsawParams(3, 2, 1)
    return [
        (lambda: ChainsawParams(3, 2, 1), (3, 2, 1), "ChainsawParams(n=3, a=2, b=1)"),
        (lambda: SequenceSpec("V", 5, 1, -1), ("V", 5, 1, -1, "recurrence"),
         "SequenceSpec(kind='V', n=5, p=1, q=-1, method='recurrence')"),
        (lambda: Graph.build(2, [(0, 1)]), (g.order, g.adjacency, g.loops, g.roles), g_repr),
        (lambda: InjectedGraph(g, "broken", params), (g, "broken", params),
         f"InjectedGraph(graph={g_repr}, family='broken', params=ChainsawParams(n=3, a=2, b=1))"),
    ]


class TestValueClasses:
    """Graph, ChainsawParams, SequenceSpec and InjectedGraph: immutable, compared and hashed by their fields."""

    @pytest.mark.parametrize("make,fields,text", value_instances())
    def test_equality_and_hash_are_by_fields(self, make, fields, text):
        one, other = make(), make()
        assert one is not other and one == other and not one != other
        assert hash(one) == hash(other) == hash(fields)
        assert one != fields and fields != one  # not equal to a plain tuple of the same fields
        assert len({one, other}) == 1

    def test_unequal_fields_or_classes_are_unequal(self):
        assert ChainsawParams(3, 2, 1) != ChainsawParams(3, 2, 2)
        assert SequenceSpec("U", 3, 1, 1) != SequenceSpec("U", 3, 1, 1, "matrix")
        assert make_path(3) != make_cycle(3)
        assert ChainsawParams(3, 2, 1) != SequenceSpec(3, 2, 1, 0)
        assert ChainsawParams(3, 2, 1) != InjectedGraph(3, 2, 1)

    @pytest.mark.parametrize("make,fields,text", value_instances())
    def test_repr_is_the_dataclass_text(self, make, fields, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make,fields,text", value_instances())
    def test_fields_can_be_neither_assigned_nor_deleted(self, make, fields, text):
        value = make()
        for name in (*value.__slots__, "extra"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, 0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert value == make()
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("make,fields,text", value_instances())
    def test_copies_and_pickles_are_equal(self, make, fields, text):
        value = make()
        assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ChainsawParams(3, 2),
            lambda: ChainsawParams(3, 2, 1, 0),
            lambda: ChainsawParams(n=3, a=2, c=1),
            lambda: SequenceSpec("U", 3, 1),
            lambda: SequenceSpec("U", 3, 1, 1, method="matrix", extra=0),
            lambda: Graph(0, (), frozenset()),
            lambda: Graph(order=0, adjacency=(), loops=frozenset(), roles=(), size=0),
            lambda: InjectedGraph(make_path(1), "broken"),
            lambda: InjectedGraph(make_path(1), "broken", ChainsawParams(1, 1, 1), params=None),
        ],
    )
    def test_a_missing_or_unknown_argument_is_a_type_error(self, build):
        with pytest.raises(TypeError, match=r"__init__\(\)"):
            build()

    def test_keywords_name_the_fields(self):
        assert ChainsawParams(b=1, a=2, n=3) == ChainsawParams(3, 2, 1)
        assert SequenceSpec(method="matrix", q=1, p=1, n=3, kind="U") == SequenceSpec("U", 3, 1, 1, "matrix")
        g = make_path(1)
        assert Graph(order=1, adjacency=g.adjacency, loops=g.loops, roles=g.roles) == g


class TestChainsaw:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_trivial_blades_give_the_cycle(self, n):
        # a = b = 1 means no blade vertices and no extra edges.
        assert make_chainsaw(ChainsawParams(n, 1, 1)) == make_cycle(n)
        if n >= 3:  # make_cycle reads C(n, 1, 1), so the cycle's shape is pinned on its own
            assert make_cycle(n).edges() == sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])

    def test_two_triangle_instance(self):
        g = make_chainsaw(ChainsawParams(2, 2, 1))
        assert g.order == 4
        assert g.roles == (CHAIN, CHAIN, BLADE, BLADE)
        assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        assert g.loops == frozenset()

    def test_figure_instance(self):
        # C(6, 5, 3): 6 cycle edges, 6 blades of K_5, 2 forward extras per
        # chain vertex. Incoming extras attach to blade vertices, so each
        # chain vertex sees 2 + 4 + 2 = 8 neighbors.
        g = make_chainsaw(ChainsawParams(6, 5, 3))
        assert g.order == 30
        assert g.size == 78
        assert [g.degree(v) for v in g.chain_vertices()] == [8] * 6
        assert sorted(g.degree(v) for v in g.blade_vertices()) == [4] * 12 + [5] * 12

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("a", range(1, 5))
    def test_order_and_size_invariants(self, n, a):
        for b in range(1, a + 1):
            g = make_chainsaw(ChainsawParams(n, a, b))
            assert g.order == n * a
            assert g.size == expected_chainsaw_size(n, a, b)
            assert g.chain_vertices() == tuple(range(n))
            assert g.blade_vertices() == tuple(range(n, n * a))

    @pytest.mark.parametrize("n,a,b", [(3, 4, 2), (5, 3, 1), (2, 4, 4)])
    def test_blades_complete_to_cliques(self, n, a, b):
        g = make_chainsaw(ChainsawParams(n, a, b))
        for v in range(n):
            members = [v] + list(range(n + v * (a - 1), n + (v + 1) * (a - 1)))
            for x, y in itertools.combinations(members, 2):
                assert y in g.adjacency[x]

    def test_blade_edges_stay_within_one_blade(self):
        n, a = 4, 3
        g = make_chainsaw(ChainsawParams(n, a, 1))
        owner = {
            w: v
            for v in range(n)
            for w in range(n + v * (a - 1), n + (v + 1) * (a - 1))
        }
        for x in g.blade_vertices():
            for y in g.adjacency[x]:
                if y in owner:
                    assert owner[y] == owner[x]

    def test_forward_wiring_hits_lowest_indices(self):
        n, a, b = 5, 4, 2
        g = make_chainsaw(ChainsawParams(n, a, b))
        for v in range(n):
            nxt = (v + 1) % n
            blade_next = list(range(n + nxt * (a - 1), n + (nxt + 1) * (a - 1)))
            assert [w for w in blade_next if w in g.adjacency[v]] == blade_next[: a - b]

    @pytest.mark.parametrize("a", range(1, 7))
    def test_matches_the_reference_definition(self, a):
        # and each adjacency set iterates as the reference's does, since the breadth-first numbering,
        # and with it the states a step of the frontier pass, follows that order
        for n in range(1, 10):
            for b in range(1, a + 1):
                params = ChainsawParams(n, a, b)
                g, want = make_chainsaw(params), reference_chainsaw(params)
                assert g == want, params
                assert [list(s) for s in g.adjacency] == [list(s) for s in want.adjacency], params

    def test_single_chain_vertex_keeps_the_loop(self):
        g = make_chainsaw(ChainsawParams(1, 3, 2))
        assert g.loops == frozenset({0})
        assert g.order == 3
        # the whole graph is one triangle plus the loop
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]


class TestBrokenChainsaw:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_trivial_blades_give_the_path(self, n):
        assert make_broken_chainsaw(ChainsawParams(n, 1, 1)) == make_path(n)
        # make_path reads P(n, 1, 1), so the path's shape is pinned on its own
        assert make_path(n).edges() == [(i, i + 1) for i in range(n - 1)]
        assert make_path(n).roles == (CHAIN,) * n

    def test_smallest_nontrivial_instance(self):
        g = make_broken_chainsaw(ChainsawParams(1, 2, 1))
        assert g.order == 3
        assert g.edges() == [(0, 1), (0, 2)]
        assert g.roles == (CHAIN, BLADE, BLADE)
        assert g.loops == frozenset()

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("a", range(1, 5))
    def test_order_and_size_invariants(self, n, a):
        for b in range(1, a + 1):
            g = make_broken_chainsaw(ChainsawParams(n, a, b))
            assert g.order == (n + 1) * a - 1
            # removing chain vertex 0 of C(n+1, a, b) deletes its cycle
            # edges, its a-1 blade edges, and its a-b forward extras
            cycle_deg = 1 if n == 1 else 2
            lost = cycle_deg + (a - 1) + (a - b)
            assert g.size == expected_chainsaw_size(n + 1, a, b) - lost
            assert g.chain_vertices() == tuple(range(n))
            assert g.loops == frozenset()

    @pytest.mark.parametrize("a", range(1, 7))
    def test_matches_the_reference_definition(self, a):
        for n in range(0, 31):
            for b in range(1, a + 1):
                params = ChainsawParams(n, a, b)
                assert make_broken_chainsaw(params) == reference_broken_chainsaw(params)

    def test_orphaned_blade_survives_as_clique(self):
        # b = a means no extra edges, so blade 0 of C(3, 3, 3) loses its
        # chain vertex and survives as an isolated K_2
        g = make_broken_chainsaw(ChainsawParams(2, 3, 3))
        assert g.order == 8
        chain = set(g.chain_vertices())
        orphaned = [
            v
            for v in g.blade_vertices()
            if not (set(g.adjacency[v]) & chain)
        ]
        assert len(orphaned) == 2
        u, w = orphaned
        assert w in g.adjacency[u]


class TestGraphValidation:
    def test_build_collapses_duplicate_edges(self):
        g = Graph.build(2, [(0, 1), (1, 0), (0, 1)])
        assert g.size == 1

    def test_build_routes_diagonal_pairs_to_loops(self):
        g = Graph.build(1, [(0, 0)])
        assert g.loops == frozenset({0})
        assert g.size == 0

    def test_build_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.build(2, [(0, 5)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(
                order=2,
                adjacency=(frozenset({1}), frozenset()),
                loops=frozenset(),
                roles=(CHAIN, CHAIN),
            )

    def test_loop_inside_adjacency_rejected(self):
        with pytest.raises(ValueError, match="loops"):
            Graph(
                order=1,
                adjacency=(frozenset({0}),),
                loops=frozenset(),
                roles=(CHAIN,),
            )

    @pytest.mark.parametrize("u", [2, -1])
    def test_neighbor_out_of_range_rejected(self, u):
        with pytest.raises(ValueError, match=rf"^edge \(0, {u}\) out of range for order 2$"):
            Graph(order=2, adjacency=(frozenset({u}), frozenset()), loops=frozenset(), roles=(CHAIN, CHAIN))

    def test_looped_vertex_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(order=1, adjacency=(frozenset(),), loops=frozenset({3}), roles=(CHAIN,))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            Graph(order=1, adjacency=(frozenset(),), loops=frozenset(), roles=("saw",))

    @pytest.mark.parametrize(
        "edges,loops,roles,message",
        [
            ([(0, 1)], (), [CHAIN, "saw", BLADE, CHAIN], "unknown role 'saw' on vertex 1"),
            ([(0, 1)], [3, 0], [CHAIN] * 3, "looped vertex 3 out of range"),
            ([(0, 1), (3, 3)], (), [CHAIN] * 3, "looped vertex 3 out of range"),
        ],
    )
    def test_build_and_json_reject_a_bad_role_or_looped_vertex(self, edges, loops, roles, message):
        order = len(roles)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph.build(order, edges, loops, roles)
        text = json.dumps({"order": order, "edges": edges, "loops": list(loops), "roles": roles})
        with pytest.raises(ValueError, match=f"^{message}$"):
            graph_from_json(text)

    @pytest.mark.parametrize("role", [["chain"], {"blade": 1}, None, 0])
    def test_a_role_of_any_json_type_is_named(self, role):
        # an unhashable role is an unknown role like any other, not a TypeError
        message = f"unknown role {role!r} on vertex 1"
        with pytest.raises(ValueError) as exc:
            Graph.build(3, [(0, 1)], (), [CHAIN, role, BLADE])
        assert str(exc.value) == message
        text = json.dumps({"order": 3, "edges": [[0, 1]], "loops": [], "roles": [CHAIN, role, BLADE]})
        with pytest.raises(ValueError) as exc:
            graph_from_json(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "built",
        [
            lambda: Graph.build(0),
            lambda: Graph.build(4, [(0, 1), (1, 0), (2, 2), (1, 3)], [0], [CHAIN, BLADE, CHAIN, BLADE]),
            lambda: make_chainsaw(ChainsawParams(4, 3, 2)),
            lambda: make_broken_chainsaw(ChainsawParams(3, 4, 1)),
            lambda: make_cycle(1),
        ],
    )
    def test_a_built_graph_is_the_directly_constructed_one(self, built):
        g = built()
        direct = Graph(order=g.order, adjacency=g.adjacency, loops=g.loops, roles=g.roles)
        assert g == direct and hash(g) == hash(direct)
        assert type(g.adjacency) is tuple and all(type(s) is frozenset for s in g.adjacency)
        assert type(g.loops) is frozenset and type(g.roles) is tuple

    @pytest.mark.parametrize("seed", range(40))
    def test_every_construction_route_gives_one_graph(self, seed):
        g = random_graph(random.Random(3000 + seed), loop_prob=0.3)
        lists = [[set(s) for s in g.adjacency], list(g.loops), list(g.roles)]
        direct = Graph(g.order, *lists)
        routes = [
            Graph.build(g.order, g.edges(), g.loops, g.roles),
            direct,
            graph_from_json(export_graph(g, "json")),
            copy.copy(g),
            pickle.loads(pickle.dumps(g)),
        ]
        assert all(r == g and hash(r) == hash(g) for r in routes)
        for r in routes:
            assert type(r.adjacency) is tuple and all(type(s) is frozenset for s in r.adjacency)
            assert type(r.loops) is frozenset and type(r.roles) is tuple
        count = count_via_elimination(g)
        for container in (*lists[0], *lists):
            container.clear()
        assert direct == g and count_via_elimination(direct) == count

    def test_a_graph_built_from_lists_keeps_none_of_them(self):
        # Graph(...) once stored these lists: it was unhashable, unequal to the built graph,
        # and counted 4 instead of 3 once the caller cleared them
        adjacency, loops, roles = [{1}, {0}], set(), [CHAIN, CHAIN]
        g = Graph(2, adjacency, loops, roles)
        built = Graph.build(2, [(0, 1)])
        assert g == built and hash(g) == hash(built)
        assert (type(g.adjacency), type(g.loops), type(g.roles)) == (tuple, frozenset, tuple)
        for container in (*adjacency, adjacency, roles):
            container.clear()
        assert g == built and count_via_elimination(g) == 3

    def test_copies_and_pickles_of_a_built_graph_run_the_checks(self, monkeypatch):
        g = make_chainsaw(ChainsawParams(3, 2, 1))
        checked = []
        init = Graph.__init__

        def spy(self, *fields):
            checked.append(fields)
            init(self, *fields)

        monkeypatch.setattr(Graph, "__init__", spy)
        assert copy.copy(g) == g
        assert pickle.loads(pickle.dumps(g)) == g
        assert checked == [g._fields(), g._fields()]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            Graph(order=-1, adjacency=(), loops=frozenset(), roles=())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Graph(order=2, adjacency=(frozenset(),), loops=frozenset(), roles=(CHAIN, CHAIN))

    def test_build_checks_order_and_roles_before_allocating(self):
        # a billion adjacency sets would take hundreds of GB; the mismatch is found first
        text = json.dumps({"order": 10**9, "edges": [], "loops": [], "roles": [CHAIN]})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="1 roles given for order 1000000000"):
            graph_from_json(text)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("order", [-1, -(10**9)])
    def test_build_rejects_a_negative_order(self, order):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            Graph.build(order)

    @pytest.mark.parametrize("order", ["2", 2.0, None])
    def test_build_rejects_an_order_that_is_not_an_int(self, order):
        with pytest.raises(TypeError, match="order must be an int"):
            Graph.build(order, roles=[CHAIN, CHAIN])

    @pytest.mark.parametrize(
        "order,edges,loops,what",
        [
            (True, (), (), "order"),
            (False, (), (), "order"),
            (2.0, (), (), "order"),
            (3, [(0, 1), (1, 2)], [0.5], "looped vertex"),
            (3, (), [True], "looped vertex"),
            (3, (), ["0"], "looped vertex"),
            (3, [(0, 1.0)], (), "edge end"),
            (3, [(True, 1)], (), "edge end"),
            (3, [(1, True)], (), "edge end"),
            (3, [(0.5, 0.5)], (), "edge end"),
            (3, [("0", "1")], (), "edge end"),
        ],
    )
    def test_build_rejects_a_vertex_id_that_is_not_an_int(self, order, edges, loops, what):
        roles = [CHAIN] * 3 if order == 3 else None
        with pytest.raises(ValueError, match=f"{what} must be an int") as exc:
            Graph.build(order, edges, loops, roles)
        assert isinstance(exc.value, NotAnInt)

    def test_direct_construction_rejects_an_order_that_is_not_an_int(self):
        # Graph(order=True, ...) once constructed, and elimination counted 2 sets in it
        with pytest.raises(NotAnInt, match="^order must be an int, got True$"):
            Graph(order=True, adjacency=(frozenset(),), loops=frozenset(), roles=(CHAIN,))

    @pytest.mark.parametrize("vertex", [True, 0.0, "0"])
    def test_direct_construction_rejects_a_looped_vertex_that_is_not_an_int(self, vertex):
        with pytest.raises(NotAnInt, match=f"^looped vertex must be an int, got {vertex!r}$"):
            Graph(order=2, adjacency=(frozenset(), frozenset()), loops=frozenset({vertex}), roles=(CHAIN,) * 2)

    @pytest.mark.parametrize("end", [True, 1.0])
    def test_direct_construction_rejects_a_neighbor_that_is_not_an_int(self, end):
        # 1 == True == 1.0, so the symmetric entry holds and only the type is wrong
        with pytest.raises(NotAnInt, match=rf"^edge end must be an int, got \(0, {end!r}\)$"):
            Graph(order=2, adjacency=(frozenset({end}), frozenset({0})), loops=frozenset(), roles=(CHAIN,) * 2)

    @pytest.mark.parametrize(
        "field,value",
        [("order", True), ("loops", [0.5]), ("edges", [[0, 1.5]]), ("edges", [[False, 1]])],
    )
    def test_json_with_a_vertex_id_that_is_not_an_int_is_malformed(self, field, value):
        obj = {"order": 3, "edges": [[0, 1], [1, 2]], "loops": [], "roles": [CHAIN] * 3}
        obj[field] = value
        with pytest.raises(ValueError, match="malformed graph json: .* must be an int"):
            graph_from_json(json.dumps(obj))


class TestExport:
    def test_edge_list_path(self):
        assert export_graph(make_path(2), "edge-list") == "0 1\n"

    def test_edge_list_prints_loops_as_doubled_vertex(self):
        assert export_graph(make_cycle(1), "edge-list") == "0 0\n"

    def test_edge_list_sorted_with_loops_inline(self):
        g = Graph.build(3, [(0, 1)], loops=[2])
        assert export_graph(g, "edge-list") == "0 1\n2 2\n"

    def test_dimacs_cycle(self):
        assert export_graph(make_cycle(3), "dimacs") == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    def test_dimacs_counts_loops(self):
        assert export_graph(make_cycle(1), "dimacs") == "p edge 1 1\ne 1 1\n"

    def test_json_shape(self):
        obj = json.loads(export_graph(make_chainsaw(ChainsawParams(2, 2, 1)), "json"))
        assert set(obj) == {"order", "edges", "loops", "roles"}
        assert obj["order"] == 4
        assert obj["roles"].count(CHAIN) == 2

    @pytest.mark.parametrize(
        "graph",
        [
            make_path(4),
            make_cycle(5),
            make_cycle(1),
            make_chainsaw(ChainsawParams(3, 3, 2)),
            make_broken_chainsaw(ChainsawParams(2, 3, 1)),
        ],
    )
    def test_json_round_trip(self, graph):
        assert graph_from_json(export_graph(graph, "json")) == graph

    def test_json_is_one_deterministic_line(self):
        g = make_chainsaw(ChainsawParams(2, 2, 1))
        text = export_graph(g, "json")
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == export_graph(g, "json")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            export_graph(make_path(2), "graphml")

    @pytest.mark.parametrize(
        "text",
        [
            '{"order": 2}',
            "[1, 2]",
            '"graph"',
            '{"order": 2.0, "edges": [], "loops": [], "roles": []}',
            pytest.param("[" * 200_000, id="nested-200000-deep"),
            pytest.param('{"order": 3, "edges": [[0, 1, 2]], "loops": [], "roles": []}', id="edge-not-a-pair"),
            pytest.param('{"order": 2, "edges": [[0, 1]], "loops": [], "roles": null}', id="roles-null"),
            pytest.param('{"order": 2, "edges": "", "loops": [], "roles": ["chain", "chain"]}', id="edges-a-string"),
            pytest.param('{"order": 2, "edges": [], "loops": {}, "roles": ["chain", "chain"]}', id="loops-an-object"),
            pytest.param("", id="empty"),
            pytest.param('{"order": 2,}', id="json-syntax-error"),
        ],
    )
    def test_malformed_json_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="^malformed graph json: "):
            graph_from_json(text)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([make_chainsaw, make_broken_chainsaw]),
        st.integers(0, 12),
        st.integers(1, 6),
        st.data(),
    )
    def test_every_generated_graph_survives_the_json_round_trip(self, build, n, a, data):
        if build is make_chainsaw:
            n = max(n, 1)
        graph = build(ChainsawParams(n, a, data.draw(st.integers(1, a))))
        assert graph_from_json(export_graph(graph, "json")) == graph

    def test_format_list_is_stable(self):
        assert EXPORT_FORMATS == ("edge-list", "dimacs", "json")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _export_shaped(draw):
    """A json export of a small graph, each field kept, dropped or replaced by any json value."""
    order = draw(st.integers(0, 6))
    vertex = st.integers(-1, order)
    obj = {
        "order": order,
        "edges": draw(st.lists(st.lists(vertex, min_size=2, max_size=2) | _JSON_VALUES, max_size=6)),
        "loops": draw(st.lists(vertex | _JSON_VALUES, max_size=3)),
        "roles": draw(st.lists(st.sampled_from([CHAIN, BLADE]), min_size=order, max_size=order)),
    }
    for key in list(obj):
        fate = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if fate == "drop":
            del obj[key]
        elif fate == "replace":
            obj[key] = draw(_JSON_VALUES)
    return obj


def _graph_or_value_error(text):
    """graph_from_json(text) is a Graph or a ValueError (NotAnInt included), never another exception."""
    try:
        graph = graph_from_json(text)
    except ValueError:
        return
    assert isinstance(graph, Graph)


class TestJsonFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_any_text_is_a_graph_or_a_value_error(self, text):
        _graph_or_value_error(text)

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_any_json_value_is_a_graph_or_a_value_error(self, value):
        _graph_or_value_error(json.dumps(value))

    @settings(max_examples=200, deadline=None)
    @given(_export_shaped())
    def test_any_export_shaped_object_is_a_graph_or_a_value_error(self, obj):
        _graph_or_value_error(json.dumps(obj))
