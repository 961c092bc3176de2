"""Labeled simple graphs (self-loops allowed) and the chainsaw-family generators.

Vertices are integers 0..order-1 with no gaps. Each vertex carries a role
tag: ``chain`` for vertices on the central cycle/path skeleton, ``blade``
for the clique-only vertices hanging off it. Self-loops live in a separate
set, never inside the adjacency lists; a looped vertex can join no
independent set.

Generated graphs use a canonical numbering: chain vertices first
(0..n-1), then the blades in order, a-1 vertices each. Chain vertex v owns
blade v of C(n, a, b), n >= 1. P(n, a, b), C(n+1, a, b) minus chain vertex
0 and renumbered in order, starts with the ownerless blade 0, and v owns
blade v+1; P(0, a, b) is that blade alone, K_{a-1}. This keeps exports and
memo keys reproducible. The n-vertex path and cycle are P(n, 1, 1) and
C(n, 1, 1).
"""

from __future__ import annotations

import json
from itertools import chain, combinations
from typing import Iterable, Iterator

CHAIN = "chain"
BLADE = "blade"

EXPORT_FORMATS = ("edge-list", "dimacs", "json")


class NotAnInt(ValueError, TypeError):
    """An order, edge end or looped vertex whose type is not exactly int, such as a float or a bool.

    A ValueError like every other rejected graph, and a TypeError like
    every other wrongly typed field of a json export.
    """


def _check_int(value, what: str) -> None:
    if type(value) is not int:
        raise NotAnInt(f"{what} must be an int, got {value!r}")


class _Frozen:
    """Base of the immutable value classes, whose fields are their ``__slots__``.

    A subclass's ``__init__`` checks its arguments and sets each field once
    through ``_init``; assigning or deleting an attribute afterwards raises
    AttributeError. Instances compare and hash by their field tuple, equal
    only to an instance of the same class, and print as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, and so its checks
        return self.__class__, self._fields()


class Graph(_Frozen):
    """Immutable labeled graph, checked by one routine: :meth:`Graph.build`'s single pass.

    Direct construction hands that pass its adjacency as an edge list: it
    takes any iterables, stores build's fields (a tuple of frozensets, a
    frozenset and a tuple) and rejects bad input with build's messages.
    """

    __slots__ = ("order", "adjacency", "loops", "roles")

    def __init__(
        self,
        order: int,
        adjacency: Iterable[Iterable[int]],
        loops: Iterable[int],
        roles: Iterable[str],
    ) -> None:
        adjacency = tuple(map(frozenset, adjacency))
        built = self.build(order, [(v, u) for v, nbrs in enumerate(adjacency) for u in nbrs], loops, tuple(roles))
        if built.adjacency != adjacency:  # also unequal when len(adjacency) != order
            raise ValueError("adjacency must be `order` symmetric sets, with self-loops in `loops`")
        self._init(*built._fields())

    @classmethod
    def build(
        cls,
        order: int,
        edges: Iterable[tuple[int, int]] = (),
        loops: Iterable[int] = (),
        roles: Iterable[str] | None = None,
    ) -> "Graph":
        """Construct a graph from an edge list, in the one pass that checks every graph.

        Duplicate edges collapse (the graph is simple); a pair (v, v) is
        treated as a self-loop on v. Roles default to all-chain. The order,
        every edge end and every looped vertex must be an int, else NotAnInt.
        The order and the roles are checked before any adjacency set is
        allocated; the fields are set without ``__init__``, which runs this pass.
        """
        _check_int(order, "order")
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        role_tuple = tuple(roles) if roles is not None else (CHAIN,) * order
        if len(role_tuple) != order:
            raise ValueError(f"{len(role_tuple)} roles given for order {order}")
        adj: list[set[int]] = [set() for _ in range(order)]
        loop_set = set(loops)
        for v in loop_set:
            _check_int(v, "looped vertex")
        for u, v in edges:  # checked inline: every generated graph passes each edge here
            if type(u) is not int or type(v) is not int:
                raise NotAnInt(f"edge end must be an int, got ({u!r}, {v!r})")
            if u == v:
                loop_set.add(u)
                continue
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            adj[u].add(v)
            adj[v].add(u)
        for v in loop_set:
            if not 0 <= v < order:
                raise ValueError(f"looped vertex {v} out of range")
        # counted, not hashed into a set, so an unhashable role from json is named like any other
        if role_tuple.count(CHAIN) + role_tuple.count(BLADE) != order:
            for v, r in enumerate(role_tuple):
                if r not in (CHAIN, BLADE):
                    raise ValueError(f"unknown role {r!r} on vertex {v}")
        graph = object.__new__(cls)
        graph._init(order, tuple(map(frozenset, adj)), frozenset(loop_set), role_tuple)
        return graph

    @property
    def size(self) -> int:
        """Number of non-loop edges."""
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """Non-loop edges as sorted (u, v) pairs with u < v."""
        return sorted((v, u) for v, nbrs in enumerate(self.adjacency) for u in nbrs if u > v)

    def chain_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r == CHAIN)

    def blade_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r == BLADE)


class ChainsawParams(_Frozen):
    """The (n, a, b) triple: chain length, blade size, and the wiring gap a-b.

    n = 0 is admitted for P(0, a, b); C(n, a, b) itself needs n >= 1.
    A field whose type is not exactly int is NotAnInt.
    """

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: int, b: int) -> None:
        _check_int(n, "n")
        _check_int(a, "a")
        _check_int(b, "b")
        if n < 0 or b < 1 or a < b:
            raise ValueError(
                f"chainsaw parameters require n >= 0 and a >= b >= 1, got n={n}, a={a}, b={b}"
            )
        self._init(n, a, b)


def make_path(n: int) -> Graph:
    """The n-vertex path P(n, 1, 1); n = 0 yields the empty graph. All roles chain."""
    return make_broken_chainsaw(ChainsawParams(n, 1, 1))


def make_cycle(n: int) -> Graph:
    """The n-vertex cycle C(n, 1, 1), n >= 1, with its 1-loop and 2-edge conventions. All roles chain."""
    return make_chainsaw(ChainsawParams(n, 1, 1))


def _saw_edges(n: int, a: int, b: int, broken: bool) -> Iterator[tuple[int, int]]:
    """The edges of C(n, a, b), or P(n, a, b) when `broken`, from a few iterators that each span every blade.

    Place i of blade j is vertex n + j(a - 1) + i. One iterator gives the
    chain, a - 1 join each owner to place i of its blade, one per pair
    i < j joins the places within each blade, and a - b wire each chain
    vertex to place k of the next blade, the last vertex to blade 0. Each
    is a zip of ranges, so the Python work grows with a^2, not with n.
    Every vertex meets its neighbours in the order a walk blade by blade
    gives (chain, its blade's places in order, wiring), so its adjacency
    set iterates in that walk's order, which ``breadth_first`` follows.
    """
    order, step = n + (n + broken) * (a - 1), a - 1
    # the cycle closes with (n-1, 0): at n = 1 that is (0, 0), which Graph.build reads as the loop,
    # and at n = 2 it is (1, 0), the edge (0, 1) again; a path stops before it
    parts = [zip(range(n - broken), chain(range(1, n), (0,)))]
    parts += (zip(range(n), range(n + broken * step + i, order, step)) for i in range(step))
    parts += (zip(range(n + i, order, step), range(n + j, order, step)) for i, j in combinations(range(step), 2))
    # chain vertex v < n-1 to place k of blade v + broken + 1, then n-1 to place k of blade 0
    parts += (
        zip(range(n), chain(range(n + (broken + 1) * step + k, order, step), (n + k,))) for k in range(a - b)
    )
    return chain.from_iterable(parts)


def _saw(params: ChainsawParams, broken: bool) -> Graph:
    """C(n, a, b), or P(n, a, b) when `broken`, in the canonical numbering, in one pass with no edge list."""
    n, a, b = params.n, params.a, params.b
    blades = n + broken
    if blades < 1:
        raise ValueError(f"the chainsaw C(n, a, b) requires n >= 1, got n={n}")
    roles = (CHAIN,) * n + (BLADE,) * (blades * (a - 1))
    return Graph.build(n + blades * (a - 1), _saw_edges(n, a, b, broken), (), roles)


def make_chainsaw(params: ChainsawParams) -> Graph:
    """Build the chainsaw graph C(n, a, b), n >= 1.

    Chain vertices 0..n-1 form an n-cycle (with the 1-vertex loop and
    2-vertex single-edge conventions). Each chain vertex v is completed to
    an a-clique by its blade of a-1 vertices and wired to the a-b
    lowest-indexed vertices of the next blade, that of (v+1) mod n; for
    n = 1 these fall inside the only clique and collapse into its edges.
    """
    return _saw(params, False)


def make_broken_chainsaw(params: ChainsawParams) -> Graph:
    """Build the broken chainsaw P(n, a, b): C(n+1, a, b) minus chain vertex 0, renumbered in order.

    Built directly: the chain is a path, the orphaned blade 0 is a clique of
    its a-1 vertices, and chain vertex v owns blade v+1 and is wired to the
    a-b lowest-indexed vertices of the next blade, blade 0 for v = n-1.
    P(0, a, b) is blade 0 alone, K_{a-1}.
    """
    return _saw(params, True)


def export_graph(g: Graph, fmt: str) -> str:
    """Render a graph as deterministic text in one of EXPORT_FORMATS.

    edge-list: one "u v" line per edge, loops as "v v", sorted.
    dimacs: "p edge <order> <size>" then 1-indexed "e u v" lines.
    json: object with order, edges, loops, roles; round-trips through
    :func:`graph_from_json` to an identical graph.
    """
    pairs = sorted(g.edges() + [(v, v) for v in g.loops])
    if fmt == "edge-list":
        return "".join(f"{u} {v}\n" for u, v in pairs)
    if fmt == "dimacs":
        header = f"p edge {g.order} {len(pairs)}\n"
        return header + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
    if fmt == "json":
        obj = {
            "order": g.order,
            "edges": [[u, v] for u, v in g.edges()],
            "loops": sorted(g.loops),
            "roles": list(g.roles),
        }
        return json.dumps(obj, sort_keys=True) + "\n"
    raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")


def _pair(edge) -> tuple:
    if type(edge) is not list or len(edge) != 2:
        raise TypeError(f"edge {edge!r} is not a pair")
    return tuple(edge)


def graph_from_json(text: str) -> Graph:
    """Rebuild a graph from its json export; anything else is a ValueError."""
    try:
        obj = json.loads(text)
        order, edges, loops, roles = obj["order"], obj["edges"], obj["loops"], obj["roles"]
        for name, value in (("edges", edges), ("loops", loops), ("roles", roles)):
            if type(value) is not list:
                raise TypeError(f"{name} must be a list, got {value!r}")
        return Graph.build(order, [_pair(e) for e in edges], loops, roles)
    except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed graph json: {exc}") from exc
