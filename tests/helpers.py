"""Reference implementations shared by the test modules.

Everything here re-derives its answer straight from a definition: an
independent set by growing vertex sets one vertex at a time, a Lucas-type
value by its recurrence one step at a time. No code is shared with the
package engines, so agreement between an engine and a reference is a genuine
cross-check rather than a tautology. The chainsaw comes from its definition
one blade at a time, and the broken chainsaw from it by deleting a vertex.
"""

import itertools
import math

from chainsaw.graphs import BLADE, CHAIN, ChainsawParams, Graph, make_chainsaw


def independent_subsets(g):
    """Yield every independent set of g, each as an increasing tuple of vertices.

    A set grows by one vertex above its largest, chosen among the unlooped
    vertices with no neighbour in the set, so every step yields a new set and
    the cost is one step per independent set, not one per subset.
    """

    def grow(chosen, candidates):
        yield chosen
        for i, v in enumerate(candidates):
            yield from grow(chosen + (v,), [u for u in candidates[i + 1 :] if u not in g.adjacency[v]])

    return grow((), [v for v in range(g.order) if v not in g.loops])


def reference_count(g):
    return sum(1 for _ in independent_subsets(g))


def reference_polynomial(g):
    by_size = {}
    for s in independent_subsets(g):
        by_size[len(s)] = by_size.get(len(s), 0) + 1
    return [by_size.get(t, 0) for t in range(max(by_size) + 1)]


def reference_strata(g):
    chain = set(g.chain_vertices())
    table = {}
    for s in independent_subsets(g):
        t = len(chain.intersection(s))
        table[t] = table.get(t, 0) + 1
    return table


def binom(n, k):
    """C(n, k), and 0 outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def reference_recurrence(n, p, q, w0, w1):
    """W_n of W_k = p W_{k-1} - q W_{k-2} from (W_0, W_1) = (w0, w1), one step at a time."""
    for _ in range(n):
        w0, w1 = w1, p * w1 - q * w0
    return w0


def random_graph(rng, max_order=12, loop_prob=0.1):
    """A reproducible random graph with mixed roles and occasional loops."""
    order = rng.randint(0, max_order)
    density = rng.uniform(0.05, 0.6)
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(order), 2)
        if rng.random() < density
    ]
    loops = [v for v in range(order) if rng.random() < loop_prob]
    roles = tuple(rng.choice((CHAIN, BLADE)) for _ in range(order))
    return Graph.build(order, edges, loops, roles)


def reference_broken_chainsaw(params):
    """P(n, a, b) as the paper defines it: C(n+1, a, b) minus chain vertex 0, renumbered in order."""
    g = make_chainsaw(ChainsawParams(params.n + 1, params.a, params.b))
    edges = [(u - 1, v - 1) for u, v in g.edges() if 0 not in (u, v)]
    loops = [v - 1 for v in g.loops if v != 0]
    return Graph.build(g.order - 1, edges, loops, g.roles[1:])


def reference_chainsaw(params):
    """C(n, a, b) as the paper defines it, one blade at a time, in the canonical numbering.

    The n-cycle on chain vertices 0..n-1 (at n = 1 a loop, at n = 2 one
    edge), then each chain vertex v completed to an a-clique by its blade,
    the a-1 vertices from n + v(a-1), then v wired to the a-b lowest
    vertices of the next blade, that of (v+1) mod n.
    """
    n, a, b = params.n, params.a, params.b

    def blade(v):
        return list(range(n + v * (a - 1), n + (v + 1) * (a - 1)))

    edges = [(v, (v + 1) % n) for v in range(n)]
    for v in range(n):
        edges.extend(itertools.combinations([v] + blade(v), 2))
    for v in range(n):
        edges.extend((v, u) for u in blade((v + 1) % n)[: a - b])
    return Graph.build(n * a, edges, (), (CHAIN,) * n + (BLADE,) * (n * (a - 1)))
