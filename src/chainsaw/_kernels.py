"""The one state DP behind the brute-force oracle and elimination's first pass, on exact ints.

Every independent set either leaves out a vertex v or holds it and none of
its neighbours, so I(G) = I(G - v) + x * I(G - N[v]). ``frontier_pass``
decides the vertices one by one in ``breadth_first`` order, and the sweep
that numbers them also yields each one's later neighbours. A state is the
set of later vertices that a chosen vertex blocks, as bits relative to the
current position (bit 0 is the vertex being decided), so keys stay as wide
as the numbering's bandwidth; two choices that block the same set merge.
On C(n, a, b) and P(n, a, b) each blade follows its chain vertex, so a step
holds a handful of states. A state after deciding i + 1 vertices is a set
of later vertices that at most 2^(i + 1) choices reach, so a step holds at
most min(2^(i + 1), 2^(order - i - 1)) of them.

``strata_by_chain_count`` is the oracle: the pass with no state limit, with
x = z = 2^(order + 1) on a chain vertex and x = 1 on a blade, so the strata
travel packed as the coefficients of z (no stratum count exceeds 2^order).
Elimination (``counting._eliminate``) runs the same pass first, with a
state limit. That costs no independence, as no verify row compares the
oracle with elimination: its strata rows compare it with the closed form.
"""

from __future__ import annotations

import operator


def active_backend() -> str:
    """Name of the kernel implementation, for run records."""
    return "python"


def same(value):
    """The weight as it is: x = 1."""
    return value


def breadth_first(adjacency) -> tuple[list[int], list[int]]:
    """The vertices breadth-first from each lowest vertex not yet placed, and each one's later neighbours.

    On C(n, a, b) and P(n, a, b) this puts each blade next to its chain
    vertex, so the pass sees a chain of cliques. Entry i of the masks holds
    the neighbours placed after the i-th vertex, as bits relative to the
    next position (bit j is position i + 1 + j), read off in the same sweep
    that places them: each adjacency set is walked once.
    """
    pos = [-1] * len(adjacency)
    order: list[int] = []
    masks: list[int] = []
    head = 0
    for root in range(len(adjacency)):
        if pos[root] >= 0:
            continue
        pos[root] = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1  # the position after v's, bit 0 of its mask
            fwd = 0
            for u in adjacency[v]:
                p = pos[u]
                if p < 0:
                    p = pos[u] = len(order)
                    order.append(u)
                if p >= head:
                    fwd |= 1 << (p - head)
            masks.append(fwd)
    return order, masks


def frontier_pass(adjacency, loops, one, add, shift_of, limit: int):
    """I(G) by deciding the vertices in ``breadth_first`` order, or None past `limit` states a step.

    adjacency[v] holds v's neighbours, without v (a looped vertex is in
    `loops`). Each state goes on with the vertex left out, and with it taken
    when it is neither blocked nor looped; taking v multiplies the weight by
    ``shift_of(v)``, a function looked up once per vertex (``same``, x = 1,
    is not even called). Equal states merge through `add`; the values start
    from `one`.
    """
    states = {0: one}
    for v, fwd in zip(*breadth_first(adjacency)):  # fwd: v's later neighbours, relative to the next position
        shift = None if v in loops else shift_of(v)
        step: dict = {}
        for b, w in states.items():
            nb = b >> 1
            old = step.get(nb)
            step[nb] = w if old is None else add(old, w)
            if shift is not None and not b & 1:
                nb |= fwd
                if shift is not same:
                    w = shift(w)
                old = step.get(nb)
                step[nb] = w if old is None else add(old, w)
        if len(step) > limit:
            return None
        states = step
    return states[0]


def strata_by_chain_count(adjacency, loops, chain, order: int) -> list[int]:
    """Independent-set counts split by how many vertices of `chain` each set uses.

    adjacency[v] holds v's neighbours, symmetric and without v (self-loops
    go in `loops`); `chain` is a set of vertices. Entry t of the result
    (length order + 1) counts the independent sets holding exactly t chain
    vertices; the empty set is in entry 0.
    """
    if len(adjacency) != order:
        raise ValueError(f"expected {order} adjacency lists, got {len(adjacency)}")
    slot = order + 1
    up = (1 << slot).__mul__  # times z
    # every step holds at most 2^order states, so that limit is never passed
    packed = frontier_pass(adjacency, loops, 1, operator.add, lambda v: up if v in chain else same, 1 << order)
    return [packed >> (slot * t) & ((1 << slot) - 1) for t in range(slot)]
