"""Lowest-vertex branching kernel behind the brute-force oracle, on exact ints.

Every independent set of the vertex set S either leaves out its lowest
vertex v or holds it and none of its neighbours, so
g(S) = g(S - v) + z^c(v) * g(S - N[v]), with c(v) = 1 for a chain vertex.
That is the identity elimination uses; it costs no independence, as no
verify row compares the oracle with elimination (its strata rows compare
it with the closed form). The pass starts from every vertex outside the
loops. Each branch raises the lowest vertex, so the states are settled in
that order, each once, with no stack, and two branches that reach the same
set merge: an edgeless graph or a hub with pendant vertices is one state
per level. A state at level v is a set of vertices >= v that at most 2^v
branchings reach, so level v holds at most min(2^v, 2^(order - v)) states.
The strata travel packed as the coefficients of z = 2^(order + 1), since no
stratum count exceeds 2^order.
"""

from __future__ import annotations


def active_backend() -> str:
    """Name of the kernel implementation, for run records."""
    return "python"


def strata_by_chain_count(adj_masks, loop_mask: int, chain_mask: int, order: int) -> list[int]:
    """Independent-set counts split by how many chain-mask bits each set uses.

    adj_masks[v] is the neighbour mask of vertex v: symmetric, without v
    itself (self-loops go in loop_mask). Entry t of the result (length
    order + 1) counts the independent sets holding exactly t chain-mask
    vertices; the empty set is in entry 0.
    """
    if len(adj_masks) != order:
        raise ValueError(f"expected {order} adjacency masks, got {len(adj_masks)}")
    slot = order + 1
    start = ((1 << order) - 1) & ~loop_mask
    # states[v]: the sets whose lowest vertex is v -> packed weight; the empty set is at -1
    states: list[dict[int, int]] = [{} for _ in range(slot)]
    states[(start & -start).bit_length() - 1][start] = 1
    for v in range(order):
        bit, keep, shift = 1 << v, ~adj_masks[v], slot if chain_mask >> v & 1 else 0
        for s, w in states[v].items():
            s ^= bit
            bucket = states[(s & -s).bit_length() - 1]
            bucket[s] = bucket.get(s, 0) + w
            s &= keep
            bucket = states[(s & -s).bit_length() - 1]
            bucket[s] = bucket.get(s, 0) + (w << shift)

    packed = states[-1].get(0, 0)
    return [packed >> (slot * t) & ((1 << slot) - 1) for t in range(slot)]
