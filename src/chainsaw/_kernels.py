"""Meet-in-the-middle subset kernel behind the brute-force oracle, on exact ints.

The vertices are split into a low half A and a high half B (Horowitz and
Sahni's split). Every independent set is T | U, with T an independent
subset of A and U one of the room B \\ N(T), loops left out. The A side
lists its independent subsets by extension and sums their weights per room.
The B side counts each room's independent subsets by branching on the
lowest vertex v, g(S) = g(S - v) + z^c(v) * g(S - N[v]): the identity
elimination uses, which costs no independence, as no verify row compares
the oracle with elimination (its strata rows compare it with the closed
form). Each branch raises the lowest vertex, so the states are settled in
that order, each once, with no stack. A vertex with no neighbour in B is a
factor 1 + z^c(v) of every room holding it, taken out first; one with no
neighbour at all outside the loops is such a factor of the whole count,
taken out before the listing, so the edgeless graph lists nothing. The strata
travel packed as the coefficients of z = 2^(order + 1), since no stratum
count exceeds 2^order.
"""

from __future__ import annotations


def active_backend() -> str:
    """Name of the kernel implementation, for run records."""
    return "python"


def _times_free(w: int, free: int, chain_mask: int, slot: int) -> int:
    """Packed weight w times 1 + z^c(v) for each vertex v of `free`, z = 2^slot."""
    w <<= (free & ~chain_mask).bit_count()
    for _ in range((free & chain_mask).bit_count()):
        w += w << slot
    return w


def strata_by_chain_count(adj_masks, loop_mask: int, chain_mask: int, order: int) -> list[int]:
    """Independent-set counts split by how many chain-mask bits each set uses.

    adj_masks[v] is the neighbour mask of vertex v: symmetric, without v
    itself (self-loops go in loop_mask). Entry t of the result (length
    order + 1) counts the independent sets holding exactly t chain-mask
    vertices; the empty set is in entry 0.
    """
    adj = [int(m) for m in adj_masks]
    if len(adj) != order:
        raise ValueError(f"expected {order} adjacency masks, got {len(adj)}")
    slot = order + 1
    split = (order + 1) // 2
    isolated = sum(1 << v for v in range(order) if not (loop_mask >> v & 1 or adj[v] & ~loop_mask))
    loop_mask |= isolated  # out of the listing; multiplied back in at the end
    free_b = ((1 << order) - 1) & ~((1 << split) - 1) & ~loop_mask
    lone = sum(1 << v for v in range(split, order) if free_b >> v & 1 and not adj[v] & free_b)

    # the independent subsets T of A, as N(T) and z^chains(T), each T once
    nbrs, weights = [0], [1]
    for v in range(split):
        if not loop_mask >> v & 1:
            bit, nv, shift = 1 << v, adj[v], slot if chain_mask >> v & 1 else 0
            keep = [i for i, n in enumerate(nbrs) if not n & bit]
            nbrs += [nbrs[i] | nv for i in keep]
            weights += [weights[i] << shift for i in keep]

    rooms: dict[int, int] = {}
    for n, w in zip(nbrs, weights):
        room = free_b & ~n
        rooms[room] = rooms.get(room, 0) + w
    # states[v]: what is left of a room -> packed weight, filed under its lowest vertex v
    states: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for room, w in rooms.items():
        alone = room & lone
        w = _times_free(w, alone, chain_mask, slot)
        room ^= alone
        bucket = states[(room & -room).bit_length() - 1]
        bucket[room] = bucket.get(room, 0) + w
    for v in range(split, order):
        bit, nv, shift = 1 << v, adj[v], slot if chain_mask >> v & 1 else 0
        for s, w in states[v].items():
            for rest, x in ((s ^ bit, w), (s & ~nv & ~bit, w << shift)):
                bucket = states[(rest & -rest).bit_length() - 1]
                bucket[rest] = bucket.get(rest, 0) + x

    packed = _times_free(states[-1].get(0, 0), isolated, chain_mask, slot)  # the empty state is at -1
    return [packed >> (slot * t) & ((1 << slot) - 1) for t in range(slot)]
