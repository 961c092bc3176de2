"""Meet-in-the-middle subset kernel behind the brute-force oracle.

A subset of vertices is a bitmask; it is independent when it holds no
looped vertex and no two adjacent ones. Instead of testing all 2^order
subsets, the vertices are split into a low half A and a high half B
(Horowitz and Sahni's split). Every independent set is T | U with T an
independent subset of A and U an independent subset of B \\ N(T), so a
table over the subsets of B, summed over sub-subsets (Yates' zeta
transform, the "subset sum" of Bjorklund, Husfeldt, Kaski and Koivisto),
answers each T with one lookup. The work is about 2^(order/2) table rows
instead of 2^order subset tests.

Counts are int64: an order is capped at 48 bits, so no count reaches 2^63.
"""

from __future__ import annotations

import numpy as np

_MASK_BIT_LIMIT = 48


def active_backend() -> str:
    """Name of the kernel implementation, for run records."""
    return "numpy"


def _half_tables(adj, loop_mask: int, chain_mask: int, lo: int, hi: int):
    """Tables over the subsets S of vertices lo..hi-1, indexed by S >> lo.

    Returns whether S is independent, how many chain vertices it holds and
    the union of its members' neighbourhoods (a mask over all vertices).
    The last two are built one vertex at a time, each vertex doubling the
    table: the new upper half is the old one with that vertex added. S is
    independent when no member is looped or a neighbour of another member.
    """
    size = 1 << (hi - lo)
    chains = np.zeros(size, dtype=np.int64)
    nbrs = np.zeros(size, dtype=np.int64)
    for v in range(lo, hi):
        half = 1 << (v - lo)
        np.add(chains[:half], (chain_mask >> v) & 1, out=chains[half : 2 * half])
        np.bitwise_or(nbrs[:half], adj[v], out=nbrs[half : 2 * half])
    members = np.arange(size, dtype=np.int64) << lo
    indep = ((members & loop_mask) == 0) & ((members & nbrs) == 0)
    return indep, chains, nbrs


def strata_by_chain_count(adj_masks, loop_mask: int, chain_mask: int, order: int) -> list[int]:
    """Independent-set counts split by how many chain-mask bits each set uses.

    adj_masks[v] is the neighbour mask of vertex v: symmetric, without v
    itself (self-loops go in loop_mask). Entry t of the result (length
    order + 1) counts the independent sets holding exactly t chain-mask
    vertices; the empty set is in entry 0.
    """
    if order > _MASK_BIT_LIMIT:
        raise ValueError(f"mask kernels support at most {_MASK_BIT_LIMIT} vertices, got {order}")
    adj = [int(m) for m in adj_masks]
    if len(adj) != order:
        raise ValueError(f"expected {order} adjacency masks, got {len(adj)}")
    split = (order + 1) // 2
    width = order - split
    indep_a, chains_a, nbrs_a = _half_tables(adj, loop_mask, chain_mask, 0, split)
    indep_b, chains_b, _ = _half_tables(adj, loop_mask, chain_mask, split, order)

    # table[S, k]: independent U within S (S a subset of B) with k chain vertices
    columns = int(chains_b.max()) + 1
    table = np.zeros((1 << width, columns), dtype=np.int64)
    table[np.arange(1 << width), chains_b] = indep_b
    for i in range(width):
        view = table.reshape(-1, 2, 1 << i, columns)
        view[:, 1] += view[:, 0]

    # each independent T in A adds the row of B \ N(T), shifted by T's chain count
    room = ~(nbrs_a[indep_a] >> split) & ((1 << width) - 1)
    counts = np.zeros(order + 1, dtype=np.int64)
    np.add.at(counts, chains_a[indep_a, None] + np.arange(columns), table[room])
    return counts.tolist()
