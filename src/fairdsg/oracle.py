"""Exhaustive ground truth for small instances: the densest node set,
optionally restricted to fair sets.

Enumeration walks all non-empty subsets in Gray-code order, so each step
toggles a single node and the internal edge weight updates incrementally.
Total cost is O(2^n * max_degree), capped at n = 20.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import RED, Coloring, LabeledGraph, NodeSet

ORACLE_MAX_N = 20


@dataclass(frozen=True)
class OracleResult:
    node_set: NodeSet
    density: float
    feasible: bool


def brute_force_densest(g: LabeledGraph, c: Coloring | None = None) -> OracleResult:
    """Exact maximizer of density over the non-empty node sets, restricted
    to fair sets (as many red as blue nodes) when the coloring ``c`` is given.

    Ties prefer smaller sets, then the lexicographically smallest member
    tuple. When no set qualifies, for instance under a coloring with an
    empty class, the result is empty and flagged infeasible.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError("instance too large for oracle")
    n = g.n
    adj = [[] for _ in range(n)]
    for u, v, w in g.edges():
        adj[u].append((v, w))
        adj[v].append((u, w))
    codes = c.codes if c is not None else None

    in_set = [False] * n
    members: set[int] = set()
    w_in = 0.0
    size = 0
    red = 0
    best_dens = None
    best_size = 0
    best_tup: tuple[int, ...] = ()
    found = False
    for i in range(1, 1 << n):
        bit = (i & -i).bit_length() - 1
        delta = 0.0
        for j, w in adj[bit]:
            if in_set[j]:
                delta += w
        if in_set[bit]:
            in_set[bit] = False
            members.discard(bit)
            w_in -= delta
            size -= 1
            if codes is not None and codes[bit] == RED:
                red -= 1
        else:
            in_set[bit] = True
            members.add(bit)
            w_in += delta
            size += 1
            if codes is not None and codes[bit] == RED:
                red += 1
        if codes is not None and 2 * red != size:
            continue
        dens = 2.0 * w_in / size
        if best_dens is None or dens > best_dens:
            best_dens, best_size, best_tup = dens, size, tuple(sorted(members))
            found = True
        elif dens == best_dens and size <= best_size:
            tup = tuple(sorted(members))
            if size < best_size or tup < best_tup:
                best_size, best_tup = size, tup
    if not found:
        return OracleResult(NodeSet(), 0.0, feasible=False)
    return OracleResult(NodeSet(best_tup), float(best_dens), feasible=True)
