"""Exhaustive ground truth for small instances: the densest node set,
optionally restricted to fair sets.

Enumeration walks all non-empty subsets in Gray-code order, so each step
toggles a single node and the internal edge weight updates incrementally.
That weight is kept exactly: the edge weights are scaled by the smallest
power of two that makes them all integers, so exact ties stay ties.
Total cost is O(2^n * max_degree), capped at n = 20.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import RED, Coloring, LabeledGraph, NodeSet, density

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
    empty class, the result is empty and flagged infeasible. The density
    is reported as :func:`~fairdsg.graph.density` computes it.
    """
    if g.n > ORACLE_MAX_N:
        raise ValueError("instance too large for oracle")
    n = g.n
    edges = [(u, v, *w.as_integer_ratio()) for u, v, w in g.edges()]
    scale = max((den for *_, den in edges), default=1)
    # bit b of a walk step's mask is node n - 1 - b, so of two sets of one
    # size the one with the larger mask has the smaller member tuple
    adj = [[] for _ in range(n)]
    for u, v, num, den in edges:
        adj[n - 1 - u].append((n - 1 - v, num * (scale // den)))
        adj[n - 1 - v].append((n - 1 - u, num * (scale // den)))
    is_red = [c is not None and c.codes[v] == RED for v in reversed(range(n))]

    in_set = [False] * n
    w_in = 0
    size = 0
    red = 0
    # per set size, the largest internal weight seen (-1: none) and the
    # largest mask that reaches it; step i's mask is the Gray code i ^ (i >> 1)
    top_w = [-1] * (n + 1)
    top_mask = [0] * (n + 1)
    for i in range(1, 1 << n):
        bit = (i & -i).bit_length() - 1
        delta = 0
        for j, w in adj[bit]:
            if in_set[j]:
                delta += w
        step = -1 if in_set[bit] else 1
        in_set[bit] = step > 0
        w_in += step * delta
        size += step
        if is_red[bit]:
            red += step
        if c is not None and 2 * red != size:
            continue
        if w_in > top_w[size]:
            top_w[size], top_mask[size] = w_in, i ^ (i >> 1)
        elif w_in == top_w[size] and i ^ (i >> 1) > top_mask[size]:
            top_mask[size] = i ^ (i >> 1)
    # the densest size, the smaller on a tie, by cross-multiplication
    best = 0
    for k in range(1, n + 1):
        if top_w[k] >= 0 and (not best or top_w[k] * best > top_w[best] * k):
            best = k
    if not best:
        return OracleResult(NodeSet(), 0.0, feasible=False)
    best_set = NodeSet([n - 1 - b for b in range(n) if top_mask[best] >> b & 1])
    return OracleResult(best_set, density(g, best_set), feasible=True)
