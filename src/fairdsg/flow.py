"""Exact densest subgraph via max-flow, plus the fair 2-approximation.

The solver runs Dinkelbach's parametric iteration on Goldberg's network:
source -> u with capacity d_u, u -> sink with capacity rho, and each
undirected edge {u, v} as two directed arcs of capacity w(u, v). A cut with
source side S (minus the source) costs 2 w(E) - |S| (rho(S) - rho), where
rho(S) = 2 w(E_S)/|S| is the density, so the minimum cut maximizes
|S| (rho(S) - rho). The network is built once; each round sets the sink
capacities to the density of the current set, and the min cut's source
side is strictly denser until the current set is optimal.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import (BLUE, RED, Coloring, LabeledGraph, NodeSet, balance,
                    color_counts, density, is_fair)
from .sweep import SolutionRecord, SolveStatus, make_record


class FlowNetwork:
    """s-t network with a residual arc-list representation."""

    def __init__(self, n_nodes: int, source: int, sink: int):
        if n_nodes < 2:
            raise ValueError("a flow network needs at least source and sink")
        if not (0 <= source < n_nodes and 0 <= sink < n_nodes):
            raise ValueError("source/sink ids out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        self.n = n_nodes
        self.source = source
        self.sink = sink
        self._to: list[int] = []
        self._cap: list[float] = []
        self._head: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_arc(self, u: int, v: int, cap: float) -> int:
        """Add arc u -> v and return its index; its capacity is ``_cap[index]``."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"arc ({u}, {v}) references an unknown node")
        if cap < 0:
            raise ValueError("capacities must be non-negative")
        # forward arc at even index, residual reverse arc right after it
        index = len(self._to)
        self._head[u].append(index)
        self._to.append(v)
        self._cap.append(float(cap))
        self._head[v].append(index + 1)
        self._to.append(u)
        self._cap.append(0.0)
        return index

    @property
    def num_arcs(self) -> int:
        return len(self._to) // 2


def max_flow(net: FlowNetwork) -> tuple[float, NodeSet]:
    """Exact max flow (Dinic) and the source side of a minimum cut."""
    to = net._to
    cap = list(net._cap)  # residual capacities; the network stays reusable
    head = net._head
    s, t = net.source, net.sink
    eps = 1e-12 * max(1.0, max(net._cap, default=0.0))
    total = 0.0
    level = [-1] * net.n

    def bfs() -> bool:
        for i in range(net.n):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in head[u]:
                v = to[a]
                if level[v] < 0 and cap[a] > eps:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[t] >= 0

    while bfs():
        it = [0] * net.n
        # iterative DFS for a blocking flow in the level graph
        path: list[int] = []
        u = s
        while True:
            if u == t:
                aug = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= aug
                    cap[a ^ 1] += aug
                total += aug
                # retreat to just past the first saturated arc
                for i, a in enumerate(path):
                    if cap[a] <= eps:
                        path = path[:i]
                        break
                u = to[path[-1]] if path else s
                continue
            advanced = False
            while it[u] < len(head[u]):
                a = head[u][it[u]]
                v = to[a]
                if cap[a] > eps and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    break
                level[u] = -1
                a = path.pop()
                u = to[a ^ 1]  # the reverse arc points back at the tail

    # residual reachability from the source gives a minimum cut
    seen = [False] * net.n
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for a in head[u]:
            v = to[a]
            if not seen[v] and cap[a] > eps:
                seen[v] = True
                queue.append(v)
    return total, NodeSet(i for i in range(net.n) if seen[i])


@dataclass(frozen=True)
class DensestResult:
    """A maximum-density set, its density 2 w(E_S)/|S| recomputed on the
    set, and the number of max-flow solves it took."""

    node_set: NodeSet
    density: float
    iterations: int


def exact_densest_subgraph(g: LabeledGraph) -> DensestResult:
    """Largest subgraph of maximum density 2 w(E_S)/|S|, for any weights.

    Dinkelbach's iteration from S = V: solve the min cut at rho = rho(S)
    and move to its source side while that side is non-empty and strictly
    denser. Densities are recomputed on the sets, so every accepted round
    raises the density and the loop ends after finitely many solves; the
    last cut certifies that no set beats rho(S). On a graph without edges
    the result is the lowest-id node at density 0, with no solve.
    """
    if g.n < 1:
        raise ValueError("graph has no nodes")
    if g.num_edges == 0:
        return DensestResult(NodeSet([0]), 0.0, 0)
    net = FlowNetwork(g.n + 2, source=g.n, sink=g.n + 1)
    sink_arcs = []
    for u in range(g.n):
        d = float(g.degrees[u])
        if d > 0.0:
            net.add_arc(net.source, u, d)
            sink_arcs.append(net.add_arc(u, net.sink, 0.0))
    for u, v, w in g.edges():
        net.add_arc(u, v, w)
        net.add_arc(v, u, w)
    best = NodeSet(range(g.n))
    rho = density(g, best)
    iterations = 0
    while True:
        for a in sink_arcs:
            net._cap[a] = rho
        _, side = max_flow(net)
        iterations += 1
        chosen = NodeSet(i for i in side if i < g.n)
        if chosen.size == 0 or (denser := density(g, chosen)) <= rho:
            return DensestResult(best, rho, iterations)
        best, rho = chosen, denser


def _padding(g: LabeledGraph, c: Coloring, base: NodeSet) -> list[int]:
    """Nodes that pad ``base`` toward color balance, in pick order.

    Each pick is the outside node of the minority color with the most
    weight into the current set (base plus earlier picks), ties by smallest
    id. Padding stops at balance or when that color has no outside nodes.
    """
    red, blue = color_counts(base, c)
    minority = RED if red < blue else BLUE
    mask = base.mask(g.n)
    # weight into the current set; -inf marks nodes that cannot be picked
    gain = np.bincount(g.arc_src, weights=g.arc_w * mask[g.arc_dst], minlength=g.n)
    gain[mask | (c.codes != minority)] = -np.inf
    picks = []
    for _ in range(min(abs(red - blue), int(np.isfinite(gain).sum()))):
        pick = int(np.argmax(gain))  # first max == smallest id
        gain[pick] = -np.inf
        nb, wt = g.neighbors(pick)
        gain[nb] += wt
        picks.append(pick)
    return picks


def two_dfsg(g: LabeledGraph, c: Coloring, optimum: NodeSet) -> SolutionRecord:
    """The exact densest subgraph ``optimum`` padded to color balance.

    On fair graphs the result is fair with density at least half the fair
    optimum (a 2-approximation); when the pool runs out first, the
    partially padded set is returned with status Unfair. The record's
    runtime covers the padding only.
    """
    t0 = time.perf_counter()
    s = NodeSet([*optimum, *_padding(g, c, optimum)])
    status = SolveStatus.FOUND if is_fair(s, c) else SolveStatus.UNFAIR
    return make_record("2dfsg", g, c, s, status, time.perf_counter() - t0)


def two_dfsg_candidates(g: LabeledGraph, c: Coloring,
                        optimum: NodeSet) -> list[tuple[int, float, float]]:
    """(size, density, balance) after each padding step of ``two_dfsg``,
    starting from ``optimum`` itself, for Pareto plots."""
    picks = _padding(g, c, optimum)
    out = []
    for k in range(len(picks) + 1):
        s = NodeSet([*optimum, *picks[:k]])
        out.append((s.size, density(g, s), balance(s, c)))
    return out
