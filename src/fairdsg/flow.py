"""Exact densest subgraph via max-flow, plus the fair 2-approximation.

The solver first shrinks the graph to a core that holds every
maximum-density set (Fang et al., "Efficient Algorithms for Densest
Subgraph Discovery", PVLDB 2019). In a densest set S, of density
rho* = 2 w(E_S)/|S|, every member v has w(v, S) >= rho*/2, or dropping v
would leave a denser set. So for any lower bound L <= rho*, peeling the
nodes of weighted degree below L/2 until none is left keeps every densest
set, the largest one included. L starts as the best density seen by a batch
peel (Bahmani, Kumar & Vassilvitskii, PVLDB 2012) and is raised to the
core's own density while that is higher. Each round drops its first wave,
every node below L/2, in array operations; a per-node stack then peels the
cascade that wave sets off. The drop test carries a relative slack, so
float rounding never removes a node of degree exactly rho*/2.

On the core it runs Dinkelbach's parametric iteration on Goldberg's
network, built once from arc arrays: source -> u with capacity d_u, u -> sink
with capacity rho, and each edge {u, v} as two arcs of capacity w(u, v). A cut
with source side S (minus the source) costs 2 w(E) - |S| (rho(S) - rho),
so the minimum cut maximizes |S| (rho(S) - rho). Each round sets the sink
capacities to the density of the current set, and the min cut's source side
is strictly denser until the current set is optimal.

The network lives in arrays: int64 tail and head and float64 capacity per
arc, input arc k at 2k and its reverse at 2k + 1, plus a CSR index of the
arc ids grouped by tail. Max flow is Dinic's algorithm. Each phase takes its
BFS levels from numpy, one frontier at a time, and selects the admissible
arcs (residual above the tolerance, one level up); a Python DFS over just
those arcs finds the phase's blocking flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (BLUE, RED, Coloring, LabeledGraph, NodeSet, _int_ids,
                    _read_columns, color_counts, density, induced_subgraph, is_fair)
from .sweep import SolutionRecord, SolveStatus, _balance, _prefix_sums, make_record


def _interleave(a, b) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ...; a scalar stands for a constant array."""
    return np.stack(np.broadcast_arrays(a, b), axis=1).ravel()


class FlowNetwork:
    """s-t network held in arrays. Input arc k, ``tail[k] -> head[k]`` with
    capacity ``cap[k]``, is arc 2k; its residual reverse, capacity 0, is arc
    2k + 1. The columns are read and checked by ``graph._read_columns``,
    the rule of ``LabeledGraph.from_arrays``. ``_tail``, ``_head`` (int64) and
    ``_cap`` (float64) are indexed by arc id. The CSR index groups the arc
    ids by tail: node u owns ``_by_tail[_offsets[u]:_offsets[u + 1]]``, in
    arc-id order."""

    def __init__(self, n_nodes: int, source: int, sink: int,
                 tail, head, cap):
        if n_nodes < 2:
            raise ValueError("a flow network needs at least source and sink")
        source, sink = _int_ids([source, sink], "source and sink").tolist()
        if not (0 <= source < n_nodes and 0 <= sink < n_nodes):
            raise ValueError("source/sink ids out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        tail, head, cap = _read_columns("arc", "capacity", n_nodes,
                                        tail=tail, head=head, cap=cap)
        # every flow value is at most the capacity out of the source
        with np.errstate(over="ignore"):
            out_of_source = float(cap[tail == source].sum())
        if not np.isfinite(out_of_source):
            raise ValueError(f"capacities out of the source sum to {out_of_source}, "
                             f"not a finite float")
        self.n = n_nodes
        self.source = source
        self.sink = sink
        self._tail = _interleave(tail, head)
        self._head = _interleave(head, tail)
        self._cap = _interleave(cap, 0.0)
        self._by_tail = np.argsort(self._tail, kind="stable")
        self._offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(self._tail, minlength=n_nodes))))

    @property
    def num_arcs(self) -> int:
        return self._head.size // 2


def _levels(net: FlowNetwork, residual: np.ndarray, eps: float) -> np.ndarray:
    """BFS distance from the source over arcs of residual > eps, one
    frontier at a time; -1 where unreached. Stops at the first frontier
    that holds the sink, so when the sink is unreachable every node the
    source reaches has a level."""
    level = np.full(net.n, -1, dtype=np.int64)
    level[net.source] = 0
    frontier = np.array([net.source])
    depth = 0
    while frontier.size and level[net.sink] < 0:
        lo = net._offsets[frontier]
        count = net._offsets[frontier + 1] - lo
        start = np.cumsum(count) - count  # where each node's arcs begin
        arcs = net._by_tail[np.repeat(lo - start, count) + np.arange(count.sum())]
        reached = net._head[arcs[residual[arcs] > eps]]
        reached = reached[level[reached] < 0]
        depth += 1
        level[reached] = depth
        frontier = np.flatnonzero(level == depth)
    return level


def max_flow(net: FlowNetwork) -> tuple[float, NodeSet]:
    """Exact max flow (Dinic) and the source side of a minimum cut.

    An arc counts as residual while it holds more than eps, 1e-12 times the
    largest capacity: a tolerance relative to the network's own scale, so
    capacities far below 1 are not mistaken for saturated arcs.

    Each phase computes BFS levels in numpy (``_levels``), then selects the
    admissible arcs, residual > eps from level k to level k + 1, grouped by
    tail in CSR order. An iterative DFS over Python lists of just those
    arcs finds a blocking flow; it keeps each arc's residual and its
    reverse's, updates both after every augmentation and writes them back
    when the phase ends. The reverse arcs a phase gains point one level
    down, so they never become admissible within it: the DFS takes the
    augmenting paths of a DFS over every arc, in the same order, with the
    same float operations. The last BFS, which misses the sink, reaches
    exactly the source side of a minimum cut.
    """
    residual = net._cap.copy()  # the network stays reusable
    s, t = net.source, net.sink
    eps = 1e-12 * float(net._cap.max(initial=0.0))
    total = 0.0
    while (level := _levels(net, residual, eps))[t] >= 0:
        lt = level[net._tail]
        admissible = (lt >= 0) & (level[net._head] == lt + 1) & (residual > eps)
        keep = admissible[net._by_tail]
        sel = net._by_tail[keep]
        back = sel ^ 1
        # admissible arcs sel[j] of node u are at first[u] <= j < first[u + 1]
        first = np.concatenate(([0], np.cumsum(keep)))[net._offsets]
        to = net._head[sel].tolist()
        fwd = residual[sel].tolist()
        rev = residual[back].tolist()
        it = first[:-1].tolist()
        end = first[1:].tolist()
        alive = [True] * net.n
        path: list[int] = []
        u = s
        while True:
            if u == t:
                aug = min(fwd[j] for j in path)
                for j in path:
                    fwd[j] -= aug
                    rev[j] += aug
                total += aug
                # retreat to just past the first saturated arc
                for i, j in enumerate(path):
                    if fwd[j] <= eps:
                        del path[i:]
                        break
                u = to[path[-1]] if path else s
                continue
            j = it[u]
            while j < end[u] and not (fwd[j] > eps and alive[to[j]]):
                j += 1
            it[u] = j
            if j < end[u]:
                path.append(j)
                u = to[j]
            elif u == s:
                break
            else:  # dead end: no blocking-flow path runs through u
                alive[u] = False
                path.pop()
                u = to[path[-1]] if path else s
        residual[sel] = fwd
        residual[back] = rev
    return total, NodeSet(np.flatnonzero(level >= 0))


@dataclass(frozen=True)
class DensestResult:
    """A maximum-density set, its density 2 w(E_S)/|S| recomputed on the
    set, and the number of max-flow solves it took."""

    node_set: NodeSet
    density: float
    iterations: int


# The batch peel drops every node of degree at most (1 + _PEEL_EPS) times the
# average degree per pass, so it ends after O(log n / _PEEL_EPS) passes. Any
# positive value gives a valid lower bound; it changes the speed only.
_PEEL_EPS = 0.1

# The core peel drops a node only when its degree into the core, summed
# afresh, is below (1 - _DROP_SLACK) L/2. A fresh sum of k non-negative
# terms is off by a relative k * 2^-53 at most, and so is L; for k below
# 10^7 that is far below this slack, so float rounding never drops a node of
# degree exactly rho*/2.
_DROP_SLACK = 1e-9


def _peel_lower_bound(g: LabeledGraph) -> float:
    """Best density among the sets a batch peel passes through; <= rho*."""
    alive = np.ones(g.n, dtype=bool)
    src, dst, w = g.arc_src, g.arc_dst, g.arc_w
    best = 0.0
    while src.size:
        deg = np.bincount(src, weights=w, minlength=g.n)
        rho = float(deg.sum()) / np.count_nonzero(alive)
        best = max(best, rho)
        alive &= deg > (1.0 + _PEEL_EPS) * rho
        keep = alive[src] & alive[dst]
        src, dst, w = src[keep], dst[keep], w[keep]
    return best


def _densest_core(g: LabeledGraph) -> tuple[np.ndarray, LabeledGraph]:
    """Sorted ids of a core holding every maximum-density set, and the
    subgraph they induce, relabelled in id order.

    Peels to the L/2-core, L from ``_peel_lower_bound``, then again with
    L = rho(core) while the core is denser than L. Each round peels the
    current core in its own ids, from its degrees as fresh sums. Its first
    wave, every node below L/2, leaves at once, and the survivors' degrees
    are summed afresh in arrays. A stack takes the cascade: a node leaves
    once, its neighbours' degrees are decremented, and a decremented degree
    is summed afresh before its node is dropped, so rounding in the running
    sums never drops one.
    """
    lower = _peel_lower_bound(g)
    kept, core = np.arange(g.n), g
    while True:
        limit = 0.5 * lower * (1.0 - _DROP_SLACK)
        # the first wave; arcs are in CSR order, so bincount sums each
        # survivor's arcs in the order the stack's fresh sums do
        inside = core.degrees >= limit
        both = inside[core.arc_src] & inside[core.arc_dst]
        fresh = np.bincount(core.arc_src[both], weights=core.arc_w[both],
                            minlength=core.n)
        seeds = inside & (fresh < limit)
        alive = inside & ~seeds
        if stack := np.flatnonzero(seeds).tolist():
            indptr, dst, wt = (a.tolist() for a in (core.indptr, core.arc_dst, core.arc_w))
            alive, deg = alive.tolist(), fresh.tolist()
            while stack:
                v = stack.pop()
                for a in range(indptr[v], indptr[v + 1]):
                    u = dst[a]
                    if alive[u]:
                        deg[u] -= wt[a]
                        if deg[u] < limit:
                            deg[u] = sum(wt[b] for b in range(indptr[u], indptr[u + 1])
                                         if alive[dst[b]])
                            if deg[u] < limit:
                                alive[u] = False
                                stack.append(u)
        # an induced core keeps each node's arcs in CSR order
        survivors = NodeSet(np.flatnonzero(alive))
        core, kept = induced_subgraph(core, survivors), kept[survivors.members]
        if (rho := 2.0 * core.total_weight / core.n) <= lower:
            return kept, core
        lower = rho


def exact_densest_subgraph(g: LabeledGraph) -> DensestResult:
    """Largest subgraph of maximum density 2 w(E_S)/|S|, for any weights.

    The graph is first peeled to a core that holds every densest set (see
    the module docstring). Then Dinkelbach's iteration runs on the core from
    S = core: solve the min cut at rho = rho(S) and move to its source side
    while that side is non-empty and strictly denser. Densities are
    recomputed on the sets, so every accepted round raises the density and
    the loop ends after finitely many solves; the last cut certifies that no
    set of the core, and so none of the graph, beats rho(S). When the core
    itself is densest, one solve certifies it. ``iterations`` counts the
    solves. When no edge has positive weight, every node has density 0 and
    one solve certifies the whole graph.
    """
    if g.n < 1:
        raise ValueError("graph has no nodes")
    kept, core = _densest_core(g)
    # source -> u and u -> sink for every core node, then both orientations
    # of every edge; u -> sink is input arc 2u + 1, at _cap[4u + 2]
    source, sink = core.n, core.n + 1
    nodes = np.arange(core.n)
    tail = np.concatenate([_interleave(source, nodes),
                           _interleave(core.edge_u, core.edge_v)])
    head = np.concatenate([_interleave(nodes, sink),
                           _interleave(core.edge_v, core.edge_u)])
    cap = np.concatenate([_interleave(core.degrees, 0.0), np.repeat(core.edge_w, 2)])
    net = FlowNetwork(core.n + 2, source, sink, tail, head, cap)
    sink_arcs = slice(2, 4 * core.n, 4)
    best = NodeSet(range(core.n))
    rho = density(core, best)
    iterations = 0
    while True:
        net._cap[sink_arcs] = rho
        _, side = max_flow(net)
        iterations += 1
        chosen = NodeSet(side.members[side.members < core.n])
        if chosen.size == 0 or (denser := density(core, chosen)) <= rho:
            return DensestResult(NodeSet(kept[best.members]), rho, iterations)
        best, rho = chosen, denser


def _padding(g: LabeledGraph, c: Coloring, base: NodeSet) -> np.ndarray:
    """Ids of the nodes that pad ``base`` toward color balance, in pick
    order, as an int64 array.

    Each pick is the outside node of the minority color with the most
    weight into the current set (base plus earlier picks), ties by smallest
    id. Padding stops at balance or when that color has no outside nodes.
    """
    red, blue = color_counts(base, c)
    minority = RED if red < blue else BLUE
    mask = base.mask(g.n)
    # weight into the current set; -inf marks nodes that cannot be picked
    gain = g.matvec(mask)
    gain[mask | (c.codes != minority)] = -np.inf
    picks = np.empty(min(abs(red - blue), int(np.isfinite(gain).sum())),
                     dtype=np.int64)
    for k in range(picks.size):
        pick = picks[k] = int(np.argmax(gain))  # first max == smallest id
        gain[pick] = -np.inf
        nb, wt = g.neighbors(pick)
        gain[nb] += wt
    return picks


def two_dfsg(g: LabeledGraph, c: Coloring, optimum: NodeSet) -> SolutionRecord:
    """The exact densest subgraph ``optimum`` padded to color balance.

    On fair graphs the result is fair with density at least half the fair
    optimum (a 2-approximation); when the pool runs out first, the
    partially padded set is returned with status Unfair.
    """
    s = NodeSet(np.concatenate([optimum.members, _padding(g, c, optimum)]))
    status = SolveStatus.FOUND if is_fair(s, c) else SolveStatus.UNFAIR
    return make_record(g, c, s, status)


def two_dfsg_candidates(g: LabeledGraph, c: Coloring, optimum: NodeSet
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(size, density, balance) arrays after each padding step of
    ``two_dfsg``, starting from ``optimum`` itself, for Pareto plots: the
    sweeps' prefix sums, where the k-th pick joins at step k."""
    if optimum.size == 0:
        raise ValueError("empty-set density undefined")
    picks = _padding(g, c, optimum)
    step = np.full(g.n, len(picks) + 1)
    step[optimum.members] = 0
    step[picks] = np.arange(1, len(picks) + 1)
    size, w, red = _prefix_sums(g, c, step, len(picks) + 1)
    return size, 2.0 * w / size, _balance(size, red)
