"""Independent reference implementations used as test oracles.

These avoid the library's computational paths, with two exceptions that
borrow one step each from ``fairdsg.flow``: ``stack_peel_core`` starts from
``_peel_lower_bound`` and ``two_dfsg_prefixes`` takes its picks from
``_padding``. Those two steps are checked against ``brute_densest_subsets``
and ``greedy_padding`` on their own. Otherwise the references use a per-edge
dict loop instead of array canonicalization, dense matrices instead of CSR
matvecs, a classical Jacobi rotation eigensolver instead of Lanczos,
subset/cut enumeration instead of flow, a full prefix re-scan instead
of the incremental sweep and the 2dfsg prefix sums, a quadratic dominance
filter instead of the sorted Pareto front, per-token Python parsing instead
of numpy's text reader, a per-node stack peel instead of the batched first
wave, one argsort of every arc instead of the reverse-arc merge, a
Dinic over per-node arc lists, with a Python BFS and a DFS over every arc,
instead of the array network's numpy BFS and admissible-arc DFS, and
per-record dicts and sets instead of the id arrays and 1-D keys of the
product-graph ingestion.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from fairdsg.flow import _DROP_SLACK, _interleave, _padding, _peel_lower_bound
from fairdsg.graph import (BLUE, RED, Coloring, LabeledGraph, NodeSet, balance,
                           density, induced_subgraph)
from fairdsg.ingest import IngestError


def same_structure(a: LabeledGraph, b: LabeledGraph) -> bool:
    """True when both graphs have identical canonical edge arrays."""
    return (a.n == b.n and np.array_equal(a.edge_u, b.edge_u)
            and np.array_equal(a.edge_v, b.edge_v)
            and np.array_equal(a.edge_w, b.edge_w))


def canonical_edges(n: int, edges):
    """Canonical (u, v, w) lists, self-loops dropped and duplicates merged,
    of (u, v) or (u, v, w) items, with the counts of both; one dict entry
    per edge, weights summed in input order."""
    if n < 0:
        raise ValueError("node count must be non-negative")
    acc: dict[tuple[int, int], float] = {}
    self_loops = 0
    duplicates = 0
    for item in edges:
        if len(item) == 2:
            u, v = item
            w = 1.0
        else:
            u, v, w = item
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a node id outside 0..{n - 1}")
        if not math.isfinite(w):
            raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
        if w < 0.0:
            raise ValueError(f"edge ({u}, {v}) has negative weight {w}")
        if u == v:
            self_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in acc:
            acc[key] += w
            duplicates += 1
        else:
            acc[key] = w
    keys = sorted(acc)
    return ([k[0] for k in keys], [k[1] for k in keys], [acc[k] for k in keys],
            self_loops, duplicates)


def argsort_arcs(g):
    """(arc_src, arc_dst, arc_w, indptr, degrees) of ``g``'s canonical edges,
    built by one stable argsort of both orientations by src * n + dst."""
    src = np.concatenate([g.edge_u, g.edge_v])
    dst = np.concatenate([g.edge_v, g.edge_u])
    order = np.argsort(src * g.n + dst, kind="stable")
    arc_src, arc_dst = src[order], dst[order]
    arc_w = np.concatenate([g.edge_w, g.edge_w])[order]
    indptr = np.searchsorted(arc_src, np.arange(g.n + 1))
    degrees = np.bincount(arc_src, weights=arc_w, minlength=g.n).astype(np.float64)
    return arc_src, arc_dst, arc_w, indptr, degrees


def dense_adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v, w in g.edges():
        a[u, v] = w
        a[v, u] = w
    return a


def dense_projected(g, f: np.ndarray) -> np.ndarray:
    p = np.eye(g.n) - np.outer(f, f)
    return p @ dense_adjacency(g) @ p


def _round_robin(n: int):
    """The n - 1 rounds of a round-robin tournament of an even number n of
    players: each round is n/2 disjoint pairs (p, q) with p < q, as two index
    arrays, and every pair meets in exactly one round."""
    order = list(range(n))
    for _ in range(n - 1):
        a, b = np.array(order[: n // 2]), np.array(order[: n // 2 - 1:-1])
        yield np.minimum(a, b), np.maximum(a, b)
        order.insert(1, order.pop())


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-12,
                       max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by Jacobi rotations, sorted in
    non-increasing order.

    A sweep rotates every pair (p, q) once, in the round-robin parallel
    ordering (Brent and Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985): each of
    its n - 1 rounds applies the rotations of n/2 disjoint pairs at once, as
    m = J^T m J with one orthogonal J, then sets each pair's 2x2 block in
    closed form. An odd n is padded with a zero row and column, which no
    rotation changes, and the padding's eigenvalue 0 is dropped at the end.
    """
    m = np.array(matrix, dtype=np.float64)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return m.diagonal().copy()
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return np.zeros(n)
    size = n + n % 2
    m = np.pad(m, (0, size - n))
    rounds = list(_round_robin(size))
    eye = np.eye(size)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(m, -1) ** 2) * 2.0)
        if off <= tol * scale:
            break
        for p, q in rounds:
            apq, app, aqq = m[p, q], m[p, p], m[q, q]
            live = np.abs(apq) > 1e-300  # the others are left unrotated
            tau = (aqq - app) / np.where(live, 2.0 * apq, 1.0)
            t = np.where(tau < 0, -1.0, 1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            t = np.where(live, t, 0.0)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            j = eye.copy()
            j[p, p], j[q, q], j[p, q], j[q, p] = c, c, s, -s
            m = j.T @ m @ j
            m[p, p], m[q, q] = app - t * apq, aqq + t * apq
            m[p, q] = m[q, p] = 0.0
    return np.sort(np.diagonal(m)[:n])[::-1]


def subset_density(a: np.ndarray, members) -> float:
    members = list(members)
    sub = a[np.ix_(members, members)]
    return float(sub.sum()) / len(members)  # the full submatrix sum is 2 w(E_S)


def brute_densest_subsets(a: np.ndarray, feasible) -> tuple[tuple[int, ...], float]:
    """Max-density subset among those accepted by ``feasible(members)``.

    Exhaustive over all non-empty subsets; ties prefer smaller then
    lexicographically smaller member tuples. Returns ((), 0.0) when nothing
    is feasible.
    """
    n = a.shape[0]
    best: tuple[tuple[int, ...], float] | None = None
    for size in range(1, n + 1):
        for members in itertools.combinations(range(n), size):
            if not feasible(members):
                continue
            dens = subset_density(a, members)
            if best is None or dens > best[1]:
                best = (members, dens)
    return best if best is not None else ((), 0.0)


def brute_largest_densest(a: np.ndarray,
                          tol: float = 1e-9) -> tuple[tuple[int, ...], float]:
    """Union of all maximum-density subsets, and the maximum density.

    Exhaustive over all non-empty subsets; a subset within ``tol`` of the
    maximum counts as one of maximum density.
    """
    n = a.shape[0]
    densities = {members: subset_density(a, members)
                 for size in range(1, n + 1)
                 for members in itertools.combinations(range(n), size)}
    best = max(densities.values())
    union = set()
    for members, dens in densities.items():
        if dens >= best - tol:
            union.update(members)
    return tuple(sorted(union)), best


def brute_min_cut(n: int, source: int, sink: int,
                  arcs: list[tuple[int, int, float]]) -> float:
    """Minimum s-t cut value by enumerating all 2^(n-2) node partitions."""
    others = [u for u in range(n) if u not in (source, sink)]
    best = np.inf
    for r in range(len(others) + 1):
        for side in itertools.combinations(others, r):
            s_side = set(side) | {source}
            value = sum(cap for u, v, cap in arcs if u in s_side and v not in s_side)
            best = min(best, value)
    return float(best)


class ListFlowNetwork:
    """``fairdsg.flow.FlowNetwork`` as Python lists: input arc k,
    ``tail[k] -> head[k]`` with capacity ``cap[k]``, is stored at index 2k and
    its residual reverse arc at 2k + 1; each node lists its arcs in order."""

    def __init__(self, n_nodes: int, source: int, sink: int,
                 tail, head, cap):
        if n_nodes < 2:
            raise ValueError("a flow network needs at least source and sink")
        if not (0 <= source < n_nodes and 0 <= sink < n_nodes):
            raise ValueError("source/sink ids out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        tail, head = np.asarray(tail, dtype=np.int64), np.asarray(head, dtype=np.int64)
        cap = np.asarray(cap, dtype=np.float64)
        unknown = (tail < 0) | (tail >= n_nodes) | (head < 0) | (head >= n_nodes)
        if unknown.any():
            k = int(np.argmax(unknown))
            raise ValueError(f"arc ({tail[k]}, {head[k]}) references an unknown node")
        if (cap < 0).any():
            raise ValueError("capacities must be non-negative")
        self.n = n_nodes
        self.source = source
        self.sink = sink
        self._to: list[int] = _interleave(head, tail).tolist()
        self._cap: list[float] = _interleave(cap, 0.0).tolist()
        owner = _interleave(tail, head)
        arcs = np.argsort(owner, kind="stable").tolist()
        ends = np.cumsum(np.bincount(owner, minlength=n_nodes)).tolist()
        self._head: list[list[int]] = [arcs[lo:hi] for lo, hi in zip([0, *ends], ends)]

    @property
    def num_arcs(self) -> int:
        return len(self._to) // 2


def list_max_flow(net: ListFlowNetwork) -> tuple[float, NodeSet]:
    """Exact max flow (Dinic) and the source side of a minimum cut, with a
    Python BFS and DFS over every arc of every node."""
    to = net._to
    cap = list(net._cap)  # residual capacities; the network stays reusable
    head = net._head
    s, t = net.source, net.sink
    eps = 1e-12 * max(net._cap, default=0.0)
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

    # the last BFS found no augmenting path: the nodes it reached from the
    # source in the residual network are the source side of a minimum cut
    return total, NodeSet(np.flatnonzero(np.array(level) >= 0))


def _orderings_keys(v: np.ndarray):
    """The four sort keys (non-increasing, non-decreasing, |.| variants)."""
    return [-v, v, -np.abs(v), np.abs(v)]


def sweep_rescan(g, codes: np.ndarray, v: np.ndarray, delta: float):
    """From-scratch re-scan of all prefixes of all four orderings.

    Returns (members tuple, density) of the best feasible prefix under the
    tie-break (density, smaller size, earlier ordering), or None.
    """
    a = dense_adjacency(g)
    v = np.asarray(v, dtype=np.float64)
    best = None
    best_key = None
    for oi, key in enumerate(_orderings_keys(v)):
        perm = np.argsort(key, kind="stable")
        for s in range(1, g.n + 1):
            members = perm[:s]
            red = int((codes[members] == 0).sum())
            blue = s - red
            if abs(red - blue) > delta * s:
                continue
            dens = subset_density(a, members)
            cand_key = (dens, -s, -oi)
            if best_key is None or cand_key > best_key:
                best_key = cand_key
                best = (tuple(sorted(int(i) for i in members)), dens)
    return best


def pair_rescan(g, codes: np.ndarray, v: np.ndarray):
    """From-scratch re-scan of all equal-size color-prefix unions."""
    a = dense_adjacency(g)
    v = np.asarray(v, dtype=np.float64)
    red_ids = np.flatnonzero(codes == 0)
    blue_ids = np.flatnonzero(codes != 0)
    k = min(red_ids.size, blue_ids.size)
    best = None
    best_key = None
    for oi, key in enumerate(_orderings_keys(v)):
        red_perm = red_ids[np.argsort(key[red_ids], kind="stable")]
        blue_perm = blue_ids[np.argsort(key[blue_ids], kind="stable")]
        for s in range(1, k + 1):
            members = np.concatenate([red_perm[:s], blue_perm[:s]])
            dens = subset_density(a, members)
            cand_key = (dens, -2 * s, -oi)
            if best_key is None or cand_key > best_key:
                best_key = cand_key
                best = (tuple(sorted(int(i) for i in members)), dens)
    return best


def pareto_quadratic(points):
    """O(n^2) dominance filter over (density, balance, size) triples,
    density-descending; duplicates of (density, balance) keep the smallest
    size."""
    points = list(points)
    keep = []
    for p in points:
        dominated = False
        for q in points:
            if (q[0] >= p[0] and q[1] >= p[1]
                    and (q[0] > p[0] or q[1] > p[1])):
                dominated = True
                break
        if dominated:
            continue
        keep.append(p)
    dedup = {}
    for p in keep:
        key = (p[0], p[1])
        if key not in dedup or p[2] < dedup[key][2]:
            dedup[key] = p
    return sorted(dedup.values(), key=lambda p: (-p[0], -p[1]))


def two_dfsg_prefixes(g, c, optimum):
    """(size, density, balance) of ``optimum`` plus each prefix of its
    padding picks, each measured from scratch with ``density`` and
    ``balance`` on the set."""
    picks = _padding(g, c, optimum)
    out = []
    for k in range(len(picks) + 1):
        s = NodeSet([*optimum, *picks[:k]])
        out.append((s.size, density(g, s), balance(s, c)))
    return out


def greedy_padding(g, c, base):
    """The 2dfsg padding picks of ``base``, from scratch: while the current
    set (base plus earlier picks) is unbalanced, the outside node of the
    minority color with the most weight into it, each gain summed afresh
    over the edge list; ties go to the smallest id."""
    codes = c.codes.tolist()
    current = set(base)
    red = sum(codes[x] == RED for x in current)
    minority = RED if red < len(current) - red else BLUE
    edges = list(g.edges())

    def gain(x):
        return sum(w for a, b, w in edges
                   if (a == x and b in current) or (b == x and a in current))

    picks = []
    for _ in range(abs(len(current) - 2 * red)):
        pool = [x for x in range(g.n) if x not in current and codes[x] == minority]
        if not pool:
            break
        picks.append(max(pool, key=lambda x: (gain(x), -x)))
        current.add(picks[-1])
    return picks


def read_edgelist_reference(text: str):
    """(graph, coloring) of an edge-list file, parsed per token in Python:
    ``splitlines``, ``str.split``, ``int`` for ids (which must fit in
    int64) and ``float`` for weights. A bad file raises IngestError naming
    the first bad line. Only the parse is independent: the graph is built
    by ``LabeledGraph.from_arrays``."""
    lines = text.splitlines()
    at = 0
    while at < len(lines) and lines[at].startswith("#"):
        at += 1
    if at >= len(lines):
        raise IngestError("edge list: missing header line")
    header = lines[at].split()
    if len(header) != 3:
        raise IngestError(f"edge list: header must be 'n n_red n_blue', "
                          f"got {lines[at]!r}")
    try:
        n, n_red, n_blue = (int(x) for x in header)
    except ValueError:
        raise IngestError(f"edge list: non-integer header {lines[at]!r}") from None
    if at + 1 >= len(lines):
        raise IngestError("edge list: missing color line")
    if len(lines[at + 1]) != n:
        raise IngestError(f"edge list: color line has {len(lines[at + 1])} "
                          f"characters, expected {n}")
    try:
        coloring = Coloring.from_labels(lines[at + 1])
    except ValueError as exc:
        raise IngestError(f"edge list: {exc}") from None
    if (coloring.n_red, coloring.n_blue) != (n_red, n_blue):
        raise IngestError("edge list: header color counts disagree with the "
                          "color line")
    u, v, w = [], [], []
    for lineno in range(at + 3, len(lines) + 1):
        line = lines[lineno - 1]
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise IngestError(f"edge list line {lineno}: expected 'u v w', "
                              f"got {line!r}")
        try:
            # np.int64 of a Python int outside int64 raises OverflowError
            u.append(np.int64(int(tokens[0])))
            v.append(np.int64(int(tokens[1])))
            w.append(float(tokens[2]))
        except (ValueError, OverflowError):
            raise IngestError(f"edge list line {lineno}: bad edge {line!r}") from None
    try:
        graph = LabeledGraph.from_arrays(n, np.array(u, dtype=np.int64),
                                         np.array(v, dtype=np.int64),
                                         np.array(w, dtype=np.float64))
    except ValueError as exc:
        raise IngestError(f"edge list: {exc}") from None
    return graph, coloring


def stack_peel_core(g):
    """``fairdsg.flow._densest_core`` with every node peeled off one stack.

    Each round starts from the core's degrees; every node below L/2 goes on
    the stack, and a popped node decrements its live neighbours' degrees. A
    degree that falls below L/2 is summed afresh before its node is pushed.
    Rounds repeat with L = rho(core) while the core is denser than L.
    """
    indptr = g.indptr.tolist()
    dst = g.arc_dst.tolist()
    wt = g.arc_w.tolist()
    lower = _peel_lower_bound(g)
    kept, core = np.arange(g.n), g
    while True:
        limit = 0.5 * lower * (1.0 - _DROP_SLACK)
        stack = kept[core.degrees < limit].tolist()
        alive = np.zeros(g.n, dtype=bool)
        alive[kept] = core.degrees >= limit
        deg = np.zeros(g.n)
        deg[kept] = core.degrees
        alive, deg = alive.tolist(), deg.tolist()
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
        kept = np.flatnonzero(alive)
        core = induced_subgraph(g, NodeSet(kept))
        rho = 2.0 * core.total_weight / core.n
        if rho <= lower:
            return kept, core
        lower = rho


def product_graph_reference(records):
    """``build_product_graph`` by dicts and sets over (asin, main_cat,
    also_buy) triples: (sorted edges (u, v) with u < v, categories,
    (records, duplicate asins, missing refs, self refs))."""
    first = {}
    n_records = n_duplicates = 0
    for asin, main_cat, also_buy in records:
        n_records += 1
        if asin in first:
            n_duplicates += 1
        else:
            first[asin] = (main_cat, also_buy)
    asins = sorted(first)
    index = {a: i for i, a in enumerate(asins)}
    edges = set()
    missing = self_refs = 0
    for i, a in enumerate(asins):
        for target in first[a][1]:
            if target not in index:
                missing += 1
            elif index[target] == i:
                self_refs += 1
            else:
                edges.add((min(i, index[target]), max(i, index[target])))
    return (sorted(edges), [first[a][0] for a in asins],
            (n_records, n_duplicates, missing, self_refs))


def category_pairs_reference(edges, categories, min_nodes):
    """``category_pair_subgraphs`` by sets: one (name, red category, blue
    category, color labels, sorted relabelled edges) per kept pair, in
    (c1, c2) order."""
    nodes_of = {}
    for u, v in edges:
        if categories[u] != categories[v]:
            pair = tuple(sorted((categories[u], categories[v])))
            nodes_of.setdefault(pair, set()).update((u, v))
    out = []
    for (c1, c2), nodes in sorted(nodes_of.items()):
        if len(nodes) < min_nodes:
            continue
        new_id = {u: k for k, u in enumerate(sorted(nodes))}
        colors = "".join("R" if categories[u] == c1 else "B" for u in sorted(nodes))
        sub = sorted((new_id[u], new_id[v]) for u, v in edges
                     if u in nodes and v in nodes)
        out.append((f"{c1}__{c2}", c1, c2, colors, sub))
    return out
