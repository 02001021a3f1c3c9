"""Exact densest-subgraph density of an edge-list file, computed without fairdsg.

The output checks compare the exact optimum the CLI normalizes by with this
one, so a flow solver that returns a worse (or impossible) optimum fails the
benchmark instead of raising every normalized density.

The method is Dinkelbach's iteration on max |E(S)| - g |S| with g = a / b kept
as a ratio of integers. Each step is a maximum-closure problem (edges as
projects of profit b that need both endpoints, nodes of cost a), solved as an
integer max flow by SciPy's Dinic. The iteration stops when no set beats the
current ratio, which is then the optimum exactly. Only unit-weight graphs are
supported, which is what the benchmark's workloads write.

Usage: ``python3 perfbench/certify.py FILE...`` prints {file: density} as JSON.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

INT32_MAX = 2**31 - 1


def read_edges(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Node count and edge endpoints of an edge-list file (header, colors, edges)."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines()
                 if line.strip() and not line.startswith("#")]
    n = int(lines[0].split()[0])
    rows = [line.split() for line in lines[2:]]
    if any(float(w) != 1.0 for _, _, w in rows):
        raise ValueError(f"{path}: only unit edge weights are supported")
    u = np.array([int(r[0]) for r in rows], dtype=np.int64)
    v = np.array([int(r[1]) for r in rows], dtype=np.int64)
    return n, u, v


def _best_closure(n: int, u: np.ndarray, v: np.ndarray, a: int, b: int) -> np.ndarray:
    """Mask of the smallest node set maximizing b |E(S)| - a |S|."""
    m = u.size
    if b * m > INT32_MAX:
        raise OverflowError("network capacities exceed 32 bits")
    s, t = 0, 1
    edge_ids = np.arange(m) + 2
    node_ids = np.arange(n) + 2 + m
    tail = np.concatenate([np.full(m, s), edge_ids, edge_ids, node_ids])
    head = np.concatenate([edge_ids, node_ids[u], node_ids[v], np.full(n, t)])
    cap = np.concatenate([np.full(3 * m, b), np.full(n, a)]).astype(np.int32)
    size = n + m + 2
    capacity = csr_matrix((cap, (tail, head)), shape=(size, size))
    flow = maximum_flow(capacity, s, t, method="dinic").flow
    residual = (capacity - flow).tocsr()
    residual.data[residual.data < 0] = 0  # only reverse arcs of unused flow
    residual.eliminate_zeros()
    reached = breadth_first_order(residual, s, directed=True,
                                  return_predecessors=False)
    mask = np.zeros(size, dtype=bool)
    mask[reached] = True
    return mask[node_ids]


def densest_density(path: str) -> float:
    """Maximum over non-empty S of 2 |E(S)| / |S| for the graph in ``path``."""
    n, u, v = read_edges(path)
    if u.size == 0:
        return 0.0
    a, b = int(u.size), n  # the whole graph's ratio |E| / |V|
    while True:
        inside = _best_closure(n, u, v, a, b)
        edges_in = int(np.count_nonzero(inside[u] & inside[v]))
        size = int(np.count_nonzero(inside))
        if size == 0 or edges_in * b <= a * size:
            return 2.0 * a / b
        a, b = edges_in, size


if __name__ == "__main__":
    print(json.dumps({path: densest_density(path) for path in sys.argv[1:]}))
