"""Independent reference implementations used as test oracles.

These deliberately avoid the library's computational paths: dense matrices
instead of CSR matvecs, a classical Jacobi rotation eigensolver instead of
Lanczos, subset/cut enumeration instead of flow, and a from-scratch
prefix re-scan instead of the incremental sweep.
"""

from __future__ import annotations

import itertools

import numpy as np


def dense_adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v, w in g.edges():
        a[u, v] = w
        a[v, u] = w
    return a


def dense_projected(g, f: np.ndarray) -> np.ndarray:
    p = np.eye(g.n) - np.outer(f, f)
    return p @ dense_adjacency(g) @ p


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-12,
                       max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    sorted in non-increasing order."""
    m = np.array(matrix, dtype=np.float64)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return m.diagonal().copy()
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(m, -1) ** 2) * 2.0)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
    return np.sort(np.diagonal(m))[::-1]


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
    """O(n^2) dominance filter; duplicates of (density, balance) keep the
    smallest size."""
    points = list(points)
    keep = []
    for p in points:
        dominated = False
        for q in points:
            if (q.density >= p.density and q.balance >= p.balance
                    and (q.density > p.density or q.balance > p.balance)):
                dominated = True
                break
        if dominated:
            continue
        keep.append(p)
    dedup = {}
    for p in keep:
        key = (p.density, p.balance)
        if key not in dedup or p.size < dedup[key].size:
            dedup[key] = p
    return sorted(dedup.values(), key=lambda p: (-p.density, -p.balance))
