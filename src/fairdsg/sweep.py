"""Sweep rounding of eigenvectors into dense, (near-)fair node sets.

The general sweep scans prefixes of the nodes sorted by eigenvector entry
(four orderings: non-increasing, non-decreasing, and both orderings of the
absolute values) and keeps the densest prefix whose red/blue imbalance stays
within delta * |S|. The paired sweep sorts each color class separately and
evaluates the union of equal-size color prefixes, so its output is balanced
by construction.

Four named algorithms combine a sweep with an eigenvector source:

    ss   general sweep on the adjacency matrix, delta = 0
    fss  general sweep on the projected matrix, delta = 0
    ps   paired sweep on the adjacency matrix
    fps  paired sweep on the projected matrix
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import (RED, Coloring, LabeledGraph, NodeSet, balance, color_counts,
                    density, imbalance)
from .spectral import (AdjacencyOperator, ProjectedOperator, dominant_eigenpair,
                       fairness_vector)


class Ordering(Enum):
    NON_INCREASING = "non_increasing"
    NON_DECREASING = "non_decreasing"
    ABS_NON_INCREASING = "abs_non_increasing"
    ABS_NON_DECREASING = "abs_non_decreasing"


#: Fixed enumeration order; also the tie-break order across orderings.
ALL_ORDERINGS: tuple[Ordering, ...] = tuple(Ordering)

SPECTRAL_ALGORITHMS = ("ss", "fss", "ps", "fps")


class SolveStatus(Enum):
    FOUND = "Found"
    NO_FEASIBLE_PREFIX = "NoFeasiblePrefix"
    UNFAIR = "Unfair"


@dataclass
class SolutionRecord:
    """One algorithm run: the set plus its recomputed quality measures.

    ``fair`` is true only for a non-empty set with zero imbalance, so failed
    runs (empty set, status NoFeasiblePrefix) are never reported as fair.
    """

    algorithm: str
    node_set: NodeSet
    density: float
    balance: float
    imbalance: int
    fair: bool
    size: int
    n_red_in_s: int
    n_blue_in_s: int
    runtime_s: float
    status: SolveStatus


def make_record(algorithm: str, g: LabeledGraph, c: Coloring, s: NodeSet,
                status: SolveStatus, runtime_s: float) -> SolutionRecord:
    """Assemble a record, recomputing every measure from the graph."""
    red, blue = color_counts(s, c)
    if s.size:
        dens = density(g, s)
        bal = balance(s, c)
    else:
        dens = 0.0
        bal = 0.0
    imb = abs(red - blue)
    return SolutionRecord(
        algorithm=algorithm, node_set=s, density=dens, balance=bal,
        imbalance=imb, fair=bool(s.size > 0 and imb == 0), size=s.size,
        n_red_in_s=red, n_blue_in_s=blue, runtime_s=runtime_s, status=status)


@dataclass(frozen=True)
class SweepConfig:
    """Eigenvector source and sweep parameters for the named algorithms.

    ``matrix`` is "auto" (chosen by algorithm name), "raw" (adjacency) or
    "projected". ``delta`` is the imbalance slack of the general sweep.
    """

    matrix: str = "auto"
    delta: float = 0.0
    tol: float = 1e-8
    max_iters: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.matrix not in ("auto", "raw", "projected"):
            raise ValueError(f"unknown matrix kind {self.matrix!r}")


def ordering_permutation(v: np.ndarray, ordering: Ordering) -> np.ndarray:
    """Node permutation realizing one ordering; ties broken by ascending id."""
    v = np.asarray(v, dtype=np.float64)
    if ordering is Ordering.NON_INCREASING:
        key = -v
    elif ordering is Ordering.NON_DECREASING:
        key = v
    elif ordering is Ordering.ABS_NON_INCREASING:
        key = -np.abs(v)
    else:
        key = np.abs(v)
    return np.argsort(key, kind="stable")


def _scan_prefixes(g: LabeledGraph, c: Coloring, v: np.ndarray,
                   orderings: Sequence[Ordering]):
    """Incremental prefix scan shared by the sweep and its trace.

    Returns (perms, candidates) where candidates are tuples
    (ordering_index, size, density, n_red, n_blue); density is maintained
    incrementally (adding node i contributes 2 w(i, prefix)/|S|).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"eigenvector of length {v.size} does not match n={g.n}")
    perms = []
    candidates = []
    codes = c.codes
    for oi, ordering in enumerate(orderings):
        perm = ordering_permutation(v, ordering)
        perms.append(perm)
        included = np.zeros(g.n, dtype=bool)
        w_in = 0.0
        red = 0
        for s0, node in enumerate(perm):
            nb, wt = g.neighbors(int(node))
            if nb.size:
                w_in += float(wt[included[nb]].sum())
            included[node] = True
            if codes[node] == RED:
                red += 1
            size = s0 + 1
            candidates.append((oi, size, 2.0 * w_in / size, red, size - red))
    return perms, candidates


def general_sweep(g: LabeledGraph, c: Coloring, v: np.ndarray, delta: float,
                  orderings: Sequence[Ordering] = ALL_ORDERINGS,
                  algorithm: str = "sweep") -> SolutionRecord:
    """Best prefix over the given orderings with imbalance <= delta * |S|.

    Ties prefer higher density, then smaller size, then the earlier ordering.
    When no prefix qualifies the record carries status NoFeasiblePrefix.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    t0 = time.perf_counter()
    perms, candidates = _scan_prefixes(g, c, v, orderings)
    best_key = None
    best = None
    for oi, size, dens, red, blue in candidates:
        if abs(red - blue) <= delta * size:
            key = (dens, -size, -oi)
            if best_key is None or key > best_key:
                best_key = key
                best = (oi, size)
    elapsed = time.perf_counter() - t0
    if best is None:
        return make_record(algorithm, g, c, NodeSet(), SolveStatus.NO_FEASIBLE_PREFIX,
                           elapsed)
    oi, size = best
    return make_record(algorithm, g, c, NodeSet(perms[oi][:size]),
                       SolveStatus.FOUND, elapsed)


def _scan_pairs(g: LabeledGraph, c: Coloring, v: np.ndarray,
                orderings: Sequence[Ordering]):
    """Equal-size color-prefix scan shared by the paired sweep and its trace.

    Returns (prefix_pairs, candidates); candidates are
    (ordering_index, s, density) for the union of the top-s red and top-s
    blue nodes.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"eigenvector of length {v.size} does not match n={g.n}")
    red_ids = np.flatnonzero(c.codes == RED)
    blue_ids = np.flatnonzero(c.codes != RED)
    k = min(red_ids.size, blue_ids.size)
    prefix_pairs = []
    candidates = []
    for oi, ordering in enumerate(orderings):
        red_perm = red_ids[ordering_permutation(v[red_ids], ordering)]
        blue_perm = blue_ids[ordering_permutation(v[blue_ids], ordering)]
        prefix_pairs.append((red_perm, blue_perm))
        included = np.zeros(g.n, dtype=bool)
        w_in = 0.0
        for s in range(1, k + 1):
            for node in (int(red_perm[s - 1]), int(blue_perm[s - 1])):
                nb, wt = g.neighbors(node)
                if nb.size:
                    w_in += float(wt[included[nb]].sum())
                included[node] = True
            candidates.append((oi, s, 2.0 * w_in / (2 * s)))
    return prefix_pairs, candidates


def paired_sweep(g: LabeledGraph, c: Coloring, v: np.ndarray,
                 orderings: Sequence[Ordering] = ALL_ORDERINGS,
                 algorithm: str = "paired") -> SolutionRecord:
    """Densest union of equal-size color prefixes; fair by construction.

    Status is NoFeasiblePrefix only when one color class is empty.
    """
    t0 = time.perf_counter()
    prefix_pairs, candidates = _scan_pairs(g, c, v, orderings)
    best_key = None
    best = None
    for oi, s, dens in candidates:
        key = (dens, -2 * s, -oi)
        if best_key is None or key > best_key:
            best_key = key
            best = (oi, s)
    elapsed = time.perf_counter() - t0
    if best is None:
        return make_record(algorithm, g, c, NodeSet(), SolveStatus.NO_FEASIBLE_PREFIX,
                           elapsed)
    oi, s = best
    red_perm, blue_perm = prefix_pairs[oi]
    members = np.concatenate([red_perm[:s], blue_perm[:s]])
    return make_record(algorithm, g, c, NodeSet(members), SolveStatus.FOUND, elapsed)


def sweep_eigenvector(name: str, g: LabeledGraph, c: Coloring,
                      cfg: SweepConfig) -> np.ndarray:
    """Top eigenvector a sweep algorithm rounds: of the projected operator
    for fss and fps, of the raw adjacency for ss and ps, unless
    ``cfg.matrix`` names one."""
    matrix = cfg.matrix
    if matrix == "auto":
        matrix = "projected" if name in ("fss", "fps") else "raw"
    if matrix == "projected":
        op = ProjectedOperator(g, fairness_vector(c))
    else:
        op = AdjacencyOperator(g)
    return dominant_eigenpair(op, tol=cfg.tol, max_iters=cfg.max_iters,
                              seed=cfg.seed).vector


def run_algorithm(name: str, g: LabeledGraph, c: Coloring,
                  cfg: SweepConfig | None = None,
                  delta: float | None = None) -> SolutionRecord:
    """Run one of ss / fss / ps / fps.

    ``delta`` overrides the config slack for the general-sweep variants
    (the recovery guarantee uses delta = 16 (eps + theta); the experimental
    defaults use delta = 0). ps and fps ignore delta.
    """
    cfg = cfg or SweepConfig()
    name = name.lower()
    if name not in SPECTRAL_ALGORITHMS:
        raise ValueError(f"unknown sweep algorithm {name!r}")
    t0 = time.perf_counter()
    v = sweep_eigenvector(name, g, c, cfg)
    if name in ("ss", "fss"):
        record = general_sweep(g, c, v, cfg.delta if delta is None else delta,
                               algorithm=name)
    else:
        record = paired_sweep(g, c, v, algorithm=name)
    return replace(record, runtime_s=time.perf_counter() - t0)


def candidate_trace(name: str, g: LabeledGraph, c: Coloring,
                    cfg: SweepConfig | None = None) -> list[tuple[int, float, float]]:
    """All (size, density, balance) candidates one algorithm examines.

    Emission order is deterministic: orderings in enumeration order, then
    prefix size ascending. The general sweep emits exactly
    len(orderings) * n candidates, the paired sweep
    len(orderings) * min(n_red, n_blue).
    """
    cfg = cfg or SweepConfig()
    name = name.lower()
    if name not in SPECTRAL_ALGORITHMS:
        raise ValueError(f"unknown sweep algorithm {name!r}")
    v = sweep_eigenvector(name, g, c, cfg)
    out = []
    if name in ("ss", "fss"):
        _, candidates = _scan_prefixes(g, c, v, ALL_ORDERINGS)
        for _, size, dens, red, blue in candidates:
            bal = min(red / blue, blue / red) if red and blue else 0.0
            out.append((size, dens, bal))
    else:
        _, candidates = _scan_pairs(g, c, v, ALL_ORDERINGS)
        for _, s, dens in candidates:
            out.append((2 * s, dens, 1.0))
    return out
