"""Synthetic instances with a hidden fair, d-regular dense subgraph.

An instance plants an exactly d-regular (simple) subgraph on m nodes,
colored half red and half blue, inside a sparse random background, then
measures on the realized graph everything the recovery guarantee needs:

  * eps: largest relative deviation of a planted internal degree from d,
    a self-check that reads 0 (``PlantedParams.eps`` is unread),
  * theta: relative gap between d and the global maximum degree,
  * the extremal adjacency eigenvalues and lam = max(lambda2, |lambda_n|).

The recovery experiment runs the sweep on the projected operator with slack
delta = 16 (eps + theta) and reports the two measured bounds: the recovery
error against 16 (eps + theta) m and the squared distance between the
planted indicator and the top projected eigenvector against 4 (eps + theta).
Bounds are asserted only when the measured hypotheses hold (lambda1 > 0 and
lambda1 >= 4 lam); otherwise the report is marked vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BLUE, RED, Coloring, LabeledGraph, NodeSet, _unique
from .spectral import TOL, spectral_profile
from .sweep import SPECTRAL_ALGORITHMS, SolutionRecord, general_sweep, sweep_eigenvector

# the sweeps the recovery experiment runs: the general (unpaired) ones
RECOVERY_ALGORITHMS = tuple(name for name, (_, paired) in SPECTRAL_ALGORITHMS.items()
                            if not paired)

# stalled pairings drawn before giving up on the planted subgraph
_MAX_RETRIES = 100


@dataclass(frozen=True)
class PlantedParams:
    """``eps`` is validated, unread, and kept for the benchmark's set-up."""
    n: int
    m: int
    d: int
    eps: float
    p_bg: float
    seed: int

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise ValueError("planted size m must be even and at least 2")
        if self.m > self.n:
            raise ValueError("planted size m cannot exceed n")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        if not 0.0 <= self.p_bg <= 1.0:
            raise ValueError("background probability must lie in [0, 1]")
        if not 0 <= self.d < self.m:
            raise ValueError("planted degree d must satisfy 0 <= d < m")


@dataclass(frozen=True)
class PlantedMeasurement:
    """Quantities recomputed from the realized graph, not the parameters;
    eps_measured checks the exactly d-regular planted degrees: it reads 0."""

    d_max: float
    theta: float
    eps_measured: float
    lambda1: float
    lambda2: float
    lambda_n: float
    lam: float
    hypotheses_hold: bool


@dataclass(frozen=True)
class PlantedInstance:
    params: PlantedParams
    graph: LabeledGraph
    coloring: Coloring
    planted_set: NodeSet
    measured: PlantedMeasurement


def _sample_regular_pairs(rng: np.random.Generator, m: int,
                          d: int) -> np.ndarray | None:
    """One attempt at a simple d-regular pairing of node stubs, as the keys
    u * m + v (u < v) of its edges.

    Pairs are drawn by shuffling the remaining stubs; colliding pairs
    (self-loops, repeats of an earlier pair) feed the next round. Returns
    None when a round makes no progress, in which case the caller restarts.
    """
    stubs = np.repeat(np.arange(m), d)
    keys = np.zeros(0, dtype=np.int64)
    known = np.array([-1])  # the keys, sorted, after a sentinel below them all
    while stubs.size:
        rng.shuffle(stubs)
        a, b = stubs[0::2], stubs[1::2]
        key = np.minimum(a, b) * m + np.maximum(a, b)
        new = np.zeros(key.size, dtype=bool)
        new[np.unique(key, return_index=True)[1]] = True  # first in the round
        seen = known[np.searchsorted(known, key, side="right") - 1] == key
        new &= (a != b) & ~seen
        if not new.any():
            return None
        keys = np.concatenate([keys, key[new]])
        known = np.sort(np.concatenate([known, key[new]]))
        stubs = np.column_stack([a[~new], b[~new]]).ravel()
    return keys


def _planted_internal_edges(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """Internal edges of a d-regular simple graph, one (u, v) row each, on
    working ids 0..m-1.

    Dense targets (d above (m-1)/2) are sampled as the complement of a
    sparse regular graph, where the stub matching behaves well.
    """
    complement = d > (m - 1) / 2
    d_sample = (m - 1 - d) if complement else d
    for _ in range(_MAX_RETRIES):
        keys = _sample_regular_pairs(rng, m, d_sample)
        if keys is None:
            continue
        if complement:  # the keys of all pairs u < v, minus the sampled ones
            pairs = np.triu(np.ones((m, m), bool), 1)
            pairs.flat[keys] = False
            keys = np.flatnonzero(pairs)
        return np.column_stack(np.divmod(keys, m))
    raise ValueError(
        f"could not sample a {d}-regular planted subgraph on {m} nodes "
        f"within {_MAX_RETRIES} attempts")


def _background_pairs(rng: np.random.Generator, n: int, m: int,
                      p: float) -> np.ndarray:
    """Sorted (i, j) rows of the pairs i < j, m <= j < n, each kept with
    probability p in (0, 1], by geometric gaps over the pairs numbered row by
    row (Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005): O(n + E)."""
    first = np.maximum(np.arange(1, n), m)  # row i holds j = first[i]..n-1
    offsets = np.concatenate([[0], np.cumsum(n - first)])
    total = int(offsets[-1])
    block = int(1.1 * total * p) + 64
    hits, last = [], -1
    while last < total:
        # a gap of INT64_MAX (tiny p) would wrap the integer cumsum
        idx = last + np.cumsum(np.minimum(rng.geometric(p, block), total + 1))
        hits.append(idx[idx < total])
        last = int(idx[-1])
    idx = np.concatenate(hits)
    i = np.searchsorted(offsets, idx, side="right") - 1
    return np.column_stack([i, first[i] + (idx - offsets[i])])


def generate(params: PlantedParams, *, eig_tol: float = TOL) -> PlantedInstance:
    """Sample an instance and measure its recovery hypotheses.

    Construction happens on working ids (planted nodes 0..m-1), with
    background edges drawn independently per non-internal pair, then a random
    permutation relabels everything. Generation is deterministic per seed.
    ``params.eps`` is unread: it changes no draw.
    """
    n, m, d = params.n, params.m, params.d
    rng = np.random.default_rng(params.seed)
    inner = _planted_internal_edges(rng, m, d)
    edges = inner
    if params.p_bg > 0.0 and n > m:
        # Bernoulli(p_bg) per non-internal pair, by geometric skipping: O(n + E)
        edges = np.concatenate([inner, _background_pairs(rng, n, m, params.p_bg)])

    perm = rng.permutation(n)
    colors = np.empty(n, dtype=np.int8)
    planted_final = perm[rng.permutation(m)]
    colors[planted_final[: m // 2]] = RED
    colors[planted_final[m // 2:]] = BLUE
    # background nodes alternate red/blue by final id to keep G near-fair
    background_final = np.sort(perm[m:])
    colors[background_final[0::2]] = RED
    colors[background_final[1::2]] = BLUE

    graph = LabeledGraph.from_arrays(n, *perm[edges].T)
    coloring = Coloring(colors)
    planted_set = NodeSet(perm[:m])

    internal_deg = np.bincount(inner.ravel(), minlength=m)
    eps_measured = float(np.max(np.abs(internal_deg - d)) / d) if d else 0.0
    theta = 1.0 - d / graph.d_max if graph.d_max > 0 else 0.0
    profile = spectral_profile(graph, tol=eig_tol, seed=params.seed)
    measured = PlantedMeasurement(
        d_max=graph.d_max, theta=theta, eps_measured=eps_measured,
        lambda1=profile.lambda1, lambda2=profile.lambda2,
        lambda_n=profile.lambda_n, lam=profile.lam,
        hypotheses_hold=bool(profile.lambda1 > 0.0
                             and profile.lambda1 >= 4.0 * profile.lam))
    return PlantedInstance(params, graph, coloring, planted_set, measured)


def recovery_error(planted: NodeSet, recovered: NodeSet) -> int:
    """Number of planted nodes the recovered set misses: |planted \\ recovered|,
    which for two sets is |planted ∪ recovered| - |recovered|."""
    both = np.concatenate([planted.members, recovered.members])
    return int(_unique(both).size) - recovered.size


@dataclass(frozen=True)
class RecoveryReport:
    vacuous: bool
    delta: float
    error: int
    error_bound: float
    error_ok: bool
    chi_dist_sq: float
    chi_bound: float
    chi_ok: bool
    solution: SolutionRecord


def run_recovery(instance: PlantedInstance, algorithm: str = "fss") -> RecoveryReport:
    """Theoretical sweep on a generated instance, with slack
    delta = 16 (eps + theta), and both bound checks."""
    if algorithm not in RECOVERY_ALGORITHMS:
        raise ValueError("recovery sweep supports 'fss' (projected) or 'ss' (raw)")
    g, c = instance.graph, instance.coloring
    meas = instance.measured
    delta = 16.0 * (meas.eps_measured + meas.theta)
    vector = sweep_eigenvector(algorithm, g, c, seed=instance.params.seed)
    solution = general_sweep(g, c, vector, delta)

    m = instance.planted_set.size
    err = recovery_error(instance.planted_set, solution.node_set)
    error_bound = delta * m
    chi = instance.planted_set.indicator(g.n)
    vec = -vector if chi @ vector < 0 else vector
    chi_dist_sq = float(np.sum((chi - vec) ** 2))
    chi_bound = 4.0 * (meas.eps_measured + meas.theta)
    # 1e-9 of slack absorbs eigensolver rounding when the bound is exactly 0
    return RecoveryReport(
        vacuous=not meas.hypotheses_hold, delta=delta,
        error=err, error_bound=error_bound, error_ok=bool(err <= error_bound),
        chi_dist_sq=chi_dist_sq, chi_bound=chi_bound,
        chi_ok=bool(chi_dist_sq <= chi_bound + 1e-9), solution=solution)
