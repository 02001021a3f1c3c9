"""Synthetic instances with a hidden fair, near-regular dense subgraph.

An instance plants a d-regular (simple) subgraph on m nodes, colored half
red and half blue, inside a sparse random background, then measures on the
realized graph everything the recovery guarantee needs:

  * eps: largest relative deviation of a planted internal degree from d,
  * theta: relative gap between d and the global maximum degree,
  * the extremal adjacency eigenvalues and lam = max(lambda2, |lambda_n|).

The recovery experiment runs the sweep on the projected operator with slack
delta = 16 (eps + theta) and reports the two measured bounds: the recovery
error against 16 (eps + theta) m and the squared distance between the
planted indicator and the top projected eigenvector against 4 (eps + theta).
Bounds are asserted only when the measured hypotheses hold (lambda1 >= 4 lam);
otherwise the report is marked vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import BLUE, RED, Coloring, LabeledGraph, NodeSet
from .spectral import (AdjacencyOperator, ProjectedOperator, SpectralProfile,
                       dominant_eigenpair, fairness_vector, spectral_profile)
from .sweep import SolutionRecord, general_sweep


@dataclass(frozen=True)
class PlantedParams:
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
    """Quantities recomputed from the realized graph, not the parameters."""

    d_max: float
    theta: float
    eps_measured: float
    lambda1: float
    lambda2: float
    lambda_n: float
    lam: float
    hypotheses_hold: bool
    margin_vs_lam: float      # lambda1 - 4 lam
    margin_vs_lambda2: float  # lambda1 - 4 lambda2


@dataclass(frozen=True)
class PlantedInstance:
    params: PlantedParams
    graph: LabeledGraph
    coloring: Coloring
    planted_set: NodeSet
    measured: PlantedMeasurement


def _sample_regular_pairs(rng: np.random.Generator, m: int, d: int) -> set | None:
    """One attempt at a simple d-regular pairing of node stubs.

    Pairs are drawn by shuffling the remaining stubs; colliding pairs
    (self-loops, duplicates) feed the next round. Returns None when a round
    makes no progress, in which case the caller restarts.
    """
    if d == 0:
        return set()
    stubs = np.repeat(np.arange(m), d)
    edges: set[tuple[int, int]] = set()
    while stubs.size:
        rng.shuffle(stubs)
        leftover = []
        progressed = False
        for a, b in zip(stubs[0::2], stubs[1::2]):
            a, b = int(a), int(b)
            key = (a, b) if a < b else (b, a)
            if a == b or key in edges:
                leftover.append(a)
                leftover.append(b)
            else:
                edges.add(key)
                progressed = True
        if not progressed:
            return None
        stubs = np.array(leftover, dtype=np.int64)
    return edges


def _planted_internal_edges(rng: np.random.Generator, m: int, d: int,
                            eps: float, max_retries: int) -> set:
    """Internal edges on working ids 0..m-1 with degrees in [(1-eps)d, (1+eps)d].

    Dense targets (d above (m-1)/2) are sampled as the complement of a
    sparse regular graph, where the stub matching behaves well.
    """
    if d == m - 1:
        return {(i, j) for i in range(m) for j in range(i + 1, m)}
    complement = d > (m - 1) / 2
    d_sample = (m - 1 - d) if complement else d
    lo, hi = (1.0 - eps) * d, (1.0 + eps) * d
    for _ in range(max_retries):
        edges = _sample_regular_pairs(rng, m, d_sample)
        if edges is None:
            continue
        if complement:
            edges = {(i, j) for i in range(m) for j in range(i + 1, m)} - edges
        deg = np.zeros(m, dtype=np.int64)
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if np.all((deg >= lo) & (deg <= hi)):
            return edges
    raise ValueError(
        f"could not sample a ({d}, {eps})-regular planted subgraph on {m} nodes "
        f"within {max_retries} attempts")


def generate(params: PlantedParams, *, eig_tol: float = 1e-8,
             eig_max_iters: int = 100_000, max_retries: int = 100) -> PlantedInstance:
    """Sample an instance and measure its recovery hypotheses.

    Construction happens on working ids (planted nodes 0..m-1), with
    background edges drawn independently per non-internal pair, then a random
    permutation relabels everything. Generation is deterministic per seed.
    """
    n, m, d = params.n, params.m, params.d
    rng = np.random.default_rng(params.seed)
    internal = _planted_internal_edges(rng, m, d, params.eps, max_retries)

    edges: list[tuple[int, int]] = list(internal)
    if params.p_bg > 0.0 and n > m:
        # independent Bernoulli per non-internal pair (j >= m), sampled row
        # by row in pair order to keep memory linear in n
        for i in range(n - 1):
            js = np.arange(max(i + 1, m), n)
            if js.size == 0:
                continue
            hits = js[rng.random(js.size) < params.p_bg]
            edges.extend((i, int(j)) for j in hits)

    perm = rng.permutation(n)
    colors = np.empty(n, dtype=np.int8)
    planted_final = perm[rng.permutation(m)]
    colors[planted_final[: m // 2]] = RED
    colors[planted_final[m // 2:]] = BLUE
    # background nodes alternate red/blue by final id to keep G near-fair
    background_final = np.sort(perm[m:])
    colors[background_final[0::2]] = RED
    colors[background_final[1::2]] = BLUE

    graph = LabeledGraph.from_edges(
        n, ((int(perm[u]), int(perm[v])) for u, v in edges))
    del edges  # one Python tuple per edge; free it before the eigensolves
    coloring = Coloring(colors)
    planted_set = NodeSet(perm[:m])

    internal_deg = np.zeros(m, dtype=np.int64)
    for a, b in internal:
        internal_deg[a] += 1
        internal_deg[b] += 1
    eps_measured = float(np.max(np.abs(internal_deg - d)) / d) if d else 0.0
    theta = max(0.0, 1.0 - d / graph.d_max) if graph.d_max > 0 else 0.0
    profile = spectral_profile(graph, tol=eig_tol, max_iters=eig_max_iters,
                               seed=params.seed)
    measured = _measurement(graph.d_max, theta, eps_measured, profile)
    return PlantedInstance(params, graph, coloring, planted_set, measured)


def _measurement(d_max: float, theta: float, eps_measured: float,
                 profile: SpectralProfile) -> PlantedMeasurement:
    return PlantedMeasurement(
        d_max=d_max, theta=theta, eps_measured=eps_measured,
        lambda1=profile.lambda1, lambda2=profile.lambda2,
        lambda_n=profile.lambda_n, lam=profile.lam,
        hypotheses_hold=bool(profile.lambda1 >= 4.0 * profile.lam),
        margin_vs_lam=profile.lambda1 - 4.0 * profile.lam,
        margin_vs_lambda2=profile.lambda1 - 4.0 * profile.lambda2)


def recovery_error(planted: NodeSet, recovered: NodeSet) -> int:
    """Number of planted nodes the recovered set misses: |planted \\ recovered|."""
    return int(np.setdiff1d(planted.members, recovered.members).size)


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
    alignment: float
    solution: SolutionRecord
    measured: PlantedMeasurement

    @property
    def passed(self) -> bool:
        return self.error_ok and self.chi_ok


def run_recovery(instance: PlantedInstance, algorithm: str = "fss",
                 delta_policy: str | float = "bound", *,
                 eig_tol: float = 1e-8, eig_max_iters: int = 100_000,
                 seed: int | None = None) -> RecoveryReport:
    """Theoretical sweep on a generated instance, with both bound checks."""
    if algorithm not in ("fss", "ss"):
        raise ValueError("recovery sweep supports 'fss' (projected) or 'ss' (raw)")
    g, c = instance.graph, instance.coloring
    meas = instance.measured
    if delta_policy == "bound":
        delta = 16.0 * (meas.eps_measured + meas.theta)
    else:
        delta = float(delta_policy)
    seed = instance.params.seed if seed is None else seed
    if algorithm == "fss":
        op = ProjectedOperator(g, fairness_vector(c))
    else:
        op = AdjacencyOperator(g)
    top = dominant_eigenpair(op, tol=eig_tol, max_iters=eig_max_iters, seed=seed)
    solution = general_sweep(g, c, top.vector, delta, algorithm=algorithm)

    m = instance.planted_set.size
    err = recovery_error(instance.planted_set, solution.node_set)
    error_bound = 16.0 * (meas.eps_measured + meas.theta) * m
    chi = instance.planted_set.indicator(g.n)
    align = float(chi @ top.vector)
    vec = -top.vector if align < 0 else top.vector
    chi_dist_sq = float(np.sum((chi - vec) ** 2))
    chi_bound = 4.0 * (meas.eps_measured + meas.theta)
    # 1e-9 of slack absorbs eigensolver rounding when the bound is exactly 0
    return RecoveryReport(
        vacuous=not meas.hypotheses_hold, delta=delta,
        error=err, error_bound=error_bound, error_ok=bool(err <= error_bound),
        chi_dist_sq=chi_dist_sq, chi_bound=chi_bound,
        chi_ok=bool(chi_dist_sq <= chi_bound + 1e-9), alignment=abs(align),
        solution=solution, measured=meas)


def recovery_experiment(params: PlantedParams, algorithm: str = "fss",
                        delta_policy: str | float = "bound", *,
                        eig_tol: float = 1e-8, eig_max_iters: int = 100_000,
                        max_retries: int = 100) -> RecoveryReport:
    """Generate an instance from ``params`` and run the recovery sweep on it."""
    instance = generate(params, eig_tol=eig_tol, eig_max_iters=eig_max_iters,
                        max_retries=max_retries)
    return run_recovery(instance, algorithm, delta_policy,
                        eig_tol=eig_tol, eig_max_iters=eig_max_iters)
