"""Fairness vector, projected adjacency operator, and matrix-free eigensolver.

The balance constraint "equally many red and blue nodes" is encoded by the
unit vector f with entries +1/sqrt(n) on red nodes and -1/sqrt(n) on blue
ones: a set indicator x is balanced iff f.x = 0. Projecting the adjacency
matrix onto the kernel of f gives B = (I - ff^T) A (I - ff^T), whose top
eigenvector drives the fair sweep algorithms. All operators here act
matrix-free, and every eigenpair comes from one restarted Lanczos routine
(Golub and Van Loan, Matrix Computations, ch. 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Coloring, LabeledGraph


class ConvergenceError(Exception):
    """The eigensolver used up ``iterations`` matvecs; ``best_residual`` is relative."""

    def __init__(self, message: str, best_residual: float, iterations: int):
        super().__init__(message)
        self.best_residual = best_residual
        self.iterations = iterations


@dataclass(frozen=True)
class FairnessVector:
    """Unit vector with +1/sqrt(n) entries on red nodes, -1/sqrt(n) on blue."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return int(self.entries.size)


def fairness_vector(c: Coloring) -> FairnessVector:
    if c.n < 1:
        raise ValueError("fairness vector needs at least one node")
    entries = np.where(c.red_mask(), 1.0, -1.0) / math.sqrt(c.n)
    entries.flags.writeable = False
    return FairnessVector(entries)


@dataclass(frozen=True)
class EigenPair:
    """Converged eigenpair: unit ``vector`` with a positive first nonzero entry.

    ``residual`` is the absolute ||op(v) - value * v|| of a fresh product,
    at most tol * max(|value|, 1); ``iterations`` counts the solve's matvecs.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


class AdjacencyOperator:
    """Action of the adjacency matrix A."""

    def __init__(self, graph: LabeledGraph):
        self.graph = graph

    @property
    def n(self) -> int:
        return self.graph.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.graph.matvec(x)


class ProjectedOperator:
    """B = (I - ff^T) A (I - ff^T) applied without materializing any matrix.

    The action is y = x - (f.x) f; z = A y; out = z - (f.z) f.
    """

    def __init__(self, graph: LabeledGraph, fairness: FairnessVector):
        if fairness.n != graph.n:
            raise ValueError("fairness vector length does not match the graph")
        self.graph = graph
        self.fairness = fairness

    @property
    def n(self) -> int:
        return self.graph.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector of length {x.size} does not match n={self.n}")
        f = self.fairness.entries
        y = x - (f @ x) * f
        z = self.graph.matvec(y)
        return z - (f @ z) * f


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the first entry of magnitude above 1e-12 is positive."""
    visible = np.flatnonzero(np.abs(v) > 1e-12)
    return -v if visible.size and v[visible[0]] < 0 else v


# Lanczos steps between explicit restarts from the Ritz vector
_RESTART = 30


def _lanczos(op, tol: float, max_iters: int, seed: int, lock: np.ndarray | None = None,
             bottom: bool = False) -> tuple[EigenPair, EigenPair]:
    """Top and bottom algebraic eigenpairs (both the top one unless ``bottom``).

    Lanczos with full reorthogonalization, restarted after ``_RESTART`` steps
    or a Krylov breakdown from the Ritz vector (with ``bottom``, the sum of
    both ends' Ritz vectors). A pair is accepted only on a fresh product,
    ||op(v) - theta v|| <= tol * max(|theta|, 1). The unit vector ``lock`` is
    removed from the start and every product; ``max_iters`` caps the matvecs.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    n = op.n
    if n == 0:
        raise ValueError("operator over an empty graph has no eigenpairs")
    if lock is not None and n == 1:
        raise ValueError("a 1-node operator has no second eigenpair")
    # the locked solve draws from its own stream so its start never
    # coincides with a vector the unlocked solve already returned
    v = np.random.default_rng([seed, 0 if lock is None else 1]).standard_normal(n)
    lock = np.zeros(n) if lock is None else lock
    matvecs, best = 0, math.inf

    def apply(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        if matvecs == max_iters:
            raise ConvergenceError(
                f"Lanczos did not converge in {max_iters} matvecs "
                f"(best relative residual {best:.3e})", best, max_iters)
        matvecs += 1
        y = op.apply(x)
        return y - (lock @ y) * lock

    ritz = [v - (lock @ v) * lock]
    k = min(_RESTART, n)
    basis, t = np.empty((k, n)), np.zeros((k + 1, k + 1))
    while True:
        pairs = []
        for x in ritz:
            x = x / np.linalg.norm(x)
            ax = apply(x)
            theta = float(x @ ax) + 0.0  # no -0.0 in reports
            pairs.append((theta, x, ax, float(np.linalg.norm(ax - theta * x))))
        worst = max(r / max(abs(th), 1.0) for th, _, _, r in pairs)
        best = min(best, worst)
        if worst <= tol:
            return tuple(EigenPair(value=th, vector=_canonical_sign(x), residual=r,
                                   iterations=matvecs)
                         for th, x, _, r in (pairs[0], pairs[-1]))
        # restart from the normalized sum of the Ritz vectors, product known
        v = sum(x for _, x, _, _ in pairs)
        scale = np.linalg.norm(v)
        basis[0], w = v / scale, sum(ax for _, _, ax, _ in pairs) / scale
        for j in range(k):
            if j:
                w = apply(basis[j])
            t[j, j] = basis[j] @ w
            for _ in range(2):  # twice is enough (Kahan-Parlett)
                w = w - basis[:j + 1].T @ (basis[:j + 1] @ w)
            t[j, j + 1] = t[j + 1, j] = b = np.linalg.norm(w)
            thetas, ys = np.linalg.eigh(t[:j + 1, :j + 1])
            picks = (j, 0) if bottom and j else (j,)
            if b <= 1e-12 * np.abs(thetas).max() or j + 1 == k or all(
                    b * abs(ys[j, i]) <= tol * max(abs(thetas[i]), 1.0)
                    for i in picks):
                break
            basis[j + 1] = w / b
        ritz = [ys[:, i] @ basis[:j + 1] for i in picks]


def dominant_eigenpair(op, tol: float = 1e-8, max_iters: int = 100_000,
                       seed: int = 0) -> EigenPair:
    """Largest-algebraic eigenpair of ``op``, by Lanczos.

    ``op`` is any symmetric operator exposing ``n`` and ``apply(x)`` — in
    particular :class:`AdjacencyOperator` and :class:`ProjectedOperator`.
    """
    return _lanczos(op, tol, max_iters, seed)[0]


def second_eigenvalue(op, first: EigenPair, tol: float = 1e-8,
                      max_iters: int = 100_000, seed: int = 0) -> EigenPair:
    """Second-largest algebraic eigenpair: a Lanczos solve with
    ``first.vector`` locked out of the start and of every Lanczos vector.

    It is a solve of its own because one Krylov space holds one copy of a
    repeated eigenvalue, so the first solve would miss lambda1 = lambda2.
    """
    return _lanczos(op, tol, max_iters, seed, lock=first.vector)[0]


@dataclass(frozen=True)
class SpectralProfile:
    """Extremal adjacency eigenvalues and lam = max(lambda2, |lambda_n|)."""

    lambda1: float
    lambda2: float
    lambda_n: float
    lam: float


def spectral_profile(g: LabeledGraph, tol: float = 1e-8,
                     max_iters: int = 100_000, seed: int = 0) -> SpectralProfile:
    """lambda_1 and lambda_n of A from one Lanczos solve, lambda_2 from
    :func:`second_eigenvalue`, and lam = max(lambda2, |lambda_n|)."""
    if g.n < 2:
        raise ValueError("spectral profile needs at least two nodes")
    op = AdjacencyOperator(g)
    first, last = _lanczos(op, tol, max_iters, seed, bottom=True)
    second = second_eigenvalue(op, first, tol, max_iters, seed)
    return SpectralProfile(lambda1=first.value, lambda2=second.value,
                           lambda_n=last.value,
                           lam=max(second.value, abs(last.value)))
