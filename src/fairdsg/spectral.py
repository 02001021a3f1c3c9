"""Fairness vector, projected adjacency operator, and matrix-free eigensolver.

The balance constraint "equally many red and blue nodes" is encoded by the
unit vector f with entries +1/sqrt(n) on red nodes and -1/sqrt(n) on blue
ones: a set indicator x is balanced iff f.x = 0. Projecting the adjacency
matrix onto the kernel of f gives B = (I - ff^T) A (I - ff^T), whose top
eigenvector drives the fair sweep algorithms. All operators here act
matrix-free; eigenpairs come from shifted power iteration (eigenvalues of
both A and B lie in [-d_max, d_max], so adding d_max * I makes the algebraic
top the magnitude top and the iteration converges to it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Coloring, LabeledGraph


class ConvergenceError(Exception):
    """Power iteration did not reach the requested tolerance."""

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
    """Converged eigenpair of an operator (shift already removed).

    ``residual`` is the absolute ||op(v) - value * v||; convergence was
    declared at residual <= tol * max(|value|, 1).
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


class AdjacencyOperator:
    """Action of the adjacency matrix A, with an optional diagonal shift."""

    def __init__(self, graph: LabeledGraph, shift: float | None = None):
        self.graph = graph
        self.shift = graph.d_max if shift is None else float(shift)

    @property
    def n(self) -> int:
        return self.graph.n

    def apply(self, x: np.ndarray, with_shift: bool = False) -> np.ndarray:
        y = self.graph.matvec(x)
        if with_shift:
            y = y + self.shift * np.asarray(x, dtype=np.float64)
        return y


class ProjectedOperator:
    """B = (I - ff^T) A (I - ff^T) applied without materializing any matrix.

    The action is y = x - (f.x) f; z = A y; out = z - (f.z) f, plus c*x when
    the shift is requested.
    """

    def __init__(self, graph: LabeledGraph, fairness: FairnessVector,
                 shift: float | None = None):
        if fairness.n != graph.n:
            raise ValueError("fairness vector length does not match the graph")
        self.graph = graph
        self.fairness = fairness
        self.shift = graph.d_max if shift is None else float(shift)

    @property
    def n(self) -> int:
        return self.graph.n

    def apply(self, x: np.ndarray, with_shift: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector of length {x.size} does not match n={self.n}")
        f = self.fairness.entries
        y = x - (f @ x) * f
        z = self.graph.matvec(y)
        out = z - (f @ z) * f
        if with_shift:
            out = out + self.shift * x
        return out


class _ReflectedAdjacency:
    """-A with shift c = d_max; its dominant eigenpair is (-lambda_n, v_n)."""

    def __init__(self, graph: LabeledGraph):
        self.graph = graph
        self.shift = graph.d_max

    @property
    def n(self) -> int:
        return self.graph.n

    def apply(self, x: np.ndarray, with_shift: bool = False) -> np.ndarray:
        y = -self.graph.matvec(x)
        if with_shift:
            y = y + self.shift * np.asarray(x, dtype=np.float64)
        return y


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the first entry of magnitude above 1e-12 is positive."""
    for x in v:
        if abs(x) > 1e-12:
            return -v if x < 0 else v
    return v


def _power_iteration(op, tol: float, max_iters: int, seed: int,
                     deflate: np.ndarray | None) -> EigenPair:
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = op.n
    if n == 0:
        raise ValueError("operator over an empty graph has no eigenpairs")
    if deflate is not None and n == 1:
        raise ValueError("a 1-node operator has no second eigenpair")
    # the deflated solve draws from its own stream so its start never
    # coincides with a vector the first solve already returned
    rng = np.random.default_rng([seed, 0 if deflate is None else 1])
    v = rng.standard_normal(n)
    if deflate is not None:
        for _ in range(8):
            v = v - (deflate @ v) * deflate
            if float(np.linalg.norm(v)) > 1e-8 * math.sqrt(n):
                break
            v = rng.standard_normal(n)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError("degenerate start vector; use a different seed")
    v = v / nv
    best = math.inf
    for k in range(1, max_iters + 1):
        y = op.apply(v, with_shift=True)
        if deflate is not None:
            y = y - (deflate @ y) * deflate
        mu = float(v @ y)
        lam = mu - op.shift
        resid = float(np.linalg.norm(y - mu * v))
        rel = resid / max(abs(lam), 1.0)
        best = min(best, rel)
        if rel <= tol:
            return EigenPair(value=lam, vector=_canonical_sign(v),
                             residual=resid, iterations=k)
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            # v lies in an exact kernel of the shifted operator
            return EigenPair(value=-op.shift, vector=_canonical_sign(v),
                             residual=0.0, iterations=k)
        v = y / ny
    raise ConvergenceError(
        f"power iteration did not converge in {max_iters} iterations "
        f"(best relative residual {best:.3e})", best, max_iters)


def dominant_eigenpair(op, tol: float = 1e-8, max_iters: int = 100_000,
                       seed: int = 0) -> EigenPair:
    """Largest-algebraic eigenpair of the (unshifted) operator.

    ``op`` is any operator exposing ``n``, ``shift`` and
    ``apply(x, with_shift)`` — in particular :class:`AdjacencyOperator` and
    :class:`ProjectedOperator`. The returned vector has unit norm and its
    first nonzero entry is positive.
    """
    return _power_iteration(op, tol, max_iters, seed, deflate=None)


def second_eigenvalue(op, first: EigenPair, tol: float = 1e-8,
                      max_iters: int = 100_000, seed: int = 0) -> EigenPair:
    """Second-largest algebraic eigenpair via deflation against ``first``.

    Every iterate is re-orthogonalized against ``first.vector``.
    """
    return _power_iteration(op, tol, max_iters, seed, deflate=first.vector)


@dataclass(frozen=True)
class SpectralProfile:
    """Extremal adjacency eigenvalues and lam = max(lambda2, |lambda_n|)."""

    lambda1: float
    lambda2: float
    lambda_n: float
    lam: float


def spectral_profile(g: LabeledGraph, tol: float = 1e-8,
                     max_iters: int = 100_000, seed: int = 0) -> SpectralProfile:
    """lambda_1, lambda_2 (power iteration + deflation) and lambda_n
    (power iteration on d_max*I - A), plus lam = max(lambda2, |lambda_n|)."""
    if g.n < 2:
        raise ValueError("spectral profile needs at least two nodes")
    top = AdjacencyOperator(g)
    first = dominant_eigenpair(top, tol, max_iters, seed)
    second = second_eigenvalue(top, first, tol, max_iters, seed)
    bottom = dominant_eigenpair(_ReflectedAdjacency(g), tol, max_iters, seed)
    lambda_n = -bottom.value + 0.0  # avoid -0.0 in reports
    return SpectralProfile(lambda1=first.value, lambda2=second.value,
                           lambda_n=lambda_n,
                           lam=max(second.value, abs(lambda_n)))
