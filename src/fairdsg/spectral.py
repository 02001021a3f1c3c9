"""Fairness vector, projected adjacency operator, and matrix-free eigensolver.

The balance constraint "equally many red and blue nodes" is encoded by the
unit vector f with entries +1/sqrt(n) on red nodes and -1/sqrt(n) on blue
ones: a set indicator x is balanced iff f.x = 0. Projecting the adjacency
matrix onto the kernel of f gives B = (I - ff^T) A (I - ff^T), whose top
eigenvector drives the fair sweep algorithms. Every eigenpair comes from
one restarted Lanczos routine (Golub and Van Loan, Matrix Computations,
ch. 10), which reads an operator only through ``n``, ``d_max`` (a bound on
its spectral norm) and ``matvec(x)``: a :class:`LabeledGraph` is the
adjacency operator A, and :class:`ProjectedOperator` is B.
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

    def __reduce__(self):
        # pickled across a process pool with all three arguments, not only
        # the message that Exception keeps in ``args``
        return type(self), (str(self), self.best_residual, self.iterations)


def fairness_vector(c: Coloring) -> np.ndarray:
    """Read-only unit vector with +1/sqrt(n) entries on red nodes, -1/sqrt(n)
    on blue ones."""
    if c.n < 1:
        raise ValueError("fairness vector needs at least one node")
    f = np.where(c.red_mask(), 1.0, -1.0) / math.sqrt(c.n)
    f.flags.writeable = False
    return f


@dataclass(frozen=True)
class EigenPair:
    """Converged eigenpair: unit ``vector`` with a positive first nonzero entry.

    ``residual`` is the absolute ||op(v) - value * v|| of a fresh product,
    at most tol * max(|value|, 1, d_max * 2^-52); ``iterations`` counts the
    solve's matvecs.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


class ProjectedOperator:
    """B = (I - ff^T) A (I - ff^T), f the coloring's fairness vector, applied
    without materializing any matrix.

    The action is y = x - (f.x) f; z = A y; out = z - (f.z) f.
    """

    def __init__(self, graph: LabeledGraph, coloring: Coloring):
        self.graph = graph
        self.fairness = fairness_vector(coloring)
        if self.fairness.size != graph.n:
            raise ValueError("fairness vector length does not match the graph")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d_max(self) -> float:
        """The graph's maximum weighted degree, which also bounds ||B||."""
        return self.graph.d_max

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector of length {x.size} does not match n={self.n}")
        f = self.fairness
        y = x - (f @ x) * f
        z = self.graph.matvec(y)
        return z - (f @ z) * f


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the first entry of magnitude above 1e-12 is positive."""
    visible = np.flatnonzero(np.abs(v) > 1e-12)
    return -v if visible.size and v[visible[0]] < 0 else v


#: The default relative-residual tolerance, and the matvec cap of every
#: solve: a safety stop for a solve that never converges.
TOL = 1e-8
MAX_MATVECS = 100_000

# Lanczos steps between explicit restarts from the Ritz vector
_RESTART = 30


def _lanczos(op, tol: float, seed: int, lock: np.ndarray | None = None,
             bottom: bool = False) -> tuple[EigenPair, EigenPair]:
    """Top and bottom algebraic eigenpairs (both the top one unless ``bottom``).

    Lanczos with full reorthogonalization, restarted after ``_RESTART`` steps
    or a Krylov breakdown from the Ritz vector (with ``bottom``, the sum of
    both ends' Ritz vectors). A pair is accepted only on a fresh product,
    ||op(v) - theta v|| <= tol * max(|theta|, 1, d_max * 2^-52). The unit
    vector ``lock`` is removed from the start and every product;
    ``MAX_MATVECS`` caps the matvecs.

    The iteration runs on op * unit, unit = 2^-max(0, e - 500) for the binary
    exponent e of ``op.d_max``, so the squared norms of huge weights stay
    finite; unit is 1 below d_max = 2^500, and a power of two scales exactly.
    The floor d_max * 2^-52, the rounding error of one product, lets an
    eigenvalue near 0 converge when the weights are huge; it is below 1, and
    so changes nothing, for d_max < 2^52.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    n = op.n
    if n == 0:
        raise ValueError("operator over an empty graph has no eigenpairs")
    if lock is not None and n == 1:
        raise ValueError("a 1-node operator has no second eigenpair")
    # the locked solve draws from its own stream so its start never
    # coincides with a vector the unlocked solve already returned
    v = np.random.default_rng([seed, 0 if lock is None else 1]).standard_normal(n)
    lock = np.zeros(n) if lock is None else lock
    unit = 2.0 ** -max(0, math.frexp(op.d_max)[1] - 500)
    floor = max(unit, op.d_max * unit * 2.0 ** -52)
    matvecs, best = 0, math.inf

    def apply(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        if matvecs == MAX_MATVECS:
            raise ConvergenceError(
                f"Lanczos did not converge in {MAX_MATVECS} matvecs "
                f"(best relative residual {best:.3e})", best, MAX_MATVECS)
        matvecs += 1
        y = op.matvec(x) * unit
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
        worst = max(r / max(abs(th), floor) for th, _, _, r in pairs)
        best = min(best, worst)
        if worst <= tol:
            return tuple(EigenPair(value=th / unit, vector=_canonical_sign(x),
                                   residual=r / unit, iterations=matvecs)
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
                    b * abs(ys[j, i]) <= tol * max(abs(thetas[i]), floor)
                    for i in picks):
                break
            basis[j + 1] = w / b
        ritz = [ys[:, i] @ basis[:j + 1] for i in picks]


def dominant_eigenpair(op, tol: float = TOL, seed: int = 0) -> EigenPair:
    """Largest-algebraic eigenpair of ``op``, by Lanczos.

    ``op`` is any symmetric operator exposing ``n``, ``d_max`` and
    ``matvec(x)``: a :class:`LabeledGraph` or a :class:`ProjectedOperator`.
    """
    return _lanczos(op, tol, seed)[0]


def second_eigenvalue(op, first: EigenPair, tol: float = TOL, seed: int = 0) -> EigenPair:
    """Second-largest algebraic eigenpair: a Lanczos solve with
    ``first.vector`` locked out of the start and of every Lanczos vector.

    It is a solve of its own because one Krylov space holds one copy of a
    repeated eigenvalue, so the first solve would miss lambda1 = lambda2.
    """
    return _lanczos(op, tol, seed, lock=first.vector)[0]


@dataclass(frozen=True)
class SpectralProfile:
    """Extremal adjacency eigenvalues and lam = max(lambda2, |lambda_n|)."""

    lambda1: float
    lambda2: float
    lambda_n: float
    lam: float


def spectral_profile(g: LabeledGraph, tol: float = TOL, seed: int = 0) -> SpectralProfile:
    """lambda_1 and lambda_n of A from one Lanczos solve, lambda_2 from
    :func:`second_eigenvalue`, and lam = max(lambda2, |lambda_n|)."""
    if g.n < 2:
        raise ValueError("spectral profile needs at least two nodes")
    first, last = _lanczos(g, tol, seed, bottom=True)
    second = second_eigenvalue(g, first, tol, seed)
    return SpectralProfile(lambda1=first.value, lambda2=second.value,
                           lambda_n=last.value,
                           lam=max(second.value, abs(last.value)))
