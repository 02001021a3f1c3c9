"""Sweep rounding of eigenvectors into dense, (near-)fair node sets.

Both sweeps sort the nodes by eigenvector entry in four orderings
(non-increasing, non-decreasing, and both orderings of the absolute values)
and examine nested prefixes. A sweep is described per ordering by the step at
which each node joins the prefix:

    general sweep  the node's position in the ordering; prefix s holds
                   s + 1 nodes
    paired sweep   the node's rank within its own color class; prefix s
                   holds the top s + 1 red and top s + 1 blue nodes, and
                   nodes ranked past min(n_red, n_blue) never join

An edge joins at the later of its endpoints' steps, so the prefix weights of
one ordering are a ``bincount`` of the edges' join steps and a ``cumsum``;
sizes and red counts come the same way. The same kernel, ``_prefix_sums``,
sums the 2dfsg padding trajectory (``flow.two_dfsg_candidates``). The
general sweep keeps the densest prefix whose red/blue imbalance stays within
delta * |S|; the paired sweep's prefixes are balanced by construction.

Four named algorithms combine a sweep with an eigenvector source:

    ss   general sweep on the adjacency matrix, delta = 0
    fss  general sweep on the projected matrix, delta = 0
    ps   paired sweep on the adjacency matrix
    fps  paired sweep on the projected matrix
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import RED, Coloring, LabeledGraph, NodeSet, balance, color_counts, density
from .spectral import ProjectedOperator, dominant_eigenpair


class Ordering(Enum):
    NON_INCREASING = "non_increasing"
    NON_DECREASING = "non_decreasing"
    ABS_NON_INCREASING = "abs_non_increasing"
    ABS_NON_DECREASING = "abs_non_decreasing"


#: Fixed enumeration order; also the tie-break order across orderings.
ALL_ORDERINGS: tuple[Ordering, ...] = tuple(Ordering)

#: name -> (sweeps the projected operator's eigenvector?, paired sweep?)
SPECTRAL_ALGORITHMS: dict[str, tuple[bool, bool]] = {
    "ss": (False, False), "fss": (True, False),
    "ps": (False, True), "fps": (True, True),
}


class SolveStatus(Enum):
    FOUND = "Found"
    NO_FEASIBLE_PREFIX = "NoFeasiblePrefix"
    UNFAIR = "Unfair"


@dataclass(frozen=True)
class SolutionRecord:
    """A node set, its status and its quality measures, recomputed from the
    graph.

    The record describes the set, not the run that found it: it holds no
    algorithm name and no timing, so equal inputs give equal records.
    ``fair`` is true only for a non-empty set with zero imbalance, so failed
    runs (empty set, status NoFeasiblePrefix) are never reported as fair.
    """

    node_set: NodeSet
    density: float
    balance: float
    imbalance: int
    fair: bool
    size: int
    n_red_in_s: int
    n_blue_in_s: int
    status: SolveStatus


def make_record(g: LabeledGraph, c: Coloring, s: NodeSet,
                status: SolveStatus) -> SolutionRecord:
    """The record of ``s`` with ``status``, every measure recomputed from
    the graph; the empty set has density and balance 0."""
    red, blue = color_counts(s, c)
    if s.size:
        dens = density(g, s)
        bal = balance(s, c)
    else:
        dens = 0.0
        bal = 0.0
    imb = abs(red - blue)
    return SolutionRecord(
        node_set=s, density=dens, balance=bal, imbalance=imb,
        fair=bool(s.size > 0 and imb == 0), size=s.size,
        n_red_in_s=red, n_blue_in_s=blue, status=status)


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


def _prefix_sums(g: LabeledGraph, c: Coloring, step: np.ndarray, n_steps: int):
    """(size, weight, red) of prefixes 0 .. n_steps - 1, where node i joins at
    ``step[i]`` and never when that is ``>= n_steps``."""
    join = np.maximum(step[g.edge_u], step[g.edge_v])
    joins = ((step, None), (join, g.edge_w), (step[c.codes == RED], None))
    return tuple(np.bincount(at, weights=w, minlength=n_steps)[:n_steps].cumsum()
                 for at, w in joins)


def _balance(size: np.ndarray, red: np.ndarray) -> np.ndarray:
    """Element-wise :func:`~fairdsg.graph.balance` of non-empty sets from
    their sizes and red counts."""
    return np.minimum(red, size - red) / np.maximum(red, size - red)


def _scan(g: LabeledGraph, c: Coloring, v: np.ndarray,
          orderings: Sequence[Ordering], paired: bool):
    """Every prefix of every ordering, shared by the sweeps and their trace.

    Returns (steps, size, dens, red): ``steps[o]`` is ordering o's step
    array, and ``size[o, s]``, ``dens[o, s]`` and ``red[o, s]`` are the size,
    density and red count of its prefix s, the nodes with step <= s.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"eigenvector of length {v.size} does not match n={g.n}")
    is_red = c.codes == RED
    n_steps = min(c.n_red, c.n_blue) if paired else g.n
    steps = np.empty((len(orderings), g.n), dtype=np.int64)
    size = np.empty((len(orderings), n_steps), dtype=np.int64)
    w = np.empty((len(orderings), n_steps))
    red = np.empty((len(orderings), n_steps), dtype=np.int64)
    for oi, ordering in enumerate(orderings):
        perm = ordering_permutation(v, ordering)
        if paired:
            in_red = is_red[perm]
            steps[oi, perm] = np.where(in_red, np.cumsum(in_red), np.cumsum(~in_red)) - 1
        else:
            steps[oi, perm] = np.arange(g.n)
        size[oi], w[oi], red[oi] = _prefix_sums(g, c, steps[oi], n_steps)
    return steps, size, 2.0 * w / size, red


def _best(key: np.ndarray) -> tuple[int, int] | None:
    """(ordering, step) of the largest key; ties go to the smaller prefix,
    then the earlier ordering. None when every key is -inf."""
    if not key.size:
        return None
    # argmax returns the first maximum of the step-major flattening
    step, oi = divmod(int(np.argmax(key.T)), key.shape[0])
    return None if key[oi, step] == -np.inf else (oi, step)


def _record(g: LabeledGraph, c: Coloring, steps: np.ndarray,
            best: tuple[int, int] | None) -> SolutionRecord:
    if best is None:
        return make_record(g, c, NodeSet(), SolveStatus.NO_FEASIBLE_PREFIX)
    oi, step = best
    return make_record(g, c, NodeSet(np.flatnonzero(steps[oi] <= step)),
                       SolveStatus.FOUND)


def general_sweep(g: LabeledGraph, c: Coloring, v: np.ndarray, delta: float,
                  orderings: Sequence[Ordering] = ALL_ORDERINGS) -> SolutionRecord:
    """Best prefix over the given orderings with imbalance <= delta * |S|.

    Ties prefer higher density, then smaller size, then the earlier ordering.
    When no prefix qualifies the record carries status NoFeasiblePrefix.
    """
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    steps, size, dens, red = _scan(g, c, v, orderings, paired=False)
    feasible = np.abs(2 * red - size) <= delta * size
    return _record(g, c, steps, _best(np.where(feasible, dens, -np.inf)))


def paired_sweep(g: LabeledGraph, c: Coloring, v: np.ndarray,
                 orderings: Sequence[Ordering] = ALL_ORDERINGS) -> SolutionRecord:
    """Densest union of equal-size color prefixes; fair by construction.

    Ties prefer higher density, then smaller size, then the earlier ordering.
    Status is NoFeasiblePrefix only when one color class is empty.
    """
    steps, _, dens, _ = _scan(g, c, v, orderings, paired=True)
    return _record(g, c, steps, _best(dens))


def sweep_eigenvector(name: str, g: LabeledGraph, c: Coloring, *,
                      seed: int = 0) -> np.ndarray:
    """Top eigenvector a sweep algorithm rounds: of the projected operator
    for fss and fps, of the raw adjacency for ss and ps; ValueError for others.
    ``seed`` goes to :func:`dominant_eigenpair`."""
    if name not in SPECTRAL_ALGORITHMS:
        raise ValueError(f"unknown sweep algorithm {name!r}")
    projected, _ = SPECTRAL_ALGORITHMS[name]
    op = ProjectedOperator(g, c) if projected else g
    return dominant_eigenpair(op, seed=seed).vector


def run_algorithm(name: str, g: LabeledGraph, c: Coloring, *, delta: float = 0.0,
                  seed: int = 0) -> SolutionRecord:
    """The record of one of ss / fss / ps / fps on ``g``, with the
    eigenvector of :func:`sweep_eigenvector`.

    ss and fss sweep with the imbalance slack ``delta`` (the recovery
    guarantee uses delta = 16 (eps + theta); the experimental defaults use
    delta = 0). ps and fps ignore it, but every name rejects a negative or
    nan delta. Equal calls return equal records.
    """
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    v = sweep_eigenvector(name, g, c, seed=seed)
    _, paired = SPECTRAL_ALGORITHMS[name]
    if paired:
        return paired_sweep(g, c, v)
    return general_sweep(g, c, v, delta)


def candidate_trace(name: str, g: LabeledGraph, c: Coloring, *,
                    seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(size, density, balance) arrays of all candidates one algorithm
    examines, with the eigenvector of :func:`sweep_eigenvector`.

    Emission order is deterministic: orderings in enumeration order, then
    prefix size ascending. The general sweep emits exactly
    len(orderings) * n candidates, the paired sweep
    len(orderings) * min(n_red, n_blue).
    """
    v = sweep_eigenvector(name, g, c, seed=seed)
    _, paired = SPECTRAL_ALGORITHMS[name]
    _, size, dens, red = _scan(g, c, v, ALL_ORDERINGS, paired)
    return size.ravel(), dens.ravel(), _balance(size, red).ravel()
