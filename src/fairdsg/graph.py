"""Graph containers and the density / balance / fairness measures.

Everything in this module is immutable after construction and safe to share
between threads. Edges become a graph through one array canonicalizer,
``LabeledGraph.from_arrays`` (self-loops dropped, duplicates merged by
summing weights in input order, both orientations of each edge sorted by
(src, dst) into arcs, the one layout: ``LabeledGraph.__init__`` takes such
arcs and sorts nothing), so the same edge multiset always produces
identical arrays regardless of input order;
``LabeledGraph.from_edges`` feeds it (u, v) / (u, v, w) items.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

RED = 0
BLUE = 1

_LABELS = "RB"  # the label of each color code


def _int_ids(values: Iterable[int], what: str) -> np.ndarray:
    """``values``, a 1-D array or iterable of an integer dtype, as int64.

    The one reading of ids and color codes for every constructor. An empty
    list, which numpy reads as float64, is the empty array; float, boolean,
    object, string and multi-dimensional input raises a ValueError that names
    ``what`` and the dtype or the dimensions, and so does an unsigned id
    above the int64 range, naming it. Other ranges are the caller's check.
    """
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if arr.ndim != 1:
        raise ValueError(f"{what} must form a one-dimensional sequence, "
                         f"got {arr.ndim} dimensions")
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.dtype == np.uint64 and (beyond := arr > np.iinfo(np.int64).max).any():
        raise ValueError(f"{what} must be at most 2**63 - 1, "
                         f"got {arr[np.argmax(beyond)]}")
    return arr.astype(np.int64, copy=False)


def _read_columns(what: str, value: str, n: int, **columns):
    """The endpoint, endpoint and value columns of edges or arcs, as int64,
    int64 and float64: the one column rule of ``LabeledGraph.from_arrays``
    and ``flow.FlowNetwork``. Endpoints are read by ``_int_ids``. Columns of
    different shapes raise one ValueError naming each one's length (its
    shape, if not 1-D); else the error names the first bad item in input
    order: an endpoint outside 0..n-1, then a non-finite ``value``, then a
    negative one."""
    u, v, w = columns.values()
    u, v = _int_ids(u, f"{what} endpoints"), _int_ids(v, f"{what} endpoints")
    w = np.asarray(w, dtype=np.float64)
    if len({u.shape, v.shape, w.shape}) > 1:
        given = ", ".join(f"len({name}) = {c.size}" if c.ndim == 1
                          else f"{name}.shape = {c.shape}"
                          for name, c in zip(columns, (u, v, w)))
        raise ValueError(f"{what} columns do not line up: {given}")
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    infinite = ~np.isfinite(w)
    bad = outside | infinite | (w < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        item = f"{what} ({int(u[i])}, {int(v[i])})"
        if outside[i]:
            raise ValueError(f"{item} references a node id outside 0..{n - 1}")
        if infinite[i]:
            raise ValueError(f"{item} has non-finite {value} {float(w[i])}")
        raise ValueError(f"{item} has negative {value} {float(w[i])}")
    return u, v, w


class Coloring:
    """Per-node Red/Blue assignment with cached class counts."""

    __slots__ = ("codes", "n_red", "n_blue")

    def __init__(self, codes: Iterable[int]):
        arr = _int_ids(codes, "color codes")
        if arr.size and not np.isin(arr, (RED, BLUE)).all():
            raise ValueError("color codes must be RED (0) or BLUE (1)")
        arr = arr.astype(np.int8)
        arr.flags.writeable = False
        self.codes = arr
        self.n_blue = int(arr.sum())
        self.n_red = int(arr.size) - self.n_blue

    @property
    def n(self) -> int:
        return int(self.codes.size)

    @classmethod
    def from_labels(cls, labels: str | Iterable[str]) -> "Coloring":
        """Build from 'R'/'B' characters, e.g. the string ``"RRBB"``; the
        error names the first character that is neither."""
        text = labels if isinstance(labels, str) else "".join(labels)
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
        blue = points == ord(_LABELS[BLUE])
        unknown = ~blue & (points != ord(_LABELS[RED]))
        if unknown.any():
            bad = chr(points[np.argmax(unknown)])
            raise ValueError(f"unknown color label {bad!r}")
        return cls(blue.astype(np.int8))

    def labels(self) -> str:
        table = np.frombuffer(_LABELS.encode("ascii"), dtype=np.uint8)
        return table[self.codes].tobytes().decode("ascii")

    def red_mask(self) -> np.ndarray:
        return self.codes == RED

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coloring) and np.array_equal(self.codes, other.codes)

    def __repr__(self) -> str:
        return f"Coloring(n_red={self.n_red}, n_blue={self.n_blue})"


def _unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D integer array, sorted, as a new array.

    A sort, then each entry that differs from its predecessor: numpy 2.4's
    plain ``np.unique`` hashes integers instead, which is 6 times slower at
    400 entries and 20 to 70 times slower from 5,000 up.
    """
    out = np.sort(values)
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for int keys in 0..bound-1: a
    radix sort over 16-bit digits, lowest first, since numpy sorts uint16
    keys stably by counting."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, int(bound - 1).bit_length(), 16):
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16),
                                 kind="stable")]
    return order


class NodeSet:
    """Strictly sorted, duplicate-free set of node ids.

    Members are non-negative integers, read by ``_int_ids``. The normalized
    indicator (1/sqrt(m) on members, 0 elsewhere) is materialized on demand
    via :meth:`indicator`.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int] = ()):
        arr = _unique(_int_ids(members, "node ids"))
        if arr.size and arr[0] < 0:
            raise ValueError("node ids must be non-negative")
        arr.flags.writeable = False
        self.members = arr

    @property
    def size(self) -> int:
        return int(self.members.size)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return (int(i) for i in self.members)

    def __contains__(self, node: int) -> bool:
        i = np.searchsorted(self.members, node)
        return i < self.members.size and self.members[i] == node

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NodeSet) and np.array_equal(self.members, other.members)

    def __repr__(self) -> str:
        inner = ", ".join(str(i) for i in self.members[:8])
        if self.size > 8:
            inner += ", ..."
        return f"NodeSet([{inner}], size={self.size})"

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(i) for i in self.members)

    def mask(self, n: int) -> np.ndarray:
        """Boolean membership mask over node ids 0..n-1."""
        self._check_range(n)
        out = np.zeros(n, dtype=bool)
        out[self.members] = True
        return out

    def indicator(self, n: int) -> np.ndarray:
        """Normalized indicator: 1/sqrt(m) on members, 0 elsewhere."""
        if self.size == 0:
            raise ValueError("indicator of the empty set is undefined")
        out = np.zeros(n, dtype=np.float64)
        self._check_range(n)
        out[self.members] = 1.0 / np.sqrt(self.size)
        return out

    def _check_range(self, n: int) -> None:
        if self.size and self.members[-1] >= n:
            raise ValueError(
                f"node id {int(self.members[-1])} out of range for n={n}")


class LabeledGraph:
    """Undirected weighted graph in canonical compressed-sparse form, built
    from its arcs: ``__init__`` takes them symmetric, without self-loops and
    sorted by (src, dst), and sorts nothing.

    Attributes
    ----------
    n : node count (ids are dense, 0..n-1)
    arc_src, arc_dst, arc_w : both orientations of every edge, sorted by
        (src, dst), with CSR-style ``indptr`` for per-node slices
    edge_u, edge_v, edge_w : the arcs with src < dst, so the canonical edge
        list with edge_u < edge_v, sorted lexicographically
    degrees : weighted degree per node
    d_max : maximum weighted degree
    n_self_loops_dropped, n_duplicates_merged : the canonicalizer's work
    """

    __slots__ = ("n", "edge_u", "edge_v", "edge_w", "arc_src", "arc_dst", "arc_w",
                 "indptr", "degrees", "d_max", "n_self_loops_dropped",
                 "n_duplicates_merged")

    def __init__(self, n: int, arc_src: np.ndarray, arc_dst: np.ndarray,
                 arc_w: np.ndarray, n_self_loops_dropped: int,
                 n_duplicates_merged: int):
        self.n = int(n)
        self.arc_src, self.arc_dst, self.arc_w = arc_src, arc_dst, arc_w
        forward = np.flatnonzero(arc_src < arc_dst)  # indices gather faster than a mask
        self.edge_u, self.edge_v = arc_src[forward], arc_dst[forward]
        self.edge_w = arc_w[forward]
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(arc_src, minlength=n))])
        # bincount of no arcs is int64 (also with weights), hence the cast
        self.degrees = np.bincount(arc_src, weights=arc_w,
                                   minlength=n).astype(np.float64)
        for a in (arc_src, arc_dst, arc_w, self.edge_u, self.edge_v, self.edge_w,
                  self.indptr, self.degrees):
            a.flags.writeable = False
        self.d_max = float(self.degrees.max(initial=0.0))
        self.n_self_loops_dropped = int(n_self_loops_dropped)
        self.n_duplicates_merged = int(n_duplicates_merged)

    @classmethod
    def from_arrays(cls, n: int, u, v, w=None) -> "LabeledGraph":
        """Build a graph from edge columns; ``w`` defaults to all ones.

        ``_read_columns`` checks every edge before anything is dropped.
        Self-loops are dropped and counted. Parallel edges are merged by
        summing their weights in input order; twice the merged total must be
        finite.
        """
        if n < 0:
            raise ValueError("node count must be non-negative")
        u = _int_ids(u, "edge endpoints")
        u, v, w = _read_columns("edge", "weight", n, u=u, v=v,
                                w=np.ones(u.size) if w is None else w)
        # key (lo, hi) as lo * n + hi; n^2 fits in int64 for any n whose
        # arrays fit in memory
        key = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
        order = np.argsort(key, kind="stable")  # duplicates keep input order
        key, w = key[order], w[u != v][order]
        first = np.diff(key, prepend=-1) != 0
        # bincount adds each group's weights one by one, in input order; of
        # no edges it is int64, hence the cast
        ew = np.bincount(np.cumsum(first) - 1, weights=w).astype(np.float64)
        # every degree, density and flow value is at most twice the total
        with np.errstate(over="ignore"):
            total = float(ew.sum())
        if not np.isfinite(2.0 * total):
            raise ValueError(f"edge weights sum to {total}; twice that is not "
                             f"a finite float")
        eu, ev = np.divmod(key[first], n)
        # edges stably sorted by v are the reverse arcs in (src, dst) order;
        # ahead of the forward arcs, a timsort by src merges the two runs
        by_v = _stable_order(ev, n)
        src, dst = np.concatenate([ev[by_v], eu]), np.concatenate([eu[by_v], ev])
        order = np.argsort(src, kind="stable")
        return cls(n, src[order], dst[order], np.concatenate([ew[by_v], ew])[order],
                   u.size - key.size, key.size - ew.size)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence]) -> "LabeledGraph":
        """Build a graph from (u, v) or (u, v, w) items through
        :meth:`from_arrays`; unweighted pairs get weight 1.0."""
        rows = [(*item, 1.0) if len(item) == 2 else item for item in edges]
        for i, row in enumerate(rows):
            if len(row) != 3:
                raise ValueError(f"edge item {i} has {len(row)} entries; "
                                 f"expected (u, v) or (u, v, w)")
        u, v, w = zip(*rows) if rows else ((), (), ())
        return cls.from_arrays(n, u, v, w)

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.size)

    @property
    def total_weight(self) -> float:
        return float(self.edge_w.sum())

    def edges(self) -> Iterator[tuple[int, int, float]]:
        yield from zip(self.edge_u.tolist(), self.edge_v.tolist(),
                       self.edge_w.tolist())

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, weights) of node u, sorted by neighbor id."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.arc_dst[lo:hi], self.arc_w[lo:hi]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Adjacency-matrix action A @ x without materializing A."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector of length {x.size} does not match n={self.n}")
        if self.arc_src.size == 0:
            return np.zeros(self.n, dtype=np.float64)
        return np.bincount(self.arc_src, weights=self.arc_w * x[self.arc_dst],
                           minlength=self.n)

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, edges={self.num_edges})"


def density(g: LabeledGraph, s: NodeSet) -> float:
    """Average weighted degree of the subgraph induced by ``s``: 2 w(E_S)/|S|."""
    if s.size == 0:
        raise ValueError("empty-set density undefined")
    mask = s.mask(g.n)
    inside = mask[g.edge_u] & mask[g.edge_v]
    return 2.0 * float(g.edge_w[inside].sum()) / s.size


def color_counts(s: NodeSet, c: Coloring) -> tuple[int, int]:
    """(red, blue) member counts of ``s``."""
    if s.size:
        s._check_range(c.n)
        blue = int((c.codes[s.members] == BLUE).sum())
        return s.size - blue, blue
    return 0, 0


def balance(s: NodeSet, c: Coloring) -> float:
    """min(x, y) / max(x, y) over the color counts x, y; 0.0 when a class
    is empty."""
    if s.size == 0:
        raise ValueError("balance of the empty set is undefined")
    x, y = color_counts(s, c)
    return min(x, y) / max(x, y)


def imbalance(s: NodeSet, c: Coloring) -> int:
    """| |S ∩ Red| - |S ∩ Blue| |; the empty set is vacuously balanced."""
    x, y = color_counts(s, c)
    return abs(x - y)


def is_fair(s: NodeSet, c: Coloring) -> bool:
    return imbalance(s, c) == 0


def induced_subgraph(g: LabeledGraph, s: NodeSet) -> LabeledGraph:
    """Subgraph induced by ``s``, densely relabeled in member order: node
    i of the result is ``s.members[i]``. Its arcs are ``g``'s arcs inside
    ``s``; relabeling in member order keeps them sorted, so none is sorted."""
    mask = s.mask(g.n)
    new_id = np.cumsum(mask) - 1
    inside = np.flatnonzero(mask[g.arc_src] & mask[g.arc_dst])
    return LabeledGraph(s.size, new_id[g.arc_src[inside]], new_id[g.arc_dst[inside]],
                        g.arc_w[inside], 0, 0)
