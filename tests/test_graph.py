from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdsg.flow import FlowNetwork
from fairdsg.graph import (BLUE, RED, Coloring, LabeledGraph, NodeSet, _unique,
                           balance, color_counts, density, imbalance,
                           induced_subgraph, is_fair)

from conftest import random_graph
from oracles import argsort_arcs, canonical_edges, same_structure


def test_triangle_density_all_nodes(triangle):
    assert density(triangle, NodeSet([0, 1, 2])) == 2.0


def test_single_edge_density():
    g = LabeledGraph.from_edges(2, [(0, 1)])
    assert density(g, NodeSet([0, 1])) == 1.0


def test_density_rejects_empty_set(triangle):
    with pytest.raises(ValueError, match="empty-set density undefined"):
        density(triangle, NodeSet())


def test_density_rejects_out_of_range(triangle):
    with pytest.raises(ValueError, match="out of range"):
        density(triangle, NodeSet([0, 7]))


def test_balance_examples():
    c = Coloring.from_labels("RRBB")
    assert balance(NodeSet([0, 1, 2, 3]), c) == 1.0
    c2 = Coloring.from_labels("RBBB")
    assert balance(NodeSet([0, 1, 2, 3]), c2) == pytest.approx(1 / 3)
    c3 = Coloring.from_labels("RRRR")
    assert balance(NodeSet([0, 1, 2, 3]), c3) == 0.0
    with pytest.raises(ValueError):
        balance(NodeSet(), c)


def test_imbalance_examples():
    c = Coloring.from_labels("RRBB")
    assert imbalance(NodeSet([0, 1, 2, 3]), c) == 0
    c2 = Coloring.from_labels("RRRB")
    assert imbalance(NodeSet([0, 1, 2, 3]), c2) == 2
    assert imbalance(NodeSet(), c) == 0
    assert is_fair(NodeSet(), c)
    assert is_fair(NodeSet([0, 2]), c)
    assert not is_fair(NodeSet([0, 1, 2]), c)


def test_induced_subgraph_examples(triangle, k4):
    sub = induced_subgraph(triangle, NodeSet([0, 1]))
    assert sub.n == 2 and sub.num_edges == 1
    assert density(sub, NodeSet([0, 1])) == 1.0
    # identity on the full node set
    full = induced_subgraph(triangle, NodeSet([0, 1, 2]))
    assert same_structure(full, triangle)
    # any 3 nodes of K4 induce a triangle
    tri = induced_subgraph(k4, NodeSet([0, 2, 3]))
    assert tri.n == 3 and tri.num_edges == 3


def test_induced_subgraph_rejects_bad_ids(triangle):
    with pytest.raises(ValueError, match="out of range"):
        induced_subgraph(triangle, NodeSet([0, 5]))


def test_density_matches_induced_subgraph():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, 0.5, weighted=True)
        size = int(rng.integers(1, n + 1))
        s = NodeSet(rng.choice(n, size=size, replace=False))
        sub = induced_subgraph(g, s)
        assert density(g, s) == pytest.approx(density(sub, NodeSet(range(sub.n))), abs=1e-12)
        assert 0.0 <= density(g, s) <= g.d_max + 1e-12


def test_induced_subgraph_matches_a_build_from_its_edges():
    # reference: keep the edges with both ends in s, relabel them by rank
    # in s, and canonicalize them through from_edges
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.6)), weighted=True)
        s = NodeSet(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        rank = {int(u): i for i, u in enumerate(s)}
        edges = [(rank[u], rank[v], w) for u, v, w in g.edges()
                 if u in rank and v in rank]
        sub = induced_subgraph(g, s)
        ref = LabeledGraph.from_edges(s.size, edges)
        assert same_structure(sub, ref)
        assert np.array_equal(sub.arc_src, ref.arc_src)
        assert np.array_equal(sub.degrees, ref.degrees)
        assert sub.n_self_loops_dropped == 0 and sub.n_duplicates_merged == 0


def test_construction_canonical_under_permutation():
    rng = np.random.default_rng(3)
    edges = [(0, 1, 2.0), (1, 2, 1.0), (0, 3, 0.5), (2, 3, 1.5)]
    g1 = LabeledGraph.from_edges(4, edges)
    for _ in range(5):
        shuffled = list(edges)
        rng.shuffle(shuffled)
        flipped = [(v, u, w) for u, v, w in shuffled]
        assert same_structure(LabeledGraph.from_edges(4, flipped), g1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
       st.randoms(use_true_random=False))
def test_construction_permutation_property(pairs, pyrandom):
    g1 = LabeledGraph.from_edges(8, pairs)
    shuffled = list(pairs)
    pyrandom.shuffle(shuffled)
    g2 = LabeledGraph.from_edges(8, shuffled)
    assert same_structure(g1, g2)
    assert g1.degrees.sum() == pytest.approx(2 * g1.total_weight)
    assert g1.d_max == (g1.degrees.max() if g1.n else 0.0)


# non-dyadic weights whose sums depend on the order they are added in
WEIGHTS = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 1 / 3, 0.7, 1e-300, 1.0]),
                    st.floats(0.0, 1e6))


@st.composite
def multigraphs(draw):
    n = draw(st.integers(0, 6))
    if n == 0:
        return n, []
    ids = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(ids, ids, WEIGHTS), max_size=40))


def _assert_matches_reference(g, n, edges):
    eu, ev, ew, loops, merged = canonical_edges(n, edges)
    assert g.n == n
    assert g.edge_u.tolist() == eu and g.edge_v.tolist() == ev
    assert g.edge_w.tobytes() == np.array(ew, dtype=np.float64).tobytes()
    assert (g.n_self_loops_dropped, g.n_duplicates_merged) == (loops, merged)


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_canonicalization_matches_the_dict_reference(case):
    # ids drawn independently: duplicates come in both orientations
    n, edges = case
    cols = np.array(edges, dtype=np.float64).reshape(-1, 3)
    g = LabeledGraph.from_arrays(n, cols[:, 0].astype(np.int64),
                                 cols[:, 1].astype(np.int64), cols[:, 2])
    _assert_matches_reference(g, n, edges)
    _assert_matches_reference(LabeledGraph.from_edges(n, edges), n, edges)


def _assert_arcs_match_the_argsort_build(g):
    got = (g.arc_src, g.arc_dst, g.arc_w, g.indptr, g.degrees)
    for a, b in zip(got, argsort_arcs(g)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_arc_arrays_match_the_argsort_build(case, pyrandom):
    # weighted, with merged parallel edges, isolated nodes, and n = 0 and 1;
    # an induced subgraph takes the other constructor path
    n, edges = case
    g = LabeledGraph.from_edges(n, edges)
    sub = induced_subgraph(g, NodeSet(pyrandom.sample(range(n), pyrandom.randint(0, n))))
    for h in (g, sub):
        _assert_arcs_match_the_argsort_build(h)


def test_arc_arrays_match_the_argsort_build_on_larger_graphs():
    # long runs of equal edge_v, where an unstable sort could reorder arcs
    rng = np.random.default_rng(8)
    for n, p in ((120, 0.3), (400, 0.02)):
        g = random_graph(rng, n, p, weighted=True)
        _assert_arcs_match_the_argsort_build(g)
        sub = induced_subgraph(g, NodeSet(range(0, n, 3)))
        _assert_arcs_match_the_argsort_build(sub)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1),
              st.sampled_from([1.0, 0.1, 0.0, -1.0, -0.5, float("nan"),
                               float("inf"), float("-inf")])),
    max_size=8))))
def test_canonicalization_names_the_first_bad_edge(case):
    # mixed range, nan and sign faults: the first bad edge in input order is
    # reported, range before finiteness before sign, self-loops included
    n, edges = case
    try:
        canonical_edges(n, edges)
        expected = None
    except ValueError as exc:
        expected = str(exc)
    u, v, w = (np.array(col) for col in zip(*edges)) if edges else ([], [], [])
    for build in (lambda: LabeledGraph.from_arrays(n, u, v, w),
                  lambda: LabeledGraph.from_edges(n, edges)):
        if expected is None:
            _assert_matches_reference(build(), n, edges)
        else:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == expected


def test_negative_zero_weight_reads_zero():
    g = LabeledGraph.from_edges(2, [(0, 1, -0.0)])
    assert g.edge_w.tobytes() == np.zeros(1).tobytes()


def test_duplicate_edges_merge_and_self_loops_drop():
    g = LabeledGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.5), (2, 2, 1.0), (1, 2)])
    assert g.num_edges == 2
    assert g.n_duplicates_merged == 1
    assert g.n_self_loops_dropped == 1
    weights = dict(((u, v), w) for u, v, w in g.edges())
    assert weights[(0, 1)] == 3.5
    assert weights[(1, 2)] == 1.0


def test_unweighted_edges_get_unit_weight():
    g = LabeledGraph.from_edges(2, [(0, 1)])
    assert list(g.edges()) == [(0, 1, 1.0)]


@pytest.mark.parametrize("edges, index, length", [
    ([(0, 1), (1, 2, 1.0, 4)], 1, 4),
    ([(0,), (1, 2)], 0, 1),
    ([(0, 1), ()], 1, 0),
    ([(0, 1, 1.0, 4), (1, 2, 1.0, 4)], 0, 4),
])
def test_from_edges_names_a_malformed_item(edges, index, length):
    with pytest.raises(ValueError) as info:
        LabeledGraph.from_edges(3, edges)
    assert str(info.value) == (f"edge item {index} has {length} entries; "
                               f"expected (u, v) or (u, v, w)")


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative weight"):
        LabeledGraph.from_edges(2, [(0, 1, -1.0)])


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weight_rejected(w):
    with pytest.raises(ValueError, match="non-finite weight"):
        LabeledGraph.from_edges(3, [(0, 1, w)])


@pytest.mark.parametrize("n, u, v, w, total", [
    (2, [0], [1], [1e308], "1e+308"),              # finite total, twice is not
    (2, [0, 1], [1, 0], [1e308, 1e308], "inf"),    # parallel edges merge to inf
    (3, [0, 1], [1, 2], [1e308, 1e308], "inf"),    # distinct edges overflow
])
def test_weight_total_whose_double_overflows_rejected(n, u, v, w, total):
    # degrees, densities and flows are at most twice the total; raising
    # must not warn on the way (RuntimeWarnings fail the suite)
    with pytest.raises(ValueError) as info:
        LabeledGraph.from_arrays(n, u, v, w)
    assert str(info.value) == (f"edge weights sum to {total}; twice that is "
                               f"not a finite float")


def test_largest_weight_total_accepted():
    big = np.finfo(np.float64).max / 2
    g = LabeledGraph.from_arrays(3, [0, 1], [1, 2], [big / 2, big / 2])
    assert g.total_weight == big and g.d_max == big


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError, match="outside"):
        LabeledGraph.from_edges(2, [(0, 2)])


def test_zero_node_graph():
    g = LabeledGraph.from_edges(0, [])
    assert g.n == 0 and g.num_edges == 0 and g.d_max == 0.0


def test_edgeless_graphs_keep_float_arrays():
    # bincount of no edges is int64; weights and degrees stay float64
    for n in (0, 1, 3):
        g = LabeledGraph.from_arrays(n, [], [])
        assert g.edge_w.dtype == g.arc_w.dtype == g.degrees.dtype == np.float64
        assert g.indptr.tolist() == [0] * (n + 1)


def test_coloring_counts_and_labels():
    c = Coloring.from_labels("RBRBB")
    assert (c.n_red, c.n_blue) == (2, 3)
    assert c.labels() == "RBRBB"
    assert c.n_red + c.n_blue == c.n
    with pytest.raises(ValueError, match="unknown color label"):
        Coloring.from_labels("RBX")



# mostly labels, with lower case, other ASCII, non-ASCII letters, a
# character outside the BMP and a lone surrogate mixed in
_LABEL_CHARS = st.one_of(st.sampled_from("RB"), st.sampled_from("RB"),
                         st.sampled_from(["r", "b", "X", " ", "\x00", "\xd2",
                                          "\u0392", "\U0001f7e5", "\ud800"]),
                         st.characters())


@settings(max_examples=400, deadline=None)
@given(st.lists(_LABEL_CHARS, max_size=40), st.booleans())
def test_from_labels_matches_the_per_character_reference(chars, as_list):
    text = "".join(chars)
    codes, bad = [], None
    for ch in text:
        if ch not in ("R", "B"):
            bad = ch
            break
        codes.append(RED if ch == "R" else BLUE)
    labels = list(text) if as_list else text
    if bad is not None:
        with pytest.raises(ValueError) as exc:
            Coloring.from_labels(labels)
        assert str(exc.value) == f"unknown color label {bad!r}"
    else:
        c = Coloring.from_labels(labels)
        assert c.codes.dtype == np.int8 and c.codes.tolist() == codes
        assert (c.n_red, c.n_blue) == (codes.count(RED), codes.count(BLUE))
        assert c.labels() == "".join("R" if k == RED else "B" for k in codes)

def test_color_counts_on_subset():
    c = Coloring.from_labels("RRBBB")
    assert color_counts(NodeSet([0, 2, 3]), c) == (1, 2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from("RB"), min_size=1, max_size=12),
       st.sets(st.integers(0, 11)))
def test_balance_imbalance_consistency(labels, raw_members):
    c = Coloring.from_labels(labels)
    members = {m for m in raw_members if m < len(labels)}
    s = NodeSet(members)
    x, y = color_counts(s, c)
    assert imbalance(s, c) == abs(x - y)
    assert is_fair(s, c) == (x == y)
    if s.size:
        b = balance(s, c)
        assert 0.0 <= b <= 1.0
        assert (b == 1.0) == (x == y and x > 0)
        assert (b == 0.0) == (x == 0 or y == 0)


def test_nodeset_normalizes_and_indicates():
    s = NodeSet([3, 1, 3, 0])
    assert s.as_tuple() == (0, 1, 3)
    chi = s.indicator(5)
    assert chi[0] == chi[1] == chi[3] == pytest.approx(1 / np.sqrt(3))
    assert chi[2] == chi[4] == 0.0
    assert np.linalg.norm(chi) == pytest.approx(1.0, abs=1e-12)
    assert 3 in s and 2 not in s
    with pytest.raises(ValueError):
        NodeSet().indicator(5)


def test_nodeset_rejects_float_ids():
    with pytest.raises(ValueError, match="node ids must be integers, got dtype float64"):
        NodeSet(np.array([1.5, 2.0]))
    with pytest.raises(ValueError, match="node ids must be integers"):
        NodeSet([1.0, 2.0])


def test_nodeset_rejects_a_boolean_mask():
    with pytest.raises(ValueError, match="node ids must be integers, got dtype bool"):
        NodeSet(np.array([True, False, True]))


def test_nodeset_rejects_a_two_dimensional_array():
    with pytest.raises(ValueError, match="one-dimensional sequence, got 2 dimensions"):
        NodeSet(np.array([[0, 1], [2, 3]]))


def test_nodeset_accepts_empty_and_integer_input():
    assert NodeSet([]).size == 0 and NodeSet([]).members.dtype == np.int64
    assert NodeSet(np.array([], dtype=np.float64)) == NodeSet()
    assert NodeSet(np.array([4, 1, 4], dtype=np.uint8)).as_tuple() == (1, 4)
    assert NodeSet(np.array([2, 0], dtype=np.int32)).as_tuple() == (0, 2)
    assert NodeSet(x for x in (5, 3)).as_tuple() == (3, 5)


_INT64 = np.iinfo(np.int64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(_INT64.min, _INT64.max), max_size=40),
    st.lists(st.integers(-3, 3), max_size=40),
    st.tuples(st.integers(_INT64.min, _INT64.max), st.integers(0, 20)).map(
        lambda t: [t[0]] * t[1]),
    st.lists(st.sampled_from([_INT64.min, _INT64.min + 1, -1, 0, 1,
                              _INT64.max - 1, _INT64.max]), max_size=20)))
@example([])
@example([7])
@example([-5] * 6)
@example([_INT64.max, _INT64.min, _INT64.max, -1, _INT64.min])
def test_sorted_unique_matches_numpy_unique(values):
    arr = np.array(values, dtype=np.int64)
    before = arr.copy()
    got = _unique(arr)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(arr))
    assert np.array_equal(arr, before)  # the input is left as it was


def test_graph_is_readonly(triangle):
    with pytest.raises(ValueError):
        triangle.degrees[0] = 99.0
    with pytest.raises(ValueError):
        NodeSet([1, 2]).members[0] = 0


# Every constructor that takes ids reads them by one rule. Each entry feeds a
# column of ids into one constructor, beside columns of matching length that
# pin the rest of the input, and returns the ids it read, in input order.
_ID_TAKERS = {
    "NodeSet": lambda ids, k: NodeSet(ids).as_tuple(),
    "Coloring": lambda ids, k: tuple(Coloring(ids).codes.tolist()),
    "from_arrays": lambda ids, k: tuple(
        LabeledGraph.from_arrays(3, ids, [2] * k).edge_u.tolist()),
    "from_edges": lambda ids, k: tuple(
        LabeledGraph.from_edges(3, [(u, 2) for u in ids]).edge_u.tolist()),
    "FlowNetwork": lambda ids, k: tuple(
        FlowNetwork(3, 0, 2, ids, [2] * k, [1.0] * k)._tail[::2].tolist()),
}

# a factory of the input, its length and the ids it holds
_ACCEPTED_IDS = [
    pytest.param(lambda: [], 0, (), id="empty list"),
    pytest.param(lambda: np.array([], dtype=np.float64), 0, (), id="empty float array"),
    pytest.param(lambda: np.array([0, 1], dtype=np.uint8), 2, (0, 1), id="uint8"),
    pytest.param(lambda: np.array([0, 1], dtype=np.int32), 2, (0, 1), id="int32"),
    pytest.param(lambda: range(2), 2, (0, 1), id="range"),
    pytest.param(lambda: (x for x in (0, 1)), 2, (0, 1), id="generator"),
]

# the input and what the error must name
_REFUSED_IDS = [
    pytest.param(np.array([0.0, 1.0]), "got dtype float64", id="float array"),
    pytest.param([0.5, 1.7], "got dtype float64", id="float list"),
    pytest.param(np.array([False, True]), "got dtype bool", id="bool array"),
    pytest.param([False, True], "got dtype bool", id="bool list"),
    pytest.param(np.array([0, None], dtype=object), "got dtype object",
                 id="object array"),
    pytest.param([0, 2**64], "got dtype object", id="ids beyond uint64"),
    pytest.param(np.array([[0, 1]]), "got 2 dimensions", id="2-D array"),
    pytest.param("01", "got dtype <U1", id="string"),
    pytest.param(np.array(["0", "1"]), "got dtype <U1", id="string array"),
]


@pytest.mark.parametrize("taker", sorted(_ID_TAKERS))
@pytest.mark.parametrize("make, k, ids", _ACCEPTED_IDS)
def test_every_id_taker_accepts_integer_input(taker, make, k, ids):
    assert _ID_TAKERS[taker](make(), k) == ids


@pytest.mark.parametrize("taker", sorted(_ID_TAKERS))
@pytest.mark.parametrize("bad, problem", _REFUSED_IDS)
def test_every_id_taker_refuses_non_integer_input(taker, bad, problem):
    with pytest.raises(ValueError, match=f"must (be integers|form a one-dimensional "
                                         f"sequence), {problem}$"):
        _ID_TAKERS[taker](bad, 2)


@pytest.mark.parametrize("taker", sorted(_ID_TAKERS))
@pytest.mark.parametrize("bad, value", [
    pytest.param(np.array([1, 2**63], dtype=np.uint64), 2**63, id="2**63"),
    pytest.param(np.array([2**64 - 1, 1], dtype=np.uint64), 2**64 - 1, id="2**64 - 1"),
    pytest.param([2**63], 2**63, id="list of one"),
])
def test_every_id_taker_refuses_unsigned_ids_beyond_int64(taker, bad, value):
    # an int64 cast would wrap 2**63 round to -2**63
    with pytest.raises(ValueError, match=f"must be at most 2\\*\\*63 - 1, got {value}$"):
        _ID_TAKERS[taker](bad, len(bad))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Coloring([0, 2]), r"color codes must be RED \(0\) or BLUE \(1\)",
                 id="color code 2"),
    pytest.param(lambda: NodeSet([-1]), "node ids must be non-negative", id="negative id"),
    pytest.param(lambda: LabeledGraph.from_arrays(-1, [], []),
                 "node count must be non-negative", id="negative node count"),
    pytest.param(lambda: LabeledGraph.from_arrays(3, [0], [1]).matvec(np.ones(2)),
                 "vector of length 2 does not match n=3", id="matvec length"),
])
def test_graph_errors_name_the_problem(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_from_arrays_refuses_endpoint_columns_that_do_not_line_up():
    with pytest.raises(ValueError, match=r"^edge columns do not line up: "
                                         r"len\(u\) = 2, len\(v\) = 1, len\(w\) = 2$"):
        LabeledGraph.from_arrays(3, [0, 1], [2])


def test_from_arrays_refuses_a_weight_column_that_does_not_line_up():
    with pytest.raises(ValueError, match=r"^edge columns do not line up: "
                                         r"len\(u\) = 2, len\(v\) = 2, len\(w\) = 1$"):
        LabeledGraph.from_arrays(3, [0, 1], [1, 2], [1.0])


def test_flow_network_refuses_arc_columns_that_do_not_line_up():
    with pytest.raises(ValueError, match=r"^arc columns do not line up: "
                                         r"len\(tail\) = 2, len\(head\) = 2, "
                                         r"len\(cap\) = 1$"):
        FlowNetwork(3, 0, 2, [0, 1], [1, 2], [1.0])
