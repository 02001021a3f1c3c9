"""Metamorphic properties of the paper's construction: input changes whose
effect on every algorithm's answer is known without solving anything."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from fairdsg.flow import exact_densest_subgraph, two_dfsg
from fairdsg.graph import BLUE, RED, Coloring, LabeledGraph
from fairdsg.sweep import run_algorithm

_WEIGHTS = st.one_of(st.just(1.0), st.sampled_from([0.0, 0.5, 2.0, 3.0]),
                     st.floats(0.0, 10.0))


@st.composite
def colored_graphs(draw):
    """A weighted graph with at least one positive-weight edge, and any
    coloring of its nodes."""
    n = draw(st.integers(2, 14))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=40))
    w = draw(st.lists(_WEIGHTS, min_size=len(pairs), max_size=len(pairs)))
    w[draw(st.integers(0, len(pairs) - 1))] = draw(st.floats(0.25, 10.0))
    u, v = zip(*pairs)
    codes = draw(st.lists(st.sampled_from([RED, BLUE]), min_size=n, max_size=n))
    return LabeledGraph.from_arrays(n, u, v, w), Coloring(codes)


def _node_sets(g, c):
    exact = exact_densest_subgraph(g).node_set
    sets = {name: run_algorithm(name, g, c).node_set
            for name in ("ss", "fss", "ps", "fps")}
    sets["2dfsg"] = two_dfsg(g, c, exact).node_set
    sets["exact"] = exact
    return sets


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_a_color_swap_leaves_every_node_set_unchanged(case):
    # the fairness vector only changes sign, and B depends on it through
    # f f^T; padding picks the same nodes under the other minority color
    g, c = case
    swapped = Coloring(1 - c.codes)
    assert _node_sets(g, swapped) == _node_sets(g, c)


@settings(max_examples=100, deadline=None)
@given(colored_graphs(), st.integers(1, 6))
def test_isolated_red_blue_pairs_leave_the_exact_optimum_unchanged(case, pairs):
    g, _ = case
    padded = LabeledGraph.from_arrays(g.n + 2 * pairs, g.edge_u, g.edge_v, g.edge_w)
    before, after = exact_densest_subgraph(g), exact_densest_subgraph(padded)
    assert after.node_set == before.node_set
    assert after.density == before.density
