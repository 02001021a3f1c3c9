from __future__ import annotations

import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairdsg import flow
from fairdsg.flow import (FlowNetwork, _densest_core, _padding, _peel_lower_bound,
                          exact_densest_subgraph, max_flow, two_dfsg,
                          two_dfsg_candidates)
from fairdsg.graph import (Coloring, LabeledGraph, NodeSet, _stable_order,
                           balance, density, is_fair)
from fairdsg.oracle import brute_force_densest
from fairdsg.planted import PlantedParams, generate
from fairdsg.sweep import SolveStatus

from conftest import random_coloring, random_graph
from oracles import (ListFlowNetwork, brute_densest_subsets, brute_largest_densest,
                     brute_min_cut, dense_adjacency, greedy_padding, list_max_flow,
                     stack_peel_core, two_dfsg_prefixes)


def _network(n, source, sink, arcs):
    """FlowNetwork over (tail, head, capacity) triples."""
    tail = [u for u, _, _ in arcs]
    head = [v for _, v, _ in arcs]
    cap = [c for _, _, c in arcs]
    return FlowNetwork(n, source, sink, tail, head, cap)


def test_max_flow_single_arc():
    net = _network(2, 0, 1, [(0, 1, 5.0)])
    value, side = max_flow(net)
    assert value == 5.0
    assert side.as_tuple() == (0,)


def test_max_flow_parallel_paths():
    net = _network(4, 0, 3, [(0, 1, 2.0), (1, 3, 2.0), (0, 2, 3.0), (2, 3, 3.0)])
    value, _ = max_flow(net)
    assert value == 5.0


def test_max_flow_matches_brute_min_cut():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = 8
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    arcs.append((u, v, float(rng.integers(1, 11))))
        net = _network(n, 0, n - 1, arcs)
        value, side = max_flow(net)
        assert value == pytest.approx(brute_min_cut(n, 0, n - 1, arcs), abs=1e-9)
        # the returned side realizes a cut of exactly the flow value
        chosen = set(side)
        assert 0 in chosen and (n - 1) not in chosen
        cut = sum(cap for u, v, cap in arcs if u in chosen and v not in chosen)
        assert cut == pytest.approx(value, abs=1e-9)


def test_max_flow_matches_brute_min_cut_fractional_capacities():
    # the density search feeds fractional sink capacities into the solver
    rng = np.random.default_rng(109)
    for _ in range(25):
        n = 7
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    arcs.append((u, v, float(rng.integers(1, 64)) / 8.0))
        net = _network(n, 0, n - 1, arcs)
        value, _ = max_flow(net)
        assert value == pytest.approx(brute_min_cut(n, 0, n - 1, arcs), abs=1e-9)


def test_flow_network_validation():
    with pytest.raises(ValueError):
        FlowNetwork(1, 0, 0, [], [], [])
    with pytest.raises(ValueError):
        FlowNetwork(3, 0, 0, [], [], [])
    with pytest.raises(ValueError, match=r"^arc \(0, 5\) references a node id outside 0\.\.2$"):
        _network(3, 0, 2, [(0, 1, 1.0), (0, 5, 1.0)])
    with pytest.raises(ValueError, match=r"^arc \(0, 1\) has negative capacity -2\.0$"):
        _network(3, 0, 2, [(0, 1, 1.0), (0, 1, -2.0)])


@pytest.mark.parametrize("source, arcs, message", [
    pytest.param(0, [(0, 1, 1.0), (1, 2, float("nan"))],
                 r"^arc \(1, 2\) has non-finite capacity nan$", id="nan"),
    pytest.param(0, [(0, 1, 1.0), (1, 2, float("inf"))],
                 r"^arc \(1, 2\) has non-finite capacity inf$", id="inf"),
    pytest.param(0, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)],
                 r"^capacities out of the source sum to inf, not a finite float$",
                 id="source arcs overflow"),
    pytest.param(0.5, [(0, 1, 1.0)],
                 r"^source and sink must be integers, got dtype float64$",
                 id="float source"),
])
def test_flow_network_refuses_what_max_flow_would_answer_wrongly(source, arcs, message):
    with pytest.raises(ValueError, match=message):
        _network(3, source, 2, arcs)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _network(3, 3, 2, [(0, 1, 1.0)]), "source/sink ids out of range",
                 id="source past the last node"),
    pytest.param(lambda: _network(3, 0, -1, [(0, 1, 1.0)]), "source/sink ids out of range",
                 id="negative sink"),
    pytest.param(lambda: exact_densest_subgraph(LabeledGraph.from_arrays(0, [], [])),
                 "graph has no nodes", id="exact of no nodes"),
])
def test_flow_errors_name_the_problem(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


_BAD_VALUES = st.sampled_from([1.0, 0.0, 2.5, -1.5, -0.0, float("nan"),
                                float("inf"), float("-inf")])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1), _BAD_VALUES),
    max_size=6))))
def test_arcs_and_edges_follow_one_column_rule(case):
    # the first bad item in input order, by the same words for both
    n, items = case
    u, v, w = (list(col) for col in zip(*items)) if items else ([], [], [])

    def message(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)
        return None

    edge = message(lambda: LabeledGraph.from_arrays(n, u, v, w))
    arc = message(lambda: FlowNetwork(n, 0, 1, u, v, w))
    if edge is not None:
        edge = edge.replace("edge (", "arc (").replace(" weight ", " capacity ")
    assert arc == edge


def test_exact_densest_of_one_edge_whose_capacities_sum_past_the_float_range():
    # the network's capacities sum to inf, but only its source arcs bound a flow
    g = LabeledGraph.from_arrays(2, [0], [1], [6e307])
    res = exact_densest_subgraph(g)
    assert res.node_set.as_tuple() == (0, 1) and res.density == 6e307



# zero, integer, dyadic and arbitrary capacities, and ones below the solver's
# tolerance of 1e-12 times the largest capacity
_CAPS = st.one_of(st.just(0.0), st.integers(1, 9).map(float),
                  st.integers(1, 99).map(lambda k: k / 8.0),
                  st.floats(0.0, 10.0), st.floats(1e-15, 1e-11))


@st.composite
def flow_networks(draw):
    """(n, source, sink, arcs): random arcs plus parallel copies, reversed
    copies, arcs into the source and out of the sink; sometimes every arc
    into the sink has capacity 0, so the sink is unreachable."""
    n = draw(st.integers(2, 8))
    source, sink = draw(st.permutations(range(n)))[:2]
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node, _CAPS), max_size=20))
    picks = st.lists(st.sampled_from(arcs), max_size=4) if arcs else st.just([])
    arcs += draw(picks)
    arcs += [(v, u, draw(_CAPS)) for u, v, _ in draw(picks)]
    arcs += draw(st.lists(st.tuples(node, st.just(source), _CAPS), max_size=2))
    arcs += draw(st.lists(st.tuples(st.just(sink), node, _CAPS), max_size=2))
    if draw(st.booleans()):
        arcs = [(u, v, 0.0 if v == sink else c) for u, v, c in arcs]
    order = draw(st.permutations(range(len(arcs))))
    return n, source, sink, [arcs[i] for i in order]


@settings(max_examples=400, deadline=None)
@given(flow_networks())
def test_max_flow_matches_the_list_dinic_bit_for_bit(case):
    n, source, sink, arcs = case
    net = _network(n, source, sink, arcs)
    tail, head, cap = zip(*arcs) if arcs else ((), (), ())
    expected = list_max_flow(ListFlowNetwork(n, source, sink, tail, head, cap))
    for _ in range(2):  # a solve leaves the network as it was
        value, side = max_flow(net)
        assert value == expected[0]
        assert side == expected[1]



def test_max_flow_matches_the_list_dinic_on_larger_networks():
    # enough arcs per node that their order within a node decides the
    # augmenting paths, and so the last bits of a sum of uniform capacities
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.integers(30, 60))
        tail, head = rng.integers(0, n, 8 * n), rng.integers(0, n, 8 * n)
        cap = rng.random(8 * n) * np.where(rng.random(8 * n) < 0.1, 0.0, 3.0)
        expected = list_max_flow(ListFlowNetwork(n, 0, 1, tail, head, cap))
        assert max_flow(FlowNetwork(n, 0, 1, tail, head, cap)) == expected


@st.composite
def wide_networks(draw):
    """(n, source, sink, tail, head) with node ids past 2^16 and 2^17,
    parallel arcs and arcs into the source."""
    n = draw(st.sampled_from([2, 7, 2**16, 2**16 + 1, 2**17 + 3]))
    node = st.one_of(st.integers(0, min(n, 5) - 1), st.integers(n - 5, n - 1),
                     st.integers(0, n - 1)).filter(lambda u: 0 <= u < n)
    source, sink = draw(st.lists(node, min_size=2, max_size=2, unique=True))
    arcs = draw(st.lists(st.tuples(node, node), max_size=30))
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=5)) if arcs else []
    arcs += [(u, source) for u in draw(st.lists(node, max_size=3))]
    arcs = draw(st.permutations(arcs))
    return n, source, sink, [u for u, _ in arcs], [v for _, v in arcs]


@settings(max_examples=200, deadline=None)
@given(wide_networks())
def test_flow_network_groups_arcs_by_tail_in_arc_id_order(case):
    n, source, sink, tail, head = case
    net = FlowNetwork(n, source, sink, tail, head, np.ones(len(tail)))
    assert net._by_tail.tolist() == np.argsort(net._tail, kind="stable").tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**40).flatmap(
    lambda bound: st.tuples(st.just(bound),
                            st.lists(st.integers(0, bound - 1), max_size=40))))
def test_stable_order_is_the_stable_argsort(case):
    # keys of up to three 16-bit digits, with repeats
    bound, keys = case
    keys = np.array(keys + keys[: len(keys) // 2], dtype=np.int64)
    assert (_stable_order(keys, bound).tolist()
            == np.argsort(keys, kind="stable").tolist())


def test_max_flow_on_a_layered_network_with_dead_ends():
    # s = 0, t = 1; unit paths of 2, 3, 4 and 5 arcs take one phase each,
    # and the dead ends 12 -> 13 and 3 -> 14 (no arc onward) make the DFS
    # retreat in the phases that label them below the sink
    paths = [[0, 2, 1], [0, 3, 4, 1], [0, 5, 6, 7, 1], [0, 8, 9, 10, 11, 1]]
    arcs = [(0, 12, 1.0), (12, 13, 1.0), (3, 14, 1.0)]
    arcs += [(u, v, 1.0) for p in paths for u, v in zip(p, p[1:])]
    arcs += [(4, 3, 1.0), (10, 5, 0.5)]  # arcs that point back up a layer
    n = 15
    net = _network(n, 0, 1, arcs)
    with mock.patch.object(flow, "_levels", wraps=flow._levels) as levels:
        value, side = max_flow(net)
    assert levels.call_count == 5  # four phases and the BFS that misses t
    assert value == brute_min_cut(n, 0, 1, arcs) == 4.0
    tail, head, cap = zip(*arcs)
    assert (value, side) == list_max_flow(ListFlowNetwork(n, 0, 1, tail, head, cap))
    assert side.as_tuple() == (0, 12, 13)
    assert sum(c for u, v, c in arcs if u in side and v not in side) == value



def test_max_flow_reroutes_along_a_reverse_arc():
    # s = 0, t = 5: the first phase sends s -> 1 -> 2 -> t, which blocks
    # s -> 3 -> 2 -> t; the second unit needs the reverse arc 2 -> 1 to reach
    # 1 -> 4 -> t along s -> 3 -> 2 -> 1 -> 4 -> t
    arcs = [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (3, 2, 1.0), (2, 5, 1.0),
            (1, 4, 1.0), (4, 5, 1.0)]
    value, side = max_flow(_network(6, 0, 5, arcs))
    assert value == brute_min_cut(6, 0, 5, arcs) == 2.0
    assert side.as_tuple() == (0,)

def test_max_flow_keeps_the_benchmark_tracers_contract():
    # perfbench/tracer.py binds max_flow by name, takes its argument by the
    # name ``net`` and reads these attributes of it
    assert list(inspect.signature(max_flow).parameters) == ["net"]
    net = _network(3, 0, 2, [(0, 1, 1.5), (1, 2, 2.0), (2, 0, 1.0)])
    assert (net.num_arcs, net.source, net.sink) == (3, 0, 2)
    value, side = max_flow(net)
    assert (value, side) == (1.5, NodeSet([0]))
    assert [u for u in side if u not in (net.source, net.sink)] == []

def test_exact_densest_clique_with_pendant():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)] + [(3, 4)]
    g = LabeledGraph.from_edges(5, edges)
    res = exact_densest_subgraph(g)
    assert res.node_set.as_tuple() == (0, 1, 2, 3)
    assert res.density == 3.0


def test_exact_densest_k4_is_certified_by_one_solve(k4):
    # the whole graph is densest, so the first cut already finds nothing denser
    res = exact_densest_subgraph(k4)
    assert res.node_set.as_tuple() == (0, 1, 2, 3)
    assert res.density == 3.0
    assert res.iterations == 1


def test_a_regular_core_is_certified_by_one_bfs(k4):
    # at rho = d on a d-regular core every netted terminal capacity is 0, so
    # the one solve's first BFS reaches only the source and ends the flow
    cycle = LabeledGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    inst = generate(PlantedParams(n=60, m=20, d=5, eps=0.0, p_bg=0.0, seed=3))
    for g, densest, rho in [(k4, NodeSet(range(4)), 3.0),
                            (cycle, NodeSet(range(6)), 2.0),
                            (inst.graph, inst.planted_set, 5.0)]:
        with mock.patch.object(flow, "_levels", wraps=flow._levels) as levels:
            res = exact_densest_subgraph(g)
        assert levels.call_count == 1
        assert (res.node_set, res.density, res.iterations) == (densest, rho, 1)


def _terminal_network(g: LabeledGraph, rho: float, netted: bool) -> FlowNetwork:
    """The exact solver's network on ``g``, taken as the core, at ``rho``:
    source -> u and u -> sink for each node u (input arcs 2u and 2u + 1),
    then both orientations of each edge at capacity w. Goldberg's terminal
    capacities are d_u and rho; netted, (d_u - rho)+ and (rho - d_u)+."""
    n, d = g.n, g.degrees
    if netted:
        out, into = np.maximum(d - rho, 0.0), np.maximum(rho - d, 0.0)
    else:
        out, into = d, np.full(n, rho)
    nodes = np.arange(n)
    tail = np.concatenate([np.column_stack([np.full(n, n), nodes]).ravel(),
                           np.column_stack([g.edge_u, g.edge_v]).ravel()])
    head = np.concatenate([np.column_stack([nodes, np.full(n, n + 1)]).ravel(),
                           np.column_stack([g.edge_v, g.edge_u]).ravel()])
    cap = np.concatenate([np.column_stack([out, into]).ravel(),
                          np.repeat(g.edge_w, 2)])
    return FlowNetwork(n + 2, n, n + 1, tail, head, cap)


def test_exact_densest_solves_the_netted_network():
    # the K6 + K5 + cube graph of the three-round test below, whose core
    # keeps every node: the rounds solve at the densities of V, K6 + K5, K6
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    k5 = [(6 + u, 6 + v) for u in range(5) for v in range(u + 1, 5)]
    cube = [(11 + u, 11 + (u ^ bit)) for u in range(8) for bit in (1, 2, 4)
            if u < u ^ bit]
    g = LabeledGraph.from_edges(19, k6 + k5 + cube + [(5, 6), (10, 11)])
    solved = []

    def solve(net):
        solved.append([a.copy() for a in (net._tail, net._head, net._cap)])
        return max_flow(net)

    with mock.patch.object(flow, "max_flow", side_effect=solve):
        exact_densest_subgraph(g)
    rounds = [density(g, NodeSet(range(k))) for k in (19, 11, 6)]
    expected = [_terminal_network(g, rho, netted=True) for rho in rounds]
    assert [[a.tobytes() for a in arrays] for arrays in solved] == [
        [a.tobytes() for a in (net._tail, net._head, net._cap)] for net in expected]


_TIED = st.sampled_from([1 / 3, 2 / 3, 1.0, 0.1, 2.0])


@st.composite
def tied_graphs_and_densities(draw):
    """A graph of tied weights and a density: a node's degree, the whole
    graph's density or any value up to past the largest degree."""
    n = draw(st.integers(1, 10))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=25))
    w = draw(st.lists(_TIED, min_size=len(pairs), max_size=len(pairs)))
    g = LabeledGraph.from_arrays(n, [a for a, _ in pairs], [b for _, b in pairs], w)
    rho = draw(st.one_of(node.map(lambda u: float(g.degrees[u])),
                         st.just(density(g, NodeSet(range(n)))),
                         st.floats(0.0, g.d_max + 1.0)))
    return g, rho


@settings(max_examples=400, deadline=None)
@given(tied_graphs_and_densities())
def test_the_netted_network_cuts_like_goldbergs(case):
    # netting takes sum_u min(d_u, rho) off every cut, so both networks have
    # the same minimum cuts and their last BFS the same source side; the
    # flow values differ by that sum only up to the solver's tolerance
    g, rho = case
    _, side = max_flow(_terminal_network(g, rho, netted=True))
    assert side == max_flow(_terminal_network(g, rho, netted=False))[1]


def test_exact_densest_takes_two_improving_rounds():
    # K6 (density 5) on a 30-cycle, plus 60 isolated nodes. The batch peel
    # passes through K6, so L = 5; the cycle's nodes have degree 2 < 5/2
    # (node 6 has 3 until its cycle neighbours go), so the core is K6 and
    # one solve certifies it.
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    ring = [(6 + i, 6 + (i + 1) % 30) for i in range(30)]
    g = LabeledGraph.from_edges(96, k6 + ring + [(0, 6)])
    res = exact_densest_subgraph(g)
    assert res.node_set.as_tuple() == tuple(range(6))
    assert res.density == 5.0
    assert res.iterations == 1


def test_exact_densest_improves_on_a_core_that_keeps_every_node():
    # K6 (density 5), K5 and a 3-cube, chained by two bridges. Every degree
    # is at least 3 > 5/2, so no node can be peeled. At rho(V) = 78/19 the
    # cut takes K6 and K5 (density 52/11); at 52/11 it takes K6; a third
    # solve certifies K6.
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    k5 = [(6 + u, 6 + v) for u in range(5) for v in range(u + 1, 5)]
    cube = [(11 + u, 11 + (u ^ bit)) for u in range(8) for bit in (1, 2, 4)
            if u < u ^ bit]
    g = LabeledGraph.from_edges(19, k6 + k5 + cube + [(5, 6), (10, 11)])
    res = exact_densest_subgraph(g)
    assert g.degrees.min() >= res.density / 2.0
    assert res.node_set.as_tuple() == tuple(range(6))
    assert res.density == 5.0
    assert res.iterations == 3


def test_exact_densest_peels_a_long_tail():
    # K5 (density 4) at the end of a 30,000-node path: the peel eats the path
    # from its free end, one node after another, and leaves K5
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    tail = [(4 + i, 5 + i) for i in range(30_000)]
    g = LabeledGraph.from_edges(30_005, k5 + tail)
    res = exact_densest_subgraph(g)
    assert res.node_set.as_tuple() == (0, 1, 2, 3, 4)
    assert res.density == 4.0
    assert res.iterations == 1


def test_exact_densest_path3(path3):
    res = exact_densest_subgraph(path3)
    # the whole path (density 4/3) beats any single edge (density 1)
    assert res.node_set.as_tuple() == (0, 1, 2)
    assert res.density == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_exact_densest_edgeless_graph():
    # as with edges of weight 0: every node, certified by one solve
    for g in (LabeledGraph.from_edges(3, []),
              LabeledGraph.from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)])):
        res = exact_densest_subgraph(g)
        assert res.density == 0.0
        assert res.node_set.as_tuple() == (0, 1, 2)
        assert res.iterations == 1


def test_exact_densest_at_weights_far_below_one():
    # the flow tolerance scales with the capacities: the graph of the
    # three-round test above, scaled by 2^-60, takes the same three rounds
    k6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    k5 = [(6 + u, 6 + v) for u in range(5) for v in range(u + 1, 5)]
    cube = [(11 + u, 11 + (u ^ bit)) for u in range(8) for bit in (1, 2, 4)
            if u < u ^ bit]
    scale = 2.0 ** -60
    g = LabeledGraph.from_edges(19, [(u, v, scale) for u, v in
                                     k6 + k5 + cube + [(5, 6), (10, 11)]])
    res = exact_densest_subgraph(g)
    assert res.node_set.as_tuple() == tuple(range(6))
    assert res.density == 5.0 * scale
    assert res.iterations == 3
    # one subnormal edge beside two isolated nodes and a zero-weight edge
    g = LabeledGraph.from_edges(6, [(0, 5, 5e-324), (2, 3, 0.0)])
    res = exact_densest_subgraph(g)
    assert res.node_set.as_tuple() == (0, 5)
    assert res.density == 5e-324


def test_exact_densest_matches_subset_enumeration():
    rng = np.random.default_rng(67)
    for _ in range(40):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.7)))
        res = exact_densest_subgraph(g)
        members, dens = brute_densest_subsets(dense_adjacency(g), lambda m: True)
        assert res.density == pytest.approx(dens, abs=1e-9)
        assert res.density == pytest.approx(density(g, res.node_set), abs=1e-12)


def test_exact_densest_weighted_graph():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n, 0.5, weighted=True)
        if g.num_edges == 0:
            continue
        res = exact_densest_subgraph(g)
        _, dens = brute_densest_subsets(dense_adjacency(g), lambda m: True)
        assert res.density == pytest.approx(dens, abs=1e-9)
        assert res.density == pytest.approx(density(g, res.node_set), abs=1e-12)


def test_exact_densest_is_the_union_of_all_densest_sets():
    rng = np.random.default_rng(113)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.7)),
                         weighted=bool(trial % 2))
        if g.num_edges == 0:
            continue
        res = exact_densest_subgraph(g)
        members, dens = brute_largest_densest(dense_adjacency(g))
        assert res.node_set.as_tuple() == members
        assert res.density == pytest.approx(dens, abs=1e-9)


def test_exact_densest_keeps_nodes_of_degree_half_the_optimum():
    # each tie node has two edges into K5 (density 4): adding it keeps the
    # density at 4, so it belongs to the largest densest set
    rng = np.random.default_rng(127)
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for ties in range(1, 6):
        edges = list(k5)
        for t in range(ties):
            a, b = rng.choice(5, size=2, replace=False)
            edges += [(5 + t, int(a)), (5 + t, int(b))]
        # a pendant node outside the optimum
        edges.append((5 + ties, 0))
        g = LabeledGraph.from_edges(6 + ties, edges)
        res = exact_densest_subgraph(g)
        assert res.node_set.as_tuple() == tuple(range(5 + ties))
        assert res.density == 4.0
        assert (res.node_set.as_tuple(), res.density) == \
            brute_largest_densest(dense_adjacency(g))


def test_exact_densest_dominates_random_subsets():
    rng = np.random.default_rng(73)
    g = random_graph(rng, 14, 0.4)
    res = exact_densest_subgraph(g)
    assert res.density >= 2.0 * g.total_weight / g.n - 1e-12
    for _ in range(1000):
        size = int(rng.integers(1, g.n + 1))
        s = NodeSet(rng.choice(g.n, size=size, replace=False))
        assert res.density >= density(g, s) - 1e-9


def test_two_dfsg_fair_k4(k4, k4_rrbb):
    rec = two_dfsg(k4, k4_rrbb, exact_densest_subgraph(k4).node_set)
    assert rec.status is SolveStatus.FOUND
    assert rec.node_set.as_tuple() == (0, 1, 2, 3)
    assert rec.density == 3.0 and rec.fair


def test_two_dfsg_all_red_graph_is_unfair(triangle):
    rec = two_dfsg(triangle, Coloring.from_labels("RRR"),
                   exact_densest_subgraph(triangle).node_set)
    assert rec.status is SolveStatus.UNFAIR
    assert not rec.fair


def test_two_dfsg_approximation_and_fairness_on_fair_graphs():
    rng = np.random.default_rng(79)
    for _ in range(60):
        n = int(rng.choice([4, 6, 8, 10, 12]))
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.7)))
        c = random_coloring(rng, n, balanced=True)
        base = exact_densest_subgraph(g)
        rec = two_dfsg(g, c, base.node_set)
        assert rec.status is SolveStatus.FOUND
        assert rec.fair and is_fair(rec.node_set, c)
        opt = brute_force_densest(g, c)
        assert rec.density >= 0.5 * opt.density - 1e-9
        # padded set is at most twice the unconstrained optimum
        assert rec.size <= 2 * base.node_set.size


def test_two_dfsg_unfair_graph_returns_partial_padding():
    g = LabeledGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    c = Coloring.from_labels("RRRB")
    rec = two_dfsg(g, c, exact_densest_subgraph(g).node_set)
    # the dense triangle is all red; only one blue node exists to pad with
    assert rec.status is SolveStatus.UNFAIR
    assert 3 in rec.node_set
    assert rec.n_blue_in_s == 1


def test_two_dfsg_deterministic():
    rng = np.random.default_rng(83)
    g = random_graph(rng, 12, 0.4)
    c = random_coloring(rng, 12)
    first = two_dfsg(g, c, exact_densest_subgraph(g).node_set)
    second = two_dfsg(g, c, exact_densest_subgraph(g).node_set)
    assert first.node_set == second.node_set
    assert first.status == second.status


def test_two_dfsg_candidates_trajectory():
    # triangle plus two isolated blue nodes: the triangle is the strict
    # optimum, and one padding step (node 3 by the id tie-break) restores
    # balance
    g = LabeledGraph.from_edges(5, [(0, 1), (0, 2), (1, 2)])
    c = Coloring.from_labels("RRBBB")
    optimum = exact_densest_subgraph(g).node_set
    size, dens, _ = two_dfsg_candidates(g, c, optimum)
    rec = two_dfsg(g, c, optimum)
    assert rec.status is SolveStatus.FOUND
    assert rec.node_set.as_tuple() == (0, 1, 2, 3)
    assert size[0] == 3
    assert size[-1] == rec.size
    assert dens[-1] == pytest.approx(rec.density)
    assert size.tolist() == sorted(size.tolist())


def test_two_dfsg_gains_follow_earlier_picks():
    # red K4 is the optimum; blue 5 and 8 have one edge into it, and the
    # blue path 8-7-6 only becomes attractive as it is picked up
    g = LabeledGraph.from_edges(9, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                                + [(0, 5), (1, 8), (8, 7), (7, 6)])
    c = Coloring.from_labels("RRRRBBBBB")
    optimum = exact_densest_subgraph(g).node_set
    assert optimum.as_tuple() == (0, 1, 2, 3)
    rec = two_dfsg(g, c, optimum)
    assert rec.status is SolveStatus.FOUND
    assert rec.node_set.as_tuple() == (0, 1, 2, 3, 5, 6, 7, 8)
    _, dens, _ = two_dfsg_candidates(g, c, optimum)
    # picks 5, 8, 7, 6 each add one edge
    assert dens.tolist() == pytest.approx(
        [2.0 * e / s for e, s in [(6, 4), (7, 5), (8, 6), (9, 7), (10, 8)]])


def test_two_dfsg_ends_its_candidate_trajectory():
    rng = np.random.default_rng(89)
    for _ in range(40):
        n = int(rng.choice([6, 8, 10, 12, 16]))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.6)))
        c = random_coloring(rng, n, balanced=True)
        optimum = exact_densest_subgraph(g).node_set
        trail = list(zip(*(a.tolist() for a in two_dfsg_candidates(g, c, optimum))))
        rec = two_dfsg(g, c, optimum)
        # one snapshot per padding step, the last one the 2dfsg set itself
        assert trail[0] == (optimum.size, density(g, optimum),
                            balance(optimum, c))
        assert len(trail) == rec.size - optimum.size + 1
        assert trail[-1] == (rec.size, rec.density, rec.balance)


def _candidate_triples(g, c, optimum):
    size, dens, bal = two_dfsg_candidates(g, c, optimum)
    assert size.dtype.kind == "i"
    return list(zip(size.tolist(), dens.tolist(), bal.tolist()))


def test_two_dfsg_candidates_match_the_per_prefix_recompute():
    rng = np.random.default_rng(97)
    for _ in range(60):
        n = int(rng.integers(1, 18))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        c = random_coloring(rng, n)
        optimum = exact_densest_subgraph(g).node_set
        # unit weights: every prefix sum is an exact integer
        assert _candidate_triples(g, c, optimum) == two_dfsg_prefixes(g, c, optimum)
        # and from a start the padding has to grow a long way
        start = NodeSet(np.flatnonzero(c.codes == c.codes[0])[:4])
        assert _candidate_triples(g, c, start) == two_dfsg_prefixes(g, c, start)


def test_two_dfsg_candidates_match_the_per_prefix_recompute_weighted():
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(2, 18))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        weights = rng.choice([0.1, 0.3, 2.5, 1e-3], size=len(pairs))
        g = LabeledGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
        c = random_coloring(rng, n)
        for start in (exact_densest_subgraph(g).node_set,
                      NodeSet(np.flatnonzero(c.codes == c.codes[0]))):
            ours = _candidate_triples(g, c, start)
            ref = two_dfsg_prefixes(g, c, start)
            assert [(s, b) for s, _, b in ours] == [(s, b) for s, _, b in ref]
            for (_, d, _), (_, d_ref, _) in zip(ours, ref):
                assert d == pytest.approx(d_ref, rel=1e-12, abs=0.0)


def test_two_dfsg_candidates_pad_a_one_colored_clique():
    # a red K_8 optimum in a blue ring: eight picks, one prefix each
    clique = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    ring = [(8 + i, 8 + (i + 1) % 12) for i in range(12)] + [(0, 8), (3, 14)]
    g = LabeledGraph.from_edges(20, clique + ring)
    c = Coloring.from_labels("R" * 8 + "B" * 12)
    optimum = exact_densest_subgraph(g).node_set
    assert optimum.as_tuple() == tuple(range(8))
    trail = _candidate_triples(g, c, optimum)
    assert trail == two_dfsg_prefixes(g, c, optimum)
    assert [s for s, _, _ in trail] == list(range(8, 17))
    assert trail[-1][2] == 1.0 and trail[0][2] == 0.0


def test_two_dfsg_candidates_reject_an_empty_start(k4, k4_rrbb):
    with pytest.raises(ValueError, match="empty-set density undefined"):
        two_dfsg_candidates(k4, k4_rrbb, NodeSet())


def _clique_and_band(band: int) -> LabeledGraph:
    """K_20 on nodes 0..19 and, apart from it, a bandwidth-5 band on the
    next ``band`` nodes: i ~ i + k for k = 1..5."""
    k20 = np.array([(u, v) for u in range(20) for v in range(u + 1, 20)]).T
    i = np.arange(20, 20 + band)
    u = np.concatenate([k20[0]] + [i[:-k] for k in range(1, 6)])
    v = np.concatenate([k20[1]] + [i[k:] for k in range(1, 6)])
    return LabeledGraph.from_arrays(20 + band, u, v)


def test_densest_core_of_a_clique_beside_a_band_is_the_clique():
    # the band's inner nodes have degree 10 >= 19/2, so only its ends leave
    # in the first wave; the stack peels the rest from both ends
    g = _clique_and_band(2000)
    kept, core = _densest_core(g)
    assert kept.tolist() == list(range(20))
    assert kept.tolist() == stack_peel_core(g)[0].tolist()
    assert core.num_edges == 190
    res = exact_densest_subgraph(g)
    assert res.node_set.as_tuple() == tuple(range(20))
    assert res.density == 19.0 and res.iterations == 1


@st.composite
def peel_graphs(draw, weights):
    """A clique, a path hanging off it and random edges, with weights from
    ``weights``."""
    k = draw(st.integers(0, 8))
    tail = draw(st.integers(0, 20))
    n = k + tail + draw(st.integers(2, 20))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    pairs += [(k - 1 + j, k + j) for j in range(tail) if k + j > 0]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           min_size=1, max_size=60))
    w = draw(st.lists(weights, min_size=len(pairs), max_size=len(pairs)))
    return LabeledGraph.from_arrays(n, *np.array(pairs).T, w)


_EXACT_WEIGHTS = st.one_of(st.just(1.0), st.integers(1, 9).map(float),
                           st.integers(1, 255).map(lambda k: k / 16))


@settings(max_examples=300, deadline=None)
@given(st.one_of(peel_graphs(st.just(1.0)), peel_graphs(_EXACT_WEIGHTS),
                 peel_graphs(st.floats(0.01, 1.0))))
def test_densest_core_keeps_the_stack_peels_ids(g):
    # with exact sums every degree is the same on both sides; with float
    # weights the drop slack keeps rounding from changing a drop
    assert _densest_core(g)[0].tolist() == stack_peel_core(g)[0].tolist()


def test_densest_core_peels_each_round_from_the_last_core():
    rng = np.random.default_rng(0)
    u, v = rng.integers(0, 400, size=(2, 1200))
    g = LabeledGraph.from_arrays(400, u, v, rng.uniform(0.1, 2.0, size=1200))
    with mock.patch.object(flow, "induced_subgraph",
                           wraps=flow.induced_subgraph) as induced:
        kept, core = _densest_core(g)
    # each round's core is induced from the last round's, not from g
    assert [call.args[1].size for call in induced.call_args_list] == [329, 312, 311, 311]
    assert [call.args[0].n for call in induced.call_args_list] == [400, 329, 312, 311]
    assert kept.tolist() == stack_peel_core(g)[0].tolist()
    assert core.n == 311


@settings(max_examples=200, deadline=None)
@given(peel_graphs(st.floats(0.01, 1.0)))
def test_exact_densest_with_the_stack_peel_is_unchanged(g):
    res = exact_densest_subgraph(g)
    with mock.patch.object(flow, "_densest_core", stack_peel_core):
        ref = exact_densest_subgraph(g)
    assert res.node_set == ref.node_set and res.iterations == ref.iterations
    assert np.float64(res.density).tobytes() == np.float64(ref.density).tobytes()


@st.composite
def small_integer_graphs(draw):
    """Up to 12 nodes and 30 edge draws, weights 0..5, so every sum is
    exact."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=30))
    w = draw(st.lists(st.integers(0, 5), min_size=len(pairs), max_size=len(pairs)))
    return LabeledGraph.from_arrays(n, [u for u, _ in pairs], [v for _, v in pairs], w)


@settings(max_examples=100, deadline=None)
@given(small_integer_graphs())
def test_peel_lower_bound_lies_between_the_whole_graph_and_the_optimum(g):
    _, best = brute_densest_subsets(dense_adjacency(g), lambda members: True)
    assert density(g, NodeSet(range(g.n))) <= _peel_lower_bound(g) <= best


@settings(max_examples=200, deadline=None)
@given(small_integer_graphs(), st.data())
def test_padding_picks_match_the_greedy_reference(g, data):
    c = Coloring(data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n)))
    base = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    assume(not is_fair(NodeSet(base), c))
    assert _padding(g, c, NodeSet(base)).tolist() == greedy_padding(g, c, base)
