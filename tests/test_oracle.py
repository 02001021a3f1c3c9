from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from fairdsg.flow import exact_densest_subgraph
from fairdsg.graph import BLUE, RED, Coloring, LabeledGraph, density
from fairdsg.oracle import ORACLE_MAX_N, brute_force_densest

from conftest import random_coloring, random_graph
from oracles import brute_densest_subsets, dense_adjacency


def test_fair_k4(k4, k4_rrbb):
    res = brute_force_densest(k4, k4_rrbb)
    assert res.feasible
    assert res.node_set.as_tuple() == (0, 1, 2, 3)
    assert res.density == 3.0


def test_fair_triangle_rrb(triangle):
    res = brute_force_densest(triangle, Coloring.from_labels("RRB"))
    # fair sets have size 2; both cross pairs have density 1, ties go to
    # the lexicographically smallest member tuple
    assert res.node_set.as_tuple() == (0, 2)
    assert res.density == 1.0


def test_fair_infeasible_when_one_color_missing(triangle):
    res = brute_force_densest(triangle, Coloring.from_labels("RRR"))
    assert not res.feasible
    assert res.node_set.size == 0 and res.density == 0.0


def test_exactly_tied_weighted_sets_keep_the_tie_rule():
    # two disjoint triangles of weights 0.3, 0.7 and 0.9: float sums along
    # the Gray-code walk give the two triangles different densities
    tri = [(0, 1, 0.3), (1, 2, 0.7), (0, 2, 0.9)]
    g = LabeledGraph.from_edges(7, tri + [(u + 4, v + 4, w) for u, v, w in tri])
    res = brute_force_densest(g)
    assert res.node_set.as_tuple() == (0, 1, 2)
    assert res.density == density(g, res.node_set)
    exact = {s: 2 * sum(Fraction(w) for u, v, w in g.edges() if {u, v} <= set(s)) / len(s)
             for k in range(1, 8) for s in itertools.combinations(range(7), k)}
    best = max(exact.values())
    assert min((len(s), s) for s, d in exact.items() if d == best)[1] == (0, 1, 2)


def test_unconstrained_matches_flow_solver():
    rng = np.random.default_rng(89)
    for _ in range(25):
        n = 10
        g = random_graph(rng, n, float(rng.uniform(0.3, 0.7)))
        res = brute_force_densest(g)
        flow = exact_densest_subgraph(g)
        assert res.density == pytest.approx(flow.density, abs=1e-9)


def test_matches_independent_enumeration():
    rng = np.random.default_rng(97)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, 0.5, weighted=bool(rng.integers(0, 2)))
        c = random_coloring(rng, n)
        a = dense_adjacency(g)
        codes = c.codes

        res = brute_force_densest(g)
        members, dens = brute_densest_subsets(a, lambda m: True)
        assert res.node_set.as_tuple() == members
        assert res.density == pytest.approx(dens, abs=1e-12)

        res = brute_force_densest(g, c)
        members, dens = brute_densest_subsets(
            a, lambda m: 2 * int((codes[list(m)] == RED).sum()) == len(m))
        if res.feasible:
            assert res.node_set.as_tuple() == members
            assert res.density == pytest.approx(dens, abs=1e-12)
        else:
            assert members == ()


def test_constraint_hierarchy():
    rng = np.random.default_rng(101)
    for _ in range(15):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, 0.5)
        c = random_coloring(rng, n)
        unconstrained = brute_force_densest(g)
        fair = brute_force_densest(g, c)
        assert unconstrained.density >= fair.density >= 0.0


def test_reduction_shaped_instances():
    # all-red graph plus k isolated blue nodes: the fair optimum stays within
    # twice the densest at-most-2k optimum
    rng = np.random.default_rng(103)
    for _ in range(10):
        n_red = int(rng.integers(3, 8))
        k = int(rng.integers(1, 4))
        base = random_graph(rng, n_red, 0.6)
        edges = list(base.edges())
        g = LabeledGraph.from_edges(n_red + k, edges)
        c = Coloring([RED] * n_red + [BLUE] * k)
        fair = brute_force_densest(g, c)
        _, capped = brute_densest_subsets(dense_adjacency(g), lambda m: len(m) <= 2 * k)
        assert fair.density <= 2.0 * capped + 1e-12


def test_size_cap():
    g = LabeledGraph.from_edges(ORACLE_MAX_N + 1, [(0, 1)])
    with pytest.raises(ValueError, match="instance too large for oracle"):
        brute_force_densest(g)
