from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from fairdsg.flow import exact_densest_subgraph, two_dfsg, two_dfsg_candidates
from fairdsg.graph import RED, Coloring, LabeledGraph, density
from fairdsg.planted import PlantedParams, generate, run_recovery
from fairdsg.spectral import ProjectedOperator, dominant_eigenpair
from fairdsg.sweep import (ALL_ORDERINGS, SPECTRAL_ALGORITHMS, Ordering,
                           SolutionRecord, SolveStatus, candidate_trace,
                           general_sweep, ordering_permutation, paired_sweep,
                           run_algorithm, sweep_eigenvector)

from conftest import random_coloring, random_graph
from oracles import pair_rescan, subset_density, sweep_rescan, dense_adjacency


def _eigvec(g, c, projected):
    op = ProjectedOperator(g, c) if projected else g
    return dominant_eigenpair(op, seed=1).vector


def test_ordering_permutations_tie_break_by_id():
    v = np.array([1.0, -2.0, 1.0, 0.0])
    assert list(ordering_permutation(v, Ordering.NON_INCREASING)) == [0, 2, 3, 1]
    assert list(ordering_permutation(v, Ordering.NON_DECREASING)) == [1, 3, 0, 2]
    assert list(ordering_permutation(v, Ordering.ABS_NON_INCREASING)) == [1, 0, 2, 3]
    assert list(ordering_permutation(v, Ordering.ABS_NON_DECREASING)) == [3, 0, 2, 1]


def test_general_sweep_single_fair_edge():
    g = LabeledGraph.from_edges(2, [(0, 1)])
    c = Coloring.from_labels("RB")
    rec = general_sweep(g, c, np.array([0.9, 0.1]), delta=0.0)
    assert rec.status is SolveStatus.FOUND
    assert rec.node_set.as_tuple() == (0, 1)
    assert rec.density == 1.0 and rec.fair


def test_general_sweep_all_red_triangle_infeasible(triangle):
    c = Coloring.from_labels("RRR")
    rec = general_sweep(triangle, c, np.array([0.3, 0.2, 0.1]), delta=0.0)
    assert rec.status is SolveStatus.NO_FEASIBLE_PREFIX
    assert rec.size == 0 and not rec.fair
    assert rec.density == 0.0


def _edgeless(labels):
    """Edgeless graph with an all-zero vector: every prefix has density 0,
    so only the tie-break decides."""
    n = len(labels)
    return LabeledGraph.from_edges(n, []), Coloring.from_labels(labels), np.zeros(n)


def _two_edges():
    """Two disjoint edges: density 1 is first reached at size 4 in the first
    ordering but at size 2 in the third, so size outranks ordering."""
    g = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
    return g, Coloring.from_labels("RBRB"), np.array([0.5, -0.6, 0.1, 0.2])


def test_general_sweep_matches_rescan_oracle():
    rng = np.random.default_rng(31)
    cases = []
    for weighted in (False, True):  # integer weights keep both sides exact
        for _ in range(40):
            n = int(rng.integers(2, 11))
            g = random_graph(rng, n, 0.5, weighted=weighted)
            c = random_coloring(rng, n, balanced=(n % 2 == 0))
            v = _eigvec(g, c, projected=True)
            cases.append((g, c, v, float(rng.choice([0.0, 0.25, 1.0]))))
    cases += [(*_edgeless("RBRB"), 0.0), (*_edgeless("RRBRB"), 0.0),
              (*_two_edges(), 0.0)]
    for g, c, v, delta in cases:
        rec = general_sweep(g, c, v, delta)
        expected = sweep_rescan(g, c.codes, v, delta)
        if expected is None:
            assert rec.status is SolveStatus.NO_FEASIBLE_PREFIX
        else:
            assert rec.status is SolveStatus.FOUND
            assert rec.node_set.as_tuple() == expected[0]
            assert rec.density == pytest.approx(expected[1], abs=1e-12)
    assert general_sweep(*_edgeless("RBRB"), 0.0).node_set.as_tuple() == (0, 1)
    assert general_sweep(*_two_edges(), 0.0).node_set.as_tuple() == (0, 1)
    assert (general_sweep(*_edgeless("RRBRB"), 0.0).status
            is SolveStatus.NO_FEASIBLE_PREFIX)


def test_paired_sweep_k4(k4, k4_rrbb):
    rec = paired_sweep(k4, k4_rrbb, np.array([0.4, 0.3, 0.2, 0.1]))
    assert rec.status is SolveStatus.FOUND
    assert rec.node_set.as_tuple() == (0, 1, 2, 3)
    assert rec.density == 3.0 and rec.fair and rec.balance == 1.0


def test_paired_sweep_without_blue_nodes():
    g = LabeledGraph.from_edges(1, [])
    c = Coloring.from_labels("R")
    rec = paired_sweep(g, c, np.array([1.0]))
    assert rec.status is SolveStatus.NO_FEASIBLE_PREFIX


def test_paired_sweep_matches_rescan_oracle():
    rng = np.random.default_rng(37)
    cases = []
    for weighted in (False, True):  # integer weights keep both sides exact
        for _ in range(40):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, 0.5, weighted=weighted)
            c = random_coloring(rng, n)
            cases.append((g, c, _eigvec(g, c, projected=bool(rng.integers(0, 2)))))
    cases += [_edgeless("RBRB"), _edgeless("RRBRB"), _two_edges()]
    for g, c, v in cases:
        rec = paired_sweep(g, c, v)
        expected = pair_rescan(g, c.codes, v)
        if expected is None:
            assert rec.status is SolveStatus.NO_FEASIBLE_PREFIX
        else:
            assert rec.status is SolveStatus.FOUND
            assert rec.node_set.as_tuple() == expected[0]
            assert rec.density == pytest.approx(expected[1], abs=1e-12)
            assert rec.fair
    assert paired_sweep(*_edgeless("RRBRB")).node_set.as_tuple() == (0, 2)
    assert paired_sweep(*_two_edges()).node_set.as_tuple() == (0, 1)


def test_run_algorithm_k4_all_variants(k4, k4_rrbb):
    for name in ("ss", "fss", "ps", "fps"):
        rec = run_algorithm(name, k4, k4_rrbb)
        assert rec.status is SolveStatus.FOUND
        assert rec.node_set.as_tuple() == (0, 1, 2, 3)
        assert rec.density == 3.0


def test_run_algorithm_rejects_unknown(k4, k4_rrbb):
    with pytest.raises(ValueError, match="unknown sweep algorithm"):
        run_algorithm("gsa", k4, k4_rrbb)


def test_algorithm_names_match_exactly(k4, k4_rrbb):
    # as in planted and the CLI, a name in another case is not a name
    for call in (run_algorithm, candidate_trace, sweep_eigenvector):
        for name in ("FSS", "Ps", "GSA"):
            with pytest.raises(ValueError, match=f"unknown sweep algorithm '{name}'"):
                call(name, k4, k4_rrbb)


def test_paired_variants_never_return_unfair_solutions():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 16))
        g = random_graph(rng, n, 0.4)
        c = random_coloring(rng, n)
        for name in ("ps", "fps"):
            rec = run_algorithm(name, g, c)
            assert rec.status in (SolveStatus.FOUND, SolveStatus.NO_FEASIBLE_PREFIX)
            if rec.status is SolveStatus.FOUND:
                assert rec.fair and rec.imbalance == 0


def test_fss_recovers_isolated_planted_clique():
    params = PlantedParams(n=30, m=10, d=9, eps=0.0, p_bg=0.0, seed=3)
    inst = generate(params)
    rec = run_algorithm("fss", inst.graph, inst.coloring)
    assert rec.status is SolveStatus.FOUND
    assert rec.node_set == inst.planted_set
    assert rec.density == pytest.approx(9.0)


def test_candidate_trace_counts_and_values(triangle):
    c3 = Coloring.from_labels("RRR")
    size, dens, bal = candidate_trace("ss", triangle, c3)
    assert size.shape == dens.shape == bal.shape == (4 * 3,)
    assert size.dtype.kind == "i"
    for block in range(4):
        assert dens[block * 3:block * 3 + 3].tolist() == [0.0, 1.0, 2.0]
        assert size[block * 3:block * 3 + 3].tolist() == [1, 2, 3]
    assert bal.tolist() == [0.0] * 12  # no blue node

    g = LabeledGraph.from_edges(2, [(0, 1)])
    c = Coloring.from_labels("RB")
    size, dens, bal = candidate_trace("ps", g, c)
    assert list(zip(size.tolist(), dens.tolist(), bal.tolist())) == [(2, 1.0, 1.0)] * 4


def test_trace_densities_match_scratch_recompute():
    rng = np.random.default_rng(43)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, 0.6, weighted=True)
        c = random_coloring(rng, n)
        v = _eigvec(g, c, projected=True)
        a = dense_adjacency(g)
        for oi, ordering in enumerate(ALL_ORDERINGS):
            perm = ordering_permutation(v, ordering)
            sizes, densities, _ = candidate_trace("fss", g, c, seed=1)
            block = zip(sizes[oi * n:(oi + 1) * n], densities[oi * n:(oi + 1) * n])
            for s, (size, dens) in enumerate(block, start=1):
                assert size == s
                assert dens == pytest.approx(subset_density(a, perm[:s]), abs=1e-9)


def test_recorded_density_consistent_with_recompute():
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, 0.5, weighted=True)
        c = random_coloring(rng, n)
        v = _eigvec(g, c, projected=False)
        rec = general_sweep(g, c, v, delta=float(n))
        assert rec.status is SolveStatus.FOUND
        assert rec.density == pytest.approx(density(g, rec.node_set), abs=1e-9)


def test_huge_delta_gives_unconstrained_best_prefix():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, 0.5)
        c = random_coloring(rng, n)
        v = _eigvec(g, c, projected=False)
        unconstrained = sweep_rescan(g, c.codes, v, delta=float(n))
        rec = general_sweep(g, c, v, delta=float(n))
        assert rec.node_set.as_tuple() == unconstrained[0]


def test_density_monotone_in_delta():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, 0.5)
        c = random_coloring(rng, n)
        v = _eigvec(g, c, projected=True)
        last = -1.0
        for delta in (0.0, 0.2, 0.5, 1.0, float(n)):
            rec = general_sweep(g, c, v, delta)
            dens = rec.density if rec.status is SolveStatus.FOUND else -1.0
            if rec.status is SolveStatus.FOUND:
                assert dens >= last - 1e-12
                last = dens


def test_single_ordering_mode():
    # restricting to the non-increasing ordering reproduces the plain sweep
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    c = Coloring.from_labels("RBRB")
    v = np.array([0.9, 0.8, 0.2, 0.1])
    rec = general_sweep(g, c, v, delta=0.0, orderings=(Ordering.NON_INCREASING,))
    assert rec.status is SolveStatus.FOUND
    # feasible prefixes are {0,1} (density 1) and the whole graph (density 2)
    assert rec.node_set.as_tuple() == (0, 1, 2, 3)
    assert rec.density == 2.0

    assert all(a.shape == (16,) for a in candidate_trace("ss", g, c))


def test_dimension_mismatch_rejected(k4, k4_rrbb):
    with pytest.raises(ValueError, match="does not match"):
        general_sweep(k4, k4_rrbb, np.ones(3), 0.0)
    with pytest.raises(ValueError, match="does not match"):
        paired_sweep(k4, k4_rrbb, np.ones(5))


def test_nan_or_negative_delta_rejected(k4, k4_rrbb):
    for delta in (float("nan"), -0.5):
        with pytest.raises(ValueError, match="delta must be non-negative"):
            general_sweep(k4, k4_rrbb, np.ones(4), delta)
        for name in SPECTRAL_ALGORITHMS:  # ps and fps ignore delta but check it
            with pytest.raises(ValueError, match="delta must be non-negative"):
                run_algorithm(name, k4, k4_rrbb, delta=delta)


def _red_optimum_instance():
    """A small planted graph with its densest set recoloured red, so 2dfsg
    has to pad."""
    g = generate(PlantedParams(n=120, m=20, d=7, eps=0.2, p_bg=0.03, seed=11)).graph
    optimum = exact_densest_subgraph(g).node_set
    codes = np.random.default_rng(5).integers(0, 2, size=g.n).astype(np.int8)
    codes[optimum.members] = RED
    return g, Coloring(codes), optimum


def test_the_library_never_reads_the_clock(monkeypatch):
    def clock():
        raise AssertionError("the library read the clock")

    for name in ("perf_counter", "monotonic", "time"):
        monkeypatch.setattr(time, name, clock)
    g, c, optimum = _red_optimum_instance()
    for name in SPECTRAL_ALGORITHMS:
        assert run_algorithm(name, g, c).size > 0
        assert candidate_trace(name, g, c)[0].size > 0
    assert exact_densest_subgraph(g).node_set == optimum
    assert two_dfsg(g, c, optimum).size > optimum.size
    assert two_dfsg_candidates(g, c, optimum)[0].size > 1
    instance = generate(PlantedParams(n=60, m=10, d=5, eps=0.1, p_bg=0.05, seed=3))
    assert run_recovery(instance).solution.size > 0


def test_equal_inputs_give_equal_records():
    g, c, optimum = _red_optimum_instance()
    for name in SPECTRAL_ALGORITHMS:
        assert run_algorithm(name, g, c) == run_algorithm(name, g, c)
    first = two_dfsg(g, c, optimum)
    assert first == two_dfsg(g, c, optimum)
    assert first.status is SolveStatus.FOUND and first.size > optimum.size
    names = {f.name for f in dataclasses.fields(SolutionRecord)}
    assert not names & {"algorithm", "runtime_s"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.density = 0.0
