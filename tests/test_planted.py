from __future__ import annotations

import numpy as np
import pytest

from fairdsg.graph import NodeSet, density, is_fair
from fairdsg.planted import (PlantedParams, generate, recovery_error,
                             recovery_experiment, run_recovery)
from fairdsg.spectral import ProjectedOperator, dominant_eigenpair


def test_params_validation():
    good = dict(n=20, m=6, d=3, eps=0.1, p_bg=0.05, seed=0)
    PlantedParams(**good)
    for bad in (dict(m=5), dict(m=22), dict(d=6), dict(eps=1.0),
                dict(eps=-0.1), dict(p_bg=1.5), dict(m=0)):
        with pytest.raises(ValueError):
            PlantedParams(**{**good, **bad})


def test_recovery_error_examples():
    assert recovery_error(NodeSet([1, 2, 3]), NodeSet([1, 2, 3])) == 0
    assert recovery_error(NodeSet(range(10)), NodeSet()) == 10
    assert recovery_error(NodeSet([1, 2, 3, 4]), NodeSet([2, 3, 4, 5, 6])) == 1


def test_complete_planted_clique_without_background():
    params = PlantedParams(n=30, m=10, d=9, eps=0.0, p_bg=0.0, seed=5)
    inst = generate(params)
    assert inst.planted_set.size == 10
    assert is_fair(inst.planted_set, inst.coloring)
    assert density(inst.graph, inst.planted_set) == 9.0
    meas = inst.measured
    assert meas.eps_measured == 0.0
    assert meas.theta == 0.0
    assert meas.lambda1 == pytest.approx(9.0, abs=1e-6)
    assert meas.lam == pytest.approx(1.0, abs=1e-6)
    assert meas.hypotheses_hold

    report = run_recovery(inst)
    assert not report.vacuous
    assert report.delta == 0.0
    assert report.error == 0
    assert report.chi_dist_sq <= 1e-6
    assert report.passed


def test_generation_deterministic_per_seed():
    params = PlantedParams(n=120, m=20, d=7, eps=0.2, p_bg=0.03, seed=11)
    a = generate(params)
    b = generate(params)
    assert a.graph.same_structure(b.graph)
    assert a.coloring == b.coloring
    assert a.planted_set == b.planted_set
    other = generate(PlantedParams(n=120, m=20, d=7, eps=0.2, p_bg=0.03, seed=12))
    assert not other.graph.same_structure(a.graph)


def test_realized_planted_subgraph_is_regular_within_window():
    params = PlantedParams(n=100, m=24, d=9, eps=0.25, p_bg=0.02, seed=7)
    inst = generate(params)
    mask = inst.planted_set.mask(inst.graph.n)
    internal = np.zeros(inst.graph.n)
    for u, v, w in inst.graph.edges():
        if mask[u] and mask[v]:
            internal[u] += w
            internal[v] += w
    degs = internal[inst.planted_set.members]
    assert np.all(degs >= (1 - params.eps) * params.d)
    assert np.all(degs <= (1 + params.eps) * params.d)
    # the collision-avoiding sampler actually lands exactly on d
    assert np.all(degs == params.d)
    assert inst.measured.eps_measured == 0.0


def test_planted_coloring_splits_planted_set_evenly():
    params = PlantedParams(n=61, m=12, d=5, eps=0.2, p_bg=0.05, seed=3)
    inst = generate(params)
    reds = int(inst.coloring.red_mask()[inst.planted_set.members].sum())
    assert reds == 6
    # background alternates, so global counts stay within one of each other
    assert abs(inst.coloring.n_red - inst.coloring.n_blue) <= 1
    assert inst.measured.theta >= 0.0


def test_infeasible_regularity_raises():
    # eps=0 with d < m-1 demands an exact d-regular sample; a 3-node planted
    # set with d=1 cannot even satisfy the parity constraint
    params = PlantedParams(n=10, m=4, d=1, eps=0.0, p_bg=0.0, seed=1)
    inst = generate(params)  # d=1 on 4 nodes is a perfect matching; fine
    assert inst.planted_set.size == 4
    bad = PlantedParams(n=12, m=6, d=5, eps=0.0, p_bg=0.0, seed=1)
    assert generate(bad).measured.eps_measured == 0.0  # complete-graph shortcut


def test_recovery_bounds_hold_on_small_instances():
    held = 0
    for seed in range(6):
        params = PlantedParams(n=300, m=40, d=30, eps=0.1, p_bg=0.002, seed=seed)
        report = recovery_experiment(params)
        if report.vacuous:
            continue
        held += 1
        assert report.error <= report.error_bound
        assert report.chi_dist_sq <= report.chi_bound + 1e-9
        assert report.measured.hypotheses_hold
    assert held >= 4  # the parameters are chosen to hold almost always


def test_threshold_misclassification_bound():
    # all but 16(eps+theta)m nodes split correctly around 1/(2 sqrt(m))
    for seed in range(3):
        params = PlantedParams(n=300, m=40, d=30, eps=0.1, p_bg=0.002, seed=seed)
        inst = generate(params)
        if not inst.measured.hypotheses_hold:
            continue
        g, c = inst.graph, inst.coloring
        top = dominant_eigenpair(ProjectedOperator(g, c), seed=params.seed)
        chi = inst.planted_set.indicator(g.n)
        vec = -top.vector if chi @ top.vector < 0 else top.vector
        m = inst.planted_set.size
        thresh = 1.0 / (2.0 * np.sqrt(m))
        mask = inst.planted_set.mask(g.n)
        missed_in = int((vec[mask] < thresh).sum())
        missed_out = int((vec[~mask] >= thresh).sum())
        bound = 16.0 * (inst.measured.eps_measured + inst.measured.theta) * m
        assert missed_in + missed_out <= bound


def test_vacuous_report_when_hypotheses_fail():
    # a sparse planted set inside strong background noise is no expander
    params = PlantedParams(n=300, m=40, d=12, eps=0.1, p_bg=0.01, seed=1)
    report = recovery_experiment(params)
    assert report.vacuous
    assert not report.measured.hypotheses_hold


def test_recovery_rejects_unknown_algorithm():
    params = PlantedParams(n=30, m=10, d=9, eps=0.0, p_bg=0.0, seed=5)
    inst = generate(params)
    with pytest.raises(ValueError):
        run_recovery(inst, algorithm="fps")
