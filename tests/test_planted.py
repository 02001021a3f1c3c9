from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from fairdsg.graph import NodeSet, density, is_fair
from fairdsg.planted import (PlantedParams, _background_pairs,
                             _planted_internal_edges, generate, recovery_error,
                             run_recovery)
from fairdsg.spectral import ProjectedOperator, dominant_eigenpair

from oracles import same_structure


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


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


# the instances these seeds give, byte for byte: a faster sampler must keep
# them, so results and benchmark inputs stay comparable across versions
@pytest.mark.parametrize("seed, m, d, shape, digest", [
    (1, 400, 64, (12800, 2),
     "c61c2634e819e466771f675ff05f718312e9e7e57f4b4ffa8e9de451fec1cbd9"),
    (2, 400, 64, (12800, 2),
     "f99f7d87d89aa186b34735c72b2736ecd786565b051bd9c61a3740341d925cef"),
    (3, 400, 64, (12800, 2),
     "a0cc15dcecb34470fba462b8b52b96d761629bd1ed9215ae01ce8586d85ae5cf"),
    (1, 40, 30, (600, 2),  # d > (m - 1) / 2: the complement of a sparse sample
     "179cf8bcd462df4cb5b250cae5543f13c2c50ffa75f50859200004c565df0de3"),
])
def test_planted_internal_edges_are_pinned(seed, m, d, shape, digest):
    edges = _planted_internal_edges(np.random.default_rng(seed), m, d)
    assert edges.shape == shape
    assert _sha256(edges) == digest


def test_generated_edges_are_pinned():
    params = PlantedParams(n=10000, m=400, d=64, eps=0.05, p_bg=0.0005, seed=1)
    g = generate(params, eig_tol=1e-3).graph
    assert g.num_edges == 37687
    assert _sha256(g.edge_u) == \
        "72c900985130bf22de1ae63ae174d287b3ca684024094ac3a778d7aa3879cd2b"
    assert _sha256(g.edge_v) == \
        "7a61ae6c5296578556e6be3af06667a740e743a7dcbfd59bce37f7211554e460"


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
    assert report.error_ok and report.chi_ok


def test_generation_deterministic_per_seed():
    params = PlantedParams(n=120, m=20, d=7, eps=0.2, p_bg=0.03, seed=11)
    a = generate(params)
    b = generate(params)
    assert same_structure(a.graph, b.graph)
    assert a.coloring == b.coloring
    assert a.planted_set == b.planted_set
    other = generate(PlantedParams(n=120, m=20, d=7, eps=0.2, p_bg=0.03, seed=12))
    assert not same_structure(other.graph, a.graph)


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


# eps changes no draw: the planted subgraph is exactly d-regular for every eps.
# A sampler that realizes eps > 0 has to change this test on purpose.
@pytest.mark.parametrize("n, m, d, p_bg, seed", [
    (120, 20, 7, 0.03, 11),
    (300, 40, 30, 0.002, 1),  # d > (m - 1) / 2: the complement of a sparse sample
])
def test_eps_selects_nothing(n, m, d, p_bg, seed):
    draws = []
    for eps in (0.0, 0.25, 0.5, 0.9):
        inst = generate(PlantedParams(n=n, m=m, d=d, eps=eps, p_bg=p_bg, seed=seed))
        g = inst.graph
        draws.append((g.edge_u.tobytes(), g.edge_v.tobytes(), g.edge_w.tobytes(),
                      inst.coloring.codes.tobytes(), inst.planted_set))
        assert inst.measured.eps_measured == 0.0
    assert all(draw == draws[0] for draw in draws[1:])


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
        inst = generate(params)
        report = run_recovery(inst)
        if report.vacuous:
            continue
        held += 1
        assert report.error <= report.error_bound
        assert report.chi_dist_sq <= report.chi_bound + 1e-9
        assert inst.measured.hypotheses_hold
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
    inst = generate(params)
    assert run_recovery(inst).vacuous
    assert not inst.measured.hypotheses_hold


def test_recovery_rejects_unknown_algorithm():
    params = PlantedParams(n=30, m=10, d=9, eps=0.0, p_bg=0.0, seed=5)
    inst = generate(params)
    # the general (unpaired) sweeps of SPECTRAL_ALGORITHMS, and only those
    for name in ("fps", "ps", "2dfsg", "exact", "FSS"):
        with pytest.raises(ValueError, match=r"^recovery sweep supports 'fss' "
                                             r"\(projected\) or 'ss' \(raw\)$"):
            run_recovery(inst, algorithm=name)
    for name in ("fss", "ss"):
        assert run_recovery(inst, algorithm=name).solution.size > 0


def _candidate_pairs(n, m):
    """Every pair the background may hold, numbered row by row."""
    return [(i, j) for i in range(n) for j in range(max(i + 1, m), n)]


def test_background_pairs_support():
    rng = np.random.default_rng(0)
    for seed in range(200):
        n = int(rng.integers(3, 40))
        m = int(rng.integers(1, n))
        p = float(rng.choice([rng.uniform(0.01, 1.0), 1e-3, 1.0]))
        i, j = _background_pairs(np.random.default_rng(seed), n, m, p).T
        pairs = list(zip(i.tolist(), j.tolist()))
        assert i.dtype == j.dtype == np.int64
        assert pairs == sorted(set(pairs))  # sorted, no duplicates
        assert all(0 <= a < b < n and b >= m for a, b in pairs)


def test_background_pairs_at_p_one_are_every_candidate():
    i, j = _background_pairs(np.random.default_rng(3), 12, 4, 1.0).T
    assert list(zip(i.tolist(), j.tolist())) == _candidate_pairs(12, 4)
    assert i.size == 60


@pytest.mark.parametrize("p", [5e-324, 1e-300])
def test_background_pairs_at_tiny_p_are_empty_without_wrapping(p):
    # numpy draws INT64_MAX gaps here; unclipped, their cumsum wraps negative
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(5):
            pairs = _background_pairs(np.random.default_rng(seed), 3000, 40, p)
            assert pairs.shape == (0, 2)


class _ShortDraws:
    """A generator whose geometric draws stop after three values per call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def geometric(self, p, size):
        return self.rng.geometric(p, min(size, 3))


def test_background_pairs_continue_across_blocks():
    # numpy's geometric stream does not depend on the block size, so short
    # blocks must reproduce the one-block draw exactly
    for seed in range(20):
        for n, m, p in ((30, 5, 0.3), (60, 2, 0.05), (12, 4, 1.0)):
            want = _background_pairs(np.random.default_rng(seed), n, m, p)
            got = _background_pairs(_ShortDraws(seed), n, m, p)
            assert np.array_equal(got, want)


def test_background_pair_frequencies_are_independent_bernoulli():
    n, m, p, runs = 10, 2, 0.3, 4000
    index = {pair: k for k, pair in enumerate(_candidate_pairs(n, m))}
    hits = np.zeros((runs, len(index)), dtype=bool)
    for seed in range(runs):
        i, j = _background_pairs(np.random.default_rng(seed), n, m, p).T
        hits[seed, [index[pair] for pair in zip(i.tolist(), j.tolist())]] = True

    def within_5_sigma(counts, q):
        return np.all(np.abs(counts - runs * q) <= 5 * np.sqrt(runs * q * (1 - q)))

    assert within_5_sigma(hits.sum(axis=0), p)
    # adjacent index pairs, including across rows: joint rate p^2
    assert within_5_sigma((hits[:, 1:] & hits[:, :-1]).sum(axis=0), p * p)
