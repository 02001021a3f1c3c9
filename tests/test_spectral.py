from __future__ import annotations

import numpy as np
import pytest

from fairdsg import spectral
from fairdsg.graph import Coloring, LabeledGraph, NodeSet
from fairdsg.planted import PlantedParams, generate
from fairdsg.spectral import (ConvergenceError, ProjectedOperator,
                              dominant_eigenpair, fairness_vector,
                              second_eigenvalue, spectral_profile)

from conftest import random_coloring, random_graph
from oracles import dense_adjacency, dense_projected, jacobi_eigenvalues


def test_fairness_vector_examples():
    f = fairness_vector(Coloring.from_labels("RRBB"))
    assert np.allclose(f, [0.5, 0.5, -0.5, -0.5])
    f2 = fairness_vector(Coloring.from_labels("RB"))
    assert np.allclose(f2, [1 / np.sqrt(2), -1 / np.sqrt(2)])
    assert abs(np.linalg.norm(f) - 1.0) <= 1e-12


_ONE_NODE = LabeledGraph.from_arrays(1, [], [])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: fairness_vector(Coloring([])),
                 "fairness vector needs at least one node", id="empty coloring"),
    pytest.param(lambda: second_eigenvalue(_ONE_NODE, dominant_eigenpair(_ONE_NODE)),
                 "a 1-node operator has no second eigenpair", id="second of one node"),
    pytest.param(lambda: spectral_profile(_ONE_NODE),
                 "spectral profile needs at least two nodes", id="profile of one node"),
])
def test_spectral_errors_name_the_problem(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_fair_indicator_orthogonal_to_fairness_vector():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        c = random_coloring(rng, n)
        reds = np.flatnonzero(c.red_mask())
        blues = np.flatnonzero(~c.red_mask())
        k = min(reds.size, blues.size)
        if k == 0:
            continue
        members = list(rng.choice(reds, k, replace=False)) + \
            list(rng.choice(blues, k, replace=False))
        chi = NodeSet(members).indicator(n)
        f = fairness_vector(c)
        assert abs(f @ chi) <= 1e-12


def test_apply_projected_kills_fairness_vector(k4, k4_rrbb):
    op = ProjectedOperator(k4, k4_rrbb)
    f = fairness_vector(k4_rrbb)
    assert np.allclose(op.matvec(f), 0.0, atol=1e-12)


def test_apply_projected_fair_indicator_equals_projected_image():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 10, 0.5)
    c = random_coloring(rng, 10, balanced=True)
    f = fairness_vector(c)
    chi = NodeSet(range(0, 10)).indicator(10)  # whole balanced set is fair
    op = ProjectedOperator(g, c)
    z = g.matvec(chi)
    expected = z - (f @ z) * f
    assert np.allclose(op.matvec(chi), expected, atol=1e-12)


def test_apply_projected_uniform_on_fair_k4(k4, k4_rrbb):
    op = ProjectedOperator(k4, k4_rrbb)
    x = np.full(4, 0.5)
    assert np.allclose(op.matvec(x), 3.0 * x, atol=1e-12)


def test_apply_projected_dimension_mismatch(k4, k4_rrbb):
    op = ProjectedOperator(k4, k4_rrbb)
    with pytest.raises(ValueError, match="does not match"):
        op.matvec(np.ones(3))
    with pytest.raises(ValueError, match="does not match"):
        op.matvec(np.ones(5))
    with pytest.raises(ValueError, match="does not match"):
        ProjectedOperator(k4, Coloring.from_labels("RB"))


def test_projected_operator_reads_d_max_from_its_graph(k4, k4_rrbb):
    op = ProjectedOperator(k4, k4_rrbb)
    assert op.d_max == k4.d_max == 3.0
    with pytest.raises(AttributeError):
        op.d_max = 1.0


@pytest.mark.parametrize("w", [1e160, 8e307])
def test_eigenpairs_of_huge_valid_weights(w):
    # the squared norms of such a graph's Lanczos vectors overflow unless
    # the solver scales the operator down
    g = LabeledGraph.from_edges(2, [(0, 1, w)])
    for op in (g, ProjectedOperator(g, Coloring.from_labels("RB"))):
        pair = dominant_eigenpair(op)
        assert pair.value == pytest.approx(w, rel=1e-12)
        assert pair.residual <= 1e-8 * w
        assert np.allclose(pair.vector, [2 ** -0.5, 2 ** -0.5])


def test_zero_eigenvalue_of_a_huge_weight_path_converges():
    # lambda2 = 0 on the path 0-1-2; its residual cannot fall below the
    # rounding error of a product, about d_max * 2^-52, so only the floor
    # tol * d_max * 2^-52 lets it converge
    w = 1e160
    g = LabeledGraph.from_edges(3, [(0, 1, w), (1, 2, w)])
    profile = spectral_profile(g)
    assert profile.lambda1 == pytest.approx(2 ** 0.5 * w, rel=1e-12)
    assert profile.lambda_n == pytest.approx(-(2 ** 0.5) * w, rel=1e-12)
    assert abs(profile.lambda2) <= 1e-8 * g.d_max * 2.0 ** -52
    second = second_eigenvalue(g, dominant_eigenpair(g))
    assert second.residual <= 1e-8 * g.d_max * 2.0 ** -52
    assert second.iterations <= 100


def test_dominant_eigenpair_triangle(triangle):
    pair = dominant_eigenpair(triangle)
    assert pair.value == pytest.approx(2.0, abs=1e-8)
    assert np.allclose(pair.vector, np.ones(3) / np.sqrt(3), atol=1e-6)


def test_dominant_eigenpair_projected_k4(k4, k4_rrbb):
    pair = dominant_eigenpair(ProjectedOperator(k4, k4_rrbb))
    assert pair.value == pytest.approx(3.0, abs=1e-8)
    assert np.allclose(np.abs(pair.vector), 0.5, atol=1e-6)


def test_second_eigenvalue_small_graphs(triangle, k4):
    top = dominant_eigenpair(triangle)
    second = second_eigenvalue(triangle, top)
    assert second.value == pytest.approx(-1.0, abs=1e-7)
    top4 = dominant_eigenpair(k4)
    second4 = second_eigenvalue(k4, top4)
    assert second4.value == pytest.approx(-1.0, abs=1e-7)


def test_spectral_profile_k4_and_k22(k4, k22):
    prof = spectral_profile(k4)
    assert prof.lambda1 == pytest.approx(3.0, abs=1e-7)
    assert prof.lambda2 == pytest.approx(-1.0, abs=1e-7)
    assert prof.lambda_n == pytest.approx(-1.0, abs=1e-7)
    assert prof.lam == pytest.approx(1.0, abs=1e-7)
    prof22 = spectral_profile(k22)
    assert prof22.lambda1 == pytest.approx(2.0, abs=1e-7)
    assert prof22.lambda2 == pytest.approx(0.0, abs=1e-7)
    assert prof22.lambda_n == pytest.approx(-2.0, abs=1e-7)
    assert prof22.lam == pytest.approx(2.0, abs=1e-7)


def test_jacobi_oracle_agrees_with_numpy():
    # sanity check of the oracle itself on random symmetric matrices
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        ours = jacobi_eigenvalues(m)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(ours, ref, atol=1e-9)


def test_eigensolver_matches_dense_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(15):
        n = int(rng.integers(4, 12))
        g = random_graph(rng, n, 0.5, weighted=bool(rng.integers(0, 2)))
        c = random_coloring(rng, n)
        f = fairness_vector(c)
        spec_a = jacobi_eigenvalues(dense_adjacency(g))
        spec_b = jacobi_eigenvalues(dense_projected(g, f))
        top = dominant_eigenpair(g, seed=1)
        assert top.value == pytest.approx(spec_a[0], abs=1e-6)
        second = second_eigenvalue(g, top, seed=1)
        assert second.value == pytest.approx(spec_a[1], abs=1e-6)
        hat = dominant_eigenpair(ProjectedOperator(g, c), seed=1)
        assert hat.value == pytest.approx(spec_b[0], abs=1e-6)
        prof = spectral_profile(g, seed=1)
        assert prof.lambda_n == pytest.approx(spec_a[-1], abs=1e-6)


def test_eigenvector_of_projected_operator_is_projected():
    # nonzero eigenvalues of the projected operator have eigenvectors in the
    # projection subspace, so f . v vanishes
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(3, 16))
        g = random_graph(rng, n, 0.6)
        c = random_coloring(rng, n)
        f = fairness_vector(c)
        op = ProjectedOperator(g, c)
        pair = dominant_eigenpair(op, seed=2)
        if abs(pair.value) > 1e-8:
            assert abs(f @ pair.vector) <= 1e-6
            projected = pair.vector - (f @ pair.vector) * f
            assert np.linalg.norm(projected - pair.vector) <= 1e-6


def test_projected_top_never_exceeds_adjacency_top():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(2, 16))
        g = random_graph(rng, n, 0.5, weighted=True)
        c = random_coloring(rng, n)
        lam1 = dominant_eigenpair(g, seed=3).value
        hat1 = dominant_eigenpair(ProjectedOperator(g, c), seed=3).value
        assert hat1 <= lam1 + 1e-8


def test_seed_invariance_of_eigenvector():
    rng = np.random.default_rng(17)
    g = random_graph(rng, 12, 0.5)
    a = dominant_eigenpair(g, seed=4)
    b = dominant_eigenpair(g, seed=5)
    assert abs(a.vector @ b.vector) >= 1.0 - 1e-8
    assert a.value == pytest.approx(b.value, abs=1e-7)


def test_tied_top_eigenvalue_on_two_disjoint_k4s():
    # one Krylov space holds one copy of the repeated eigenvalue 3; the
    # locked second solve must find the other
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = LabeledGraph.from_edges(8, edges + [(u + 4, v + 4) for u, v in edges])
    top = dominant_eigenpair(g)
    assert top.value == pytest.approx(3.0, abs=1e-7)
    assert second_eigenvalue(g, top).value == \
        pytest.approx(3.0, abs=1e-7)
    prof = spectral_profile(g)
    assert prof.lambda1 == pytest.approx(3.0, abs=1e-7)
    assert prof.lambda2 == pytest.approx(3.0, abs=1e-7)
    assert prof.lambda_n == pytest.approx(-1.0, abs=1e-7)


def test_spectral_profile_on_planted_instance_with_close_gaps():
    # close gaps at both ends: 0.046 below lambda_2, 0.0053 above lambda_n
    inst = generate(PlantedParams(n=2000, m=200, d=64, eps=0.05, p_bg=0.001,
                                  seed=14997))
    want = np.linalg.eigvalsh(dense_adjacency(inst.graph))
    meas = inst.measured
    assert meas.lambda1 == pytest.approx(want[-1], abs=1e-6)
    assert meas.lambda2 == pytest.approx(want[-2], abs=1e-6)
    assert meas.lambda_n == pytest.approx(want[0], abs=1e-6)


def test_operator_symmetry_probe():
    rng = np.random.default_rng(21)
    g = random_graph(rng, 14, 0.4, weighted=True)
    c = random_coloring(rng, 14)
    op = ProjectedOperator(g, c)
    for _ in range(10):
        x = rng.standard_normal(14)
        y = rng.standard_normal(14)
        lhs = x @ op.matvec(y)
        rhs = y @ op.matvec(x)
        assert abs(lhs - rhs) <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(y)


def test_unit_norm_and_residual_contract():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n, 0.5)
        pair = dominant_eigenpair(g, seed=6)
        assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
        direct = np.linalg.norm(g.matvec(pair.vector) - pair.value * pair.vector)
        assert direct <= 1e-8 * max(abs(pair.value), 1.0) + 1e-12
        # sign convention: first entry of visible magnitude is positive
        nonzero = pair.vector[np.abs(pair.vector) > 1e-12]
        if nonzero.size:
            assert nonzero[0] > 0


def test_nonconvergence_raises_with_best_residual(k22, monkeypatch):
    monkeypatch.setattr(spectral, "MAX_MATVECS", 3)
    with pytest.raises(ConvergenceError) as err:
        spectral_profile(k22, tol=1e-30)
    assert err.value.best_residual > 0.0
    assert err.value.iterations == 3


def test_convergence_error_survives_a_pickle_round_trip():
    # a planted --jobs worker hands its exception to the parent by pickle
    import pickle
    err = pickle.loads(pickle.dumps(ConvergenceError("no luck", 0.5, 3)))
    assert type(err) is ConvergenceError
    assert str(err) == "no luck"
    assert (err.best_residual, err.iterations) == (0.5, 3)


def test_nan_or_infinite_tol_rejected_before_any_matvec(k22):
    products = []

    class Counted:
        n, d_max = k22.n, k22.d_max

        def matvec(self, x):
            products.append(1)
            return k22.matvec(x)

    for tol in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            spectral_profile(Counted(), tol=tol)
    assert products == []


def test_empty_graph_operator_rejected():
    g = LabeledGraph.from_edges(0, [])
    with pytest.raises(ValueError):
        dominant_eigenpair(g)


def test_edgeless_graph_has_zero_spectrum():
    g = LabeledGraph.from_edges(3, [])
    pair = dominant_eigenpair(g)
    assert pair.value == 0.0
    prof = spectral_profile(g)
    assert (prof.lambda1, prof.lambda2, prof.lambda_n, prof.lam) == (0.0, 0.0, 0.0, 0.0)
