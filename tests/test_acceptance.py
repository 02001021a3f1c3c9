"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Criteria 1 and 10 need local dataset files (see README)
and are skipped with an explanatory message when the files are absent.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairdsg.flow import exact_densest_subgraph, two_dfsg
from fairdsg.graph import (Coloring, LabeledGraph, NodeSet, density, is_fair)
from fairdsg.ingest import (build_product_graph, category_pair_subgraphs,
                            parse_amazon_jsonl, parse_gml, polbooks_graph,
                            save_edgelist)
from fairdsg.oracle import brute_force_densest
from fairdsg.planted import PlantedParams, generate, run_recovery
from fairdsg.report import normalized_density, summarize
from fairdsg.spectral import (ProjectedOperator, dominant_eigenpair,
                              fairness_vector, second_eigenvalue,
                              spectral_profile)
from fairdsg.sweep import SolveStatus, general_sweep, paired_sweep, run_algorithm
from fairdsg.cli import main as cli_main

from conftest import random_coloring, random_graph
from oracles import (dense_adjacency, dense_projected, jacobi_eigenvalues,
                     pair_rescan, sweep_rescan)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _polbooks_path() -> Path | None:
    env = os.environ.get("FAIRDSG_POLBOOKS")
    candidates = [Path(env)] if env else []
    candidates.append(DATA_DIR / "polbooks.gml")
    for path in candidates:
        if path.is_file():
            return path
    return None


def test_criterion_1_polbooks_ingestion():
    path = _polbooks_path()
    if path is None:
        print("[SKIP] criterion 1: polbooks.gml not available locally "
              "(set FAIRDSG_POLBOOKS or place it at data/polbooks.gml)")
        pytest.skip("polbooks.gml not available in this environment")
    t0 = time.perf_counter()
    doc = parse_gml(path.read_text(encoding="utf-8"))
    g, c = polbooks_graph(doc)
    elapsed = time.perf_counter() - t0
    ok = (g.n == 92 and g.num_edges == 362
          and c.n_red == 49 and c.n_blue == 43 and elapsed < 1.0)
    whole = NodeSet(range(g.n))
    dens = density(g, whole)
    ok = ok and abs(dens - 2 * 362 / 92) <= 1e-9
    _report("criterion 1", ok,
            f"raw_nodes={len(doc.nodes)} nodes={g.n} edges={g.num_edges} "
            f"red={c.n_red} blue={c.n_blue} density={dens:.4f} "
            f"elapsed={elapsed:.3f}s")


def test_criterion_2_flow_matches_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        p = float(rng.uniform(0.3, 0.7))
        g = random_graph(rng, n, p)
        flow = exact_densest_subgraph(g)
        oracle = brute_force_densest(g)
        worst = max(worst, abs(flow.density - oracle.density))
    elapsed = time.perf_counter() - t0
    _report("criterion 2", worst <= 1e-9 and elapsed < 60.0,
            f"300 graphs, max |flow - oracle| = {worst:.2e}, "
            f"elapsed={elapsed:.1f}s")


def test_criterion_3_two_dfsg_approximation():
    t0 = time.perf_counter()
    worst_ratio = np.inf
    all_fair = True
    for seed in range(300):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.choice([4, 6, 8, 10, 12]))
        p = float(rng.uniform(0.3, 0.7))
        g = random_graph(rng, n, p)
        c = random_coloring(rng, n, balanced=True)
        rec = two_dfsg(g, c, exact_densest_subgraph(g).node_set)
        opt = brute_force_densest(g, c)
        all_fair = all_fair and rec.status is SolveStatus.FOUND and rec.fair \
            and is_fair(rec.node_set, c)
        assert rec.density >= 0.5 * opt.density - 1e-9
        if opt.density > 0:
            worst_ratio = min(worst_ratio, rec.density / opt.density)
    elapsed = time.perf_counter() - t0
    _report("criterion 3", all_fair and elapsed < 60.0,
            f"300 fair graphs, worst density ratio vs fair optimum = "
            f"{worst_ratio:.3f} (guarantee 0.5), elapsed={elapsed:.1f}s")


def test_criterion_4_spectral_contracts():
    t0 = time.perf_counter()
    worst_gap = 0.0
    hvs_worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 65))
        p = float(rng.uniform(0.1, 0.9))
        g = random_graph(rng, n, p)
        c = random_coloring(rng, n)
        f = fairness_vector(c)
        spec_a = jacobi_eigenvalues(dense_adjacency(g))
        spec_b = jacobi_eigenvalues(dense_projected(g, f))

        kwargs = dict(tol=1e-8, seed=seed)
        top = dominant_eigenpair(g, seed=seed)
        second = second_eigenvalue(g, top, **kwargs)
        hat = dominant_eigenpair(ProjectedOperator(g, c), seed=seed)
        hat2 = second_eigenvalue(ProjectedOperator(g, c), hat, **kwargs)
        prof = spectral_profile(g, **kwargs)

        for got, want in ((top.value, spec_a[0]), (second.value, spec_a[1]),
                          (hat.value, spec_b[0]), (hat2.value, spec_b[1]),
                          (prof.lambda_n, spec_a[-1])):
            worst_gap = max(worst_gap, abs(got - want))
            assert abs(got - want) <= 1e-6
        for pair in (top, second, hat, hat2):
            assert pair.residual <= 1e-8 * max(abs(pair.value), 1.0) + 1e-15
        if abs(hat.value) > 1e-8:
            hvs_worst = max(hvs_worst, abs(f @ hat.vector))
            assert abs(f @ hat.vector) <= 1e-6
        assert hat.value <= top.value + 1e-8
    elapsed = time.perf_counter() - t0
    _report("criterion 4", worst_gap <= 1e-6 and elapsed < 120.0,
            f"100 graphs, max |iterative - jacobi| = {worst_gap:.2e}, "
            f"max |f.v_hat1| = {hvs_worst:.2e}, elapsed={elapsed:.1f}s")


def _second_eigenvalue_bound_instances():
    # planted expanders, cliques with isolated padding, and dense random
    # graphs; only those measured with lambda1 >= 4 lam qualify
    for seed in range(8):
        inst = generate(PlantedParams(n=150, m=20, d=15, eps=0.1, p_bg=0.003,
                                      seed=seed))
        yield inst.graph, inst.coloring
    for m in range(6, 14):
        n = m + 10
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        g = LabeledGraph.from_edges(n, edges)
        rng = np.random.default_rng(m)
        yield g, random_coloring(rng, n)
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(60, 110))
        g = random_graph(rng, n, float(rng.uniform(0.7, 0.9)))
        yield g, random_coloring(rng, n)


def test_criterion_5_second_eigenvalue_bound():
    t0 = time.perf_counter()
    qualifying = 0
    checked = 0
    worst_margin = np.inf
    for g, c in _second_eigenvalue_bound_instances():
        checked += 1
        prof = spectral_profile(g, seed=1)
        if prof.lambda1 < 4.0 * prof.lam:
            continue
        qualifying += 1
        op = ProjectedOperator(g, c)
        hat1 = dominant_eigenpair(op, seed=1)
        hat2 = second_eigenvalue(op, hat1, seed=1)
        assert hat2.value <= 0.75 * prof.lambda1 + 1e-6
        worst_margin = min(worst_margin, 0.75 * prof.lambda1 - hat2.value)
    elapsed = time.perf_counter() - t0
    _report("criterion 5", qualifying >= 15 and elapsed < 60.0,
            f"{qualifying}/{checked} instances qualified (lambda1 >= 4 lam); "
            f"lambda_hat_2 <= 0.75 lambda1 held on all, min margin = "
            f"{worst_margin:.3f}, elapsed={elapsed:.1f}s")


def test_criterion_6_planted_recovery_at_scale():
    t0 = time.perf_counter()
    held = 0
    attempts = 0
    seed = 0
    worst_error_margin = np.inf
    worst_chi_margin = np.inf
    while held < 20 and attempts < 60:
        attempts += 1
        params = PlantedParams(n=2000, m=200, d=64, eps=0.05, p_bg=0.001,
                               seed=seed)
        seed += 1
        inst = generate(params)
        if not inst.measured.hypotheses_hold:
            continue
        held += 1
        report = run_recovery(inst)
        assert not report.vacuous
        assert report.error <= report.error_bound
        assert report.chi_dist_sq <= report.chi_bound + 1e-9
        worst_error_margin = min(worst_error_margin,
                                 report.error_bound - report.error)
        worst_chi_margin = min(worst_chi_margin,
                               report.chi_bound - report.chi_dist_sq)
    elapsed = time.perf_counter() - t0
    _report("criterion 6", held == 20 and elapsed < 600.0,
            f"{held} instances with hypotheses_hold over {attempts} seeds; "
            f"min error margin = {worst_error_margin:.1f} nodes, "
            f"min chi-bound margin = {worst_chi_margin:.4f}, "
            f"elapsed={elapsed:.1f}s")


def test_criterion_7_paired_sweeps_never_unfair():
    t0 = time.perf_counter()
    unfair = 0
    runs = 0
    for seed in range(250):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(1, 25))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.8)))
        c = random_coloring(rng, n)
        for name in ("ps", "fps"):
            rec = run_algorithm(name, g, c, seed=seed)
            runs += 1
            if rec.status is SolveStatus.FOUND:
                if not (rec.fair and rec.imbalance == 0):
                    unfair += 1
            else:
                assert rec.status is SolveStatus.NO_FEASIBLE_PREFIX
                assert min(c.n_red, c.n_blue) == 0
    elapsed = time.perf_counter() - t0
    _report("criterion 7", unfair == 0 and runs == 500 and elapsed < 60.0,
            f"{runs} ps/fps runs, {unfair} unfair (expected 0), "
            f"elapsed={elapsed:.1f}s")


def test_criterion_8_sweeps_match_exhaustive_rescan():
    t0 = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
        c = random_coloring(rng, n)
        projected = bool(rng.integers(0, 2))
        op = ProjectedOperator(g, c) if projected else g
        v = dominant_eigenpair(op, seed=seed).vector
        delta = float(rng.choice([0.0, 0.25, 1.0, float(n)]))

        rec = general_sweep(g, c, v, delta)
        want = sweep_rescan(g, c.codes, v, delta)
        if want is None:
            assert rec.status is SolveStatus.NO_FEASIBLE_PREFIX
        else:
            assert rec.node_set.as_tuple() == want[0]
            assert rec.density == want[1]

        rec_pair = paired_sweep(g, c, v)
        want_pair = pair_rescan(g, c.codes, v)
        if want_pair is None:
            assert rec_pair.status is SolveStatus.NO_FEASIBLE_PREFIX
        else:
            assert rec_pair.node_set.as_tuple() == want_pair[0]
            assert rec_pair.density == want_pair[1]
    elapsed = time.perf_counter() - t0
    _report("criterion 8", elapsed < 60.0,
            f"200 graphs, both sweeps equal the exhaustive re-scan, "
            f"elapsed={elapsed:.1f}s")


def test_criterion_9_cli_byte_determinism(tmp_path):
    t0 = time.perf_counter()
    g = LabeledGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                                    (3, 5), (4, 5), (1, 4)])
    c = Coloring.from_labels("RBRBRB")
    graph_path = tmp_path / "g.el"
    save_edgelist(g, c, str(graph_path))

    run_outs = []
    commands = []
    for algorithm in ("ss", "fss", "ps", "fps", "2dfsg", "exact", "oracle"):
        out = tmp_path / f"run_{algorithm}.csv"
        run_outs.append(out)
        commands.append((["run", "--input", str(graph_path), "--algorithm",
                          algorithm, "--seed", "3", "--out", str(out)], [out]))
    planted_out = tmp_path / "planted.csv"
    commands.append((["planted", "--n", "60", "--m", "10", "--d", "9",
                      "--p-bg", "0.02", "--seeds", "2",
                      "--seed", "5", "--out", str(planted_out)], [planted_out]))
    pareto_out = tmp_path / "pareto.csv"
    commands.append((["pareto", "--input", str(graph_path), "--algorithms",
                      "ss,fss,ps,fps,2dfsg", "--seed", "3",
                      "--out", str(pareto_out)], [pareto_out]))
    summary_out = tmp_path / "summary.csv"
    commands.append((["summary", "--input",
                      *[str(p) for p in run_outs[:4]],
                      "--out", str(summary_out)], [summary_out]))

    assert len(commands) == 10
    identical = 0
    for argv, outputs in commands:
        assert cli_main(list(argv)) == 0
        first = [out.read_bytes() for out in outputs]
        assert cli_main(list(argv)) == 0
        second = [out.read_bytes() for out in outputs]
        if first == second:
            identical += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 9", identical == 10 and elapsed < 120.0,
            f"{identical}/10 commands byte-identical on repeat, "
            f"elapsed={elapsed:.1f}s")


def _amazon_path() -> Path | None:
    env = os.environ.get("FAIRDSG_AMAZON")
    candidates = [Path(env)] if env else []
    candidates.extend(sorted(DATA_DIR.glob("*.jsonl")) if DATA_DIR.is_dir() else [])
    for path in candidates:
        if path.is_file():
            return path
    return None


def test_criterion_10_amazon_corpus_report():
    """Non-gating: recorded for comparison against the published run."""
    path = _amazon_path()
    if path is None:
        print("[SKIP] criterion 10 (non-gating): no Amazon metadata snapshot "
              "(set FAIRDSG_AMAZON or place a .jsonl under data/)")
        pytest.skip("Amazon corpus snapshot not available in this environment")
    with open(path, encoding="utf-8") as handle:
        columns, skipped = parse_amazon_jsonl(handle)
    graph, categories, _ = build_product_graph(columns)
    pairs = category_pair_subgraphs(graph, categories, min_nodes=100)
    print(f"[INFO] criterion 10: records={len(columns)} skipped={skipped} "
          f"pairs_at_min100={len(pairs)} (published run reports 292 pairs, "
          f"sizes 100..22046)")
    entries = []
    for pair in pairs:
        optimum = exact_densest_subgraph(pair.graph)
        if optimum.density <= 0:
            continue
        for name in ("ss", "fss", "ps", "fps"):
            rec = run_algorithm(name, pair.graph, pair.coloring)
            nd = normalized_density(rec, optimum=optimum.density)
            entries.append((name, nd, rec.status is not SolveStatus.FOUND))
        rec = two_dfsg(pair.graph, pair.coloring, optimum.node_set)
        nd = normalized_density(rec, optimum=optimum.density)
        entries.append(("2dfsg", nd, rec.status is not SolveStatus.FOUND))
    for row in summarize(entries):
        print(f"[INFO] criterion 10: {row.algorithm} runs={row.runs} "
              f"pct_unfair={row.pct_unfair:.2f} nd_median={row.nd_median:.3f} "
              f"(published pct_unfair: ss 1.03, fss 0.34, ps 0, fps 0, "
              f"2dfsg 3.08)")
