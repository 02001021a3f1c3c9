"""Smoke test of ``tools/exact_corpus.py``, the differential manifest of the
graph layer and the exact solver: equal runs give equal manifests, graph
hashes included, and a changed density bit shows."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np

CORPUS_PATH = Path(__file__).resolve().parents[1] / "tools" / "exact_corpus.py"


def _load_corpus():
    spec = importlib.util.spec_from_file_location("tools_exact_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_runs_give_equal_manifests_and_a_flipped_density_bit_shows():
    corpus = _load_corpus()
    first, second = corpus.manifest(10), corpus.manifest(10)
    assert first == second
    graphs = first["graphs"]
    assert [r["kind"] for r in graphs] == list(corpus.KINDS) * 2
    assert all(1 <= r["n"] <= 59 and 0 <= r["draws"] <= 4 * r["n"]
               and r["solves"] >= 1 and len(r["graph_sha256"]) == 64
               for r in graphs)

    solve = corpus.exact_densest_subgraph

    def nudged(g):
        res = solve(g)
        return dataclasses.replace(res, density=np.nextafter(res.density, np.inf))

    with mock.patch.object(corpus, "exact_densest_subgraph", nudged):
        changed = corpus.manifest(10)["graphs"]
    for before, after in zip(graphs, changed):
        assert {k for k in before if before[k] != after[k]} == {"density"}
