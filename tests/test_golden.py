"""Smoke tests of ``tools/golden.py``, the byte-identity manifest of the CLI
and of the exact solver: equal runs give equal manifests, graph hashes
included, and a changed output byte or density bit shows."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np

from fairdsg.graph import Coloring, LabeledGraph
from fairdsg.ingest import save_edgelist

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


def _load_golden():
    spec = importlib.util.spec_from_file_location("tools_golden", GOLDEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_runs_give_equal_manifests_and_a_flipped_byte_shows(tmp_path):
    golden = _load_golden()
    g = LabeledGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                                    (3, 5), (4, 5), (1, 4)])
    commands = [["run", "--input", "g.el", "--algorithm", "fss", "--out", "fss.csv"],
                ["pareto", "--input", "g.el", "--out", "front.csv"]]
    manifests = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        save_edgelist(g, Coloring.from_labels("RBRBRB"), str(directory / "g.el"))
        manifests.append(golden.run(commands, str(directory)))
    first, second = manifests
    assert first == second
    assert [r["code"] for r in first["commands"]] == [0, 0]
    assert sorted(first["files"]) == ["front.csv", "fss.csv", "g.el"]

    out = tmp_path / "a" / "fss.csv"
    data = bytearray(out.read_bytes())
    data[-2] ^= 1
    out.write_bytes(bytes(data))
    flipped = golden.digests(str(tmp_path / "a"))
    assert {k for k in flipped if flipped[k] != first["files"][k]} == {"fss.csv"}


def test_equal_runs_give_equal_manifests_and_a_flipped_density_bit_shows():
    golden = _load_golden()
    first, second = golden.exact_corpus(10), golden.exact_corpus(10)
    assert first == second
    graphs = first["graphs"]
    assert [r["kind"] for r in graphs] == list(golden.KINDS) * 2
    assert all(1 <= r["n"] <= 59 and 0 <= r["draws"] <= 4 * r["n"]
               and r["solves"] >= 1 and len(r["graph_sha256"]) == 64
               for r in graphs)

    solve = golden.exact_densest_subgraph

    def nudged(g):
        res = solve(g)
        return dataclasses.replace(res, density=np.nextafter(res.density, np.inf))

    with mock.patch.object(golden, "exact_densest_subgraph", nudged):
        changed = golden.exact_corpus(10)["graphs"]
    for before, after in zip(graphs, changed):
        assert {k for k in before if before[k] != after[k]} == {"density"}
