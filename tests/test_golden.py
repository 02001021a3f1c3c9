"""Smoke test of ``tools/golden.py``, the byte-identity manifest of the CLI:
equal runs give equal manifests, and a changed output byte shows."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
