"""The contract between the library and the benchmark's span tracer.

``perfbench/tracer.py`` wraps the public functions of the layer modules by
name, binds some of their arguments by name and reads fields of their
results. A change to any of those names would leave ``perfbench/run.py
--trace 1`` without its work counters, so this test runs the tracer over the
CLI paths the benchmark traces.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import types
from pathlib import Path

from fairdsg import cli
from fairdsg.graph import Coloring, LabeledGraph
from fairdsg.ingest import read_edgelist, save_edgelist
from fairdsg.planted import PlantedParams, generate

from oracles import same_structure

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    """Every attribute of the fairdsg modules and every traced graph method,
    by (owner, name), as the objects themselves."""
    modules = [importlib.import_module("fairdsg")]
    modules += [importlib.import_module(f"fairdsg.{m}") for m in tracer.LAYERS]
    out = {(m.__name__, name): obj for m in modules for name, obj in vars(m).items()}
    out.update((("LabeledGraph", name), LabeledGraph.__dict__[name])
               for name in tracer.GRAPH_METHODS)
    return out


def test_the_benchmark_tracer_hooks_what_the_library_has(tmp_path):
    tracer = _load_tracer()
    public = {name for layer in tracer.LAYERS
              for name, obj in vars(importlib.import_module(f"fairdsg.{layer}")).items()
              if isinstance(obj, types.FunctionType) and not name.startswith("_")
              and obj.__module__ == f"fairdsg.{layer}"}
    assert sorted(set(tracer.OBSERVERS) - public) == []
    assert [name for name in tracer.GRAPH_METHODS
            if name not in LabeledGraph.__dict__] == []

    g = LabeledGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                                    (3, 5), (4, 5), (1, 4)])
    path = str(tmp_path / "g.el")
    save_edgelist(g, Coloring.from_labels("RBRBRB"), path)
    commands = [["run", "--input", path, "--algorithm", name,
                 "--out", str(tmp_path / f"{name}.csv")]
                for name in ("fss", "ps", "2dfsg")]
    commands.append(["pareto", "--input", path, "--algorithms", "ss,2dfsg",
                     "--out", str(tmp_path / "front.csv")])
    # amazon-pipeline's commands, in the argv shapes perfbench/run.py uses
    meta = tmp_path / "meta.jsonl"
    ring = [(f"A{i}", "Books" if i % 2 else "Toys") for i in range(8)]
    meta.write_text("".join(
        json.dumps({"asin": asin, "main_cat": cat,
                    "also_buy": [a for a, _ in ring if a != asin]}) + "\n"
        for asin, cat in ring), encoding="utf-8")
    pairs = tmp_path / "pairs"
    commands.append(["ingest-amazon", "--input", str(meta), "--out-dir", str(pairs),
                     "--min-nodes", "4"])
    runs = [str(tmp_path / f"runs_{name}.csv") for name in ("fps", "2dfsg")]
    commands += [["run", "--input", str(pairs / "books_toys.el"), "--algorithm",
                  name, "--out", out] for name, out in zip(("fps", "2dfsg"), runs)]
    commands.append(["summary", "--input", *runs, "--out", str(tmp_path / "s.csv")])

    before = _bindings(tracer)
    spans = tracer.Tracer()
    spans.install()
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv  # looked up after install
    finally:
        spans.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    counts = tracer.counters(spans.spans)
    for key in ("max_flow.arcs", "exact_densest_subgraph.bisection",
                "general_sweep.candidates", "paired_sweep.candidates",
                "dominant_eigenpair.iterations", "parse_amazon_jsonl.records",
                "category_pair_subgraphs.pairs", "two_dfsg.size"):
        assert counts.get(key, 0) > 0, key
    # each run command reads its input through the traced reader
    runs = [sid for sid, _, _, name, _, _, _, c in spans.spans
            if name == "main" and c["command"] == "run"]
    read_roots = {root for _, _, root, name, *_ in spans.spans if name == "read_edgelist"}
    assert len(runs) == 5 and [sid for sid in runs if sid not in read_roots] == []


def test_the_benchmark_setup_calls_keep_their_signatures(tmp_path):
    """The calls ``RunLarge.prepare`` in ``perfbench/run.py`` makes to build
    run-10k's input, on a small instance: a changed keyword would turn into a
    failed benchmark run rather than a failed test."""
    inst = generate(PlantedParams(n=200, m=40, d=12, eps=0.05, p_bg=0.01, seed=1),
                    eig_tol=1e-3)
    path = str(tmp_path / "planted.el")
    save_edgelist(inst.graph, inst.coloring, path)
    g, c = read_edgelist(path)
    assert same_structure(g, inst.graph) and c == inst.coloring
