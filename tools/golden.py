"""Byte-identity manifest of the fairdsg CLI and its exact solver.

Writes ``DIR/golden.json``, one sorted JSON document of three sections:

* ``commands``: one fixed list of CLI commands, each run through
  ``fairdsg.cli.main`` with DIR as the working directory, with its argv,
  stdout, stderr and exit code;
* ``files``: the SHA-256 of every file in DIR, the inputs the tool writes
  and every output. Every path is relative, so the manifest comments in the
  outputs name no tree-specific path and two trees compare equal file for
  file;
* ``exact``: one seeded corpus of small graphs solved by
  ``fairdsg.flow.exact_densest_subgraph``. For each graph it holds the draw
  (index, weight kind, node count, edge draws), the SHA-256 of its
  ``LabeledGraph`` arrays (see ``GRAPH_ARRAYS``) and the answer: the SHA-256
  of the node set's comma-joined ids, its size, the density as
  ``float.hex`` and the number of max-flow solves.

fairdsg is imported from ``PYTHONPATH``, so the tool runs any tree's
``src/``. To check that a change keeps every output byte, array byte, node
set, density bit and solve count of its parent::

    PYTHONPATH=parent/src python tools/golden.py --out before
    PYTHONPATH=src python tools/golden.py --out after
    PYTHONPATH=src python tools/golden.py --compare before after

``--compare A B`` prints each ``commands``, ``files`` and ``exact`` entry
that the manifests in the two ``--out`` directories hold differently, by
key, then one count line, and exits 1 when any entry differs and 0
otherwise.

The commands:

* ``run`` with ss, fss, ps, fps, 2dfsg and exact, and ``pareto`` of the
  first five, on the run-10k seed-1 planted graph and on a seeded weighted
  60-node graph that the tool writes itself, plus ``run --delta 0.5`` with
  ss and fss on the weighted graph;
* ``ingest-polbooks`` on a seeded 24-book GML file that the tool writes,
  of which 16 books are kept, then ``run`` with all seven algorithms,
  oracle included, and ``pareto`` of the same five on its edge list;
* ``planted --save-instances``: fss on (n, m, d, p_bg) = (2000, 400, 64,
  0.001) and ss on (300, 40, 30, 0.01), 3 seeds each, at
  ``--jobs 1`` and ``--jobs 2``, plus one ``--require-hypotheses`` case
  whose seeds are re-drawn;
* for the synthetic product corpora of seeds 1-3 (``perfbench/corpus.py``):
  ``ingest-amazon``, then ``run`` fps, 2dfsg and exact on every category
  pair, then ``summary``.

The corpus: 3,000 graphs of 1-59 nodes, each with up to 4n uniform edge
draws, self-loops and duplicates included (``LabeledGraph.from_arrays``
drops the one and merges the other). Graph k draws its weights from kind
k mod 5: unit; {0, 1, 2}; U(0.1, 2); (1..4) * 10^U(-300, 6); and ties
from {1/3, 2/3, 1, 0.1}. Graph k draws everything from
``numpy.random.default_rng([SEED, k])``.

The 91 commands write 151 files, and the 3,000 graphs take 4,792 solves.
The whole run takes about 6 s on a 2-vCPU host; ``--jobs 2`` spawns two
worker processes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from fairdsg.cli import RUN_ALGORITHMS, main as cli_main
from fairdsg.flow import exact_densest_subgraph
from fairdsg.graph import LabeledGraph

CORPUS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
MANIFEST = "golden.json"
PARETO_ALGORITHMS = "ss,fss,ps,fps,2dfsg"
# (algorithm, n, m, d, p_bg, extra flags) of the planted reports
PLANTED = (("fss", 2000, 400, 64, 0.001, ()),
           ("ss", 300, 40, 30, 0.01, ()),
           ("fss", 150, 20, 15, 0.002, ("--require-hypotheses",)))
SEED = 2027
COUNT = 3000
KINDS = ("unit", "012", "uniform", "wide", "ties")
TIES = np.array([1 / 3, 2 / 3, 1.0, 0.1])
GRAPH_ARRAYS = ("edge_u", "edge_v", "edge_w", "arc_src", "arc_dst", "arc_w",
                "indptr", "degrees")


def digests(directory: str) -> dict[str, str]:
    """SHA-256 of every file under ``directory`` but the manifest, keyed by
    its relative POSIX path."""
    root = Path(directory)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.relative_to(root).as_posix() != MANIFEST}


def run(commands: Iterable[list[str]], directory: str) -> dict:
    """Runs each argv of ``commands`` through the CLI with ``directory`` as
    the working directory, and returns the manifest.

    ``commands`` is consumed lazily, in that directory, so a generator may
    write inputs and read what earlier commands wrote."""
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(argv))
            records.append({"argv": list(argv), "code": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    return {"commands": records, "files": digests(directory)}


def _write_weighted_graph(path: str, n: int = 60, draws: int = 240) -> None:
    """A seeded weighted edge list in the ``u v w`` format, written without
    fairdsg, so the input is the same whichever tree reads it."""
    rng = np.random.default_rng(60)
    u, v = rng.integers(0, n, (2, draws))
    keep = u != v
    pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(u[keep].tolist(),
                                                          v[keep].tolist())})
    weights = np.round(rng.uniform(0.1, 3.0, len(pairs)), 3).tolist()
    colors = "".join("RB"[c] for c in rng.integers(0, 2, n).tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{n} {colors.count('R')} {colors.count('B')}\n{colors}\n")
        handle.writelines(f"{a} {b} {w!r}\n" for (a, b), w in zip(pairs, weights))


def _write_books_gml(path: str, n: int = 24, draws: int = 72) -> None:
    """A seeded polbooks-style GML file, written without fairdsg: the books'
    values cycle through the letters and the words, so 16 of the 24 are kept,
    and the edges are drawn over all of them, neutral books included."""
    rng = np.random.default_rng(24)
    u, v = rng.integers(0, n, (2, draws))
    values = ("c", "liberal", "n", "conservative", "l", "neutral")
    pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist())
                    if a != b})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("graph [\n")
        handle.writelines(f'  node [ id {i} label "book {i}" '
                          f'value "{values[i % 6]}" ]\n' for i in range(n))
        handle.writelines(f"  edge [ source {a} target {b} ]\n" for a, b in pairs)
        handle.write("]\n")


def _write_run10k_graph(path: str) -> None:
    """The run-10k benchmark's seed-1 graph, drawn by the tree under test."""
    from fairdsg.ingest import save_edgelist
    from fairdsg.planted import PlantedParams, generate
    inst = generate(PlantedParams(n=10000, m=400, d=64, eps=0.05, p_bg=0.0005,
                                  seed=1), eig_tol=1e-3)
    save_edgelist(inst.graph, inst.coloring, path)


def _write_corpus(path: str, seed: int) -> None:
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS_PATH)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    corpus.write_corpus(path, seed)


def commands() -> Iterator[list[str]]:
    """The fixed list, writing each input just before its first command."""
    _write_run10k_graph("run10k.el")
    _write_weighted_graph("weighted60.el")
    _write_books_gml("books.gml")
    yield ["ingest-polbooks", "--input", "books.gml", "--out", "books.el"]
    # the oracle enumerates subsets, so only the 16 books take it
    solvers = tuple(a for a in RUN_ALGORITHMS if a != "oracle")
    for stem, algorithms in (("run10k", solvers), ("weighted60", solvers),
                             ("books", RUN_ALGORITHMS)):
        for algorithm in algorithms:
            yield ["run", "--input", f"{stem}.el", "--algorithm", algorithm,
                   "--seed", "1", "--out", f"{stem}_{algorithm}.csv"]
        yield ["pareto", "--input", f"{stem}.el", "--algorithms", PARETO_ALGORITHMS,
               "--seed", "1", "--out", f"{stem}_pareto.csv"]
    for algorithm in ("ss", "fss"):
        yield ["run", "--input", "weighted60.el", "--algorithm", algorithm,
               "--delta", "0.5", "--seed", "1",
               "--out", f"weighted60_{algorithm}_delta.csv"]

    for k, (algorithm, n, m, d, p_bg, extra) in enumerate(PLANTED):
        for jobs in ("1", "2"):
            stem = f"planted{k}_jobs{jobs}"
            yield ["planted", "--n", str(n), "--m", str(m), "--d", str(d),
                   "--p-bg", str(p_bg), "--algorithm", algorithm,
                   "--seed", "1", "--seeds", "3", "--jobs", jobs, *extra,
                   "--save-instances", stem, "--out", f"{stem}.csv"]

    for seed in (1, 2, 3):
        base = f"amazon{seed}"
        os.makedirs(base)
        _write_corpus(f"{base}/meta.jsonl", seed)
        yield ["ingest-amazon", "--input", f"{base}/meta.jsonl",
               "--out-dir", f"{base}/pairs", "--min-nodes", "100"]
        outs = []
        for name in sorted(os.listdir(f"{base}/pairs")):
            if not name.endswith(".el"):
                continue
            for algorithm in ("fps", "2dfsg", "exact"):
                out = f"{base}/{algorithm}_{name[:-len('.el')]}.csv"
                yield ["run", "--input", f"{base}/pairs/{name}",
                       "--algorithm", algorithm, "--out", out]
                outs.append(out)
        yield ["summary", "--input", *outs, "--out", f"{base}/summary.csv"]


def draw_graph(index: int) -> tuple[dict, LabeledGraph]:
    """Graph ``index`` of the corpus and the record of its draw."""
    rng = np.random.default_rng([SEED, index])
    kind = KINDS[index % len(KINDS)]
    n = int(rng.integers(1, 60))
    draws = int(rng.integers(0, 4 * n + 1))
    u, v = rng.integers(0, n, (2, draws))
    if kind == "unit":
        w = np.ones(draws)
    elif kind == "012":
        w = rng.integers(0, 3, draws).astype(float)
    elif kind == "uniform":
        w = rng.uniform(0.1, 2.0, draws)
    elif kind == "wide":
        w = rng.integers(1, 5, draws) * 10.0 ** rng.uniform(-300, 6, draws)
    else:
        w = TIES[rng.integers(0, TIES.size, draws)]
    return ({"index": index, "kind": kind, "n": n, "draws": draws},
            LabeledGraph.from_arrays(n, u, v, w))


def solve(index: int) -> dict:
    """The corpus entry of graph ``index``."""
    record, g = draw_graph(index)
    graph = hashlib.sha256()
    for name in GRAPH_ARRAYS:
        graph.update(getattr(g, name).tobytes())
    res = exact_densest_subgraph(g)
    ids = ",".join(map(str, res.node_set.members.tolist()))
    record.update(graph_sha256=graph.hexdigest(),
                  nodes_sha256=hashlib.sha256(ids.encode()).hexdigest(),
                  size=res.node_set.size, density=float(res.density).hex(),
                  solves=res.iterations)
    return record


def exact_corpus(count: int = COUNT) -> dict:
    """The ``exact`` section: the first ``count`` graphs of the corpus."""
    return {"seed": SEED, "graphs": [solve(k) for k in range(count)]}


def _entries(manifest: dict) -> dict[str, dict]:
    """section -> {key: entry} of a manifest: commands keyed by position,
    files by path and exact graphs by index (a graph's draw depends on the
    corpus seed, so a changed seed shows in its graphs)."""
    return {"commands": {str(i): r for i, r in enumerate(manifest["commands"])},
            "files": manifest["files"],
            "exact": {str(r["index"]): r for r in manifest["exact"]["graphs"]}}


def compare(a: dict, b: dict) -> tuple[list[str], dict[str, tuple[int, int]]]:
    """The entries manifests ``a`` and ``b`` hold differently, one line each,
    and per section (differing entries, entries). A line gives the section,
    the key and a command's argv, then the fields that differ, ``differs``
    for a file digest, or the one side that holds the entry."""
    lines, counts = [], {}
    for (section, left), right in zip(_entries(a).items(), _entries(b).values()):
        keys = [*left, *(k for k in right if k not in left)]
        differing = [k for k in keys if left.get(k) != right.get(k)]
        counts[section] = (len(differing), len(keys))
        for key in differing:
            x, y = left.get(key), right.get(key)
            if x is None or y is None:
                what = "only in B" if x is None else "only in A"
            elif isinstance(x, dict):
                what = ", ".join(sorted(f for f in x.keys() | y.keys()
                                        if x.get(f) != y.get(f)))
            else:
                what = "differs"
            if section == "commands":
                key = " ".join([key, *(x or y)["argv"]])
            lines.append(f"{section} {key}: {what}")
    return lines, counts


def _load(directory: str) -> dict:
    """The manifest that ``--out directory`` wrote."""
    with open(os.path.join(directory, MANIFEST), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out",
                      help="a new or empty directory for the inputs, the "
                           "outputs and golden.json")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="print each entry the manifests in two --out "
                           "directories hold differently; exit 1 if any")
    args = parser.parse_args(argv)
    if args.compare:
        lines, counts = compare(*map(_load, args.compare))
        for line in lines:
            print(line)
        print("golden compare: " + ", ".join(f"{section} {d} of {n}"
                                             for section, (d, n) in counts.items())
              + " differ")
        return 1 if lines else 0
    os.makedirs(args.out, exist_ok=True)
    if os.listdir(args.out):
        parser.error(f"{args.out} is not empty")
    manifest = run(commands(), args.out)
    manifest["exact"] = exact_corpus()
    with open(os.path.join(args.out, MANIFEST), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum(record["code"] != 0 for record in manifest["commands"])
    graphs = manifest["exact"]["graphs"]
    print(f"golden: commands={len(manifest['commands'])} failed={failed} "
          f"files={len(manifest['files'])} graphs={len(graphs)} "
          f"solves={sum(r['solves'] for r in graphs)}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
