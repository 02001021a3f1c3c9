"""Differential manifest of the exact densest-subgraph solver.

Solves one fixed, seeded corpus of small graphs with
``fairdsg.flow.exact_densest_subgraph`` and writes ``DIR/exact_corpus.json``:
for each graph its draw (index, weight kind, node count, edge draws), the
SHA-256 of its ``LabeledGraph`` arrays (see ``GRAPH_ARRAYS``) and the
answer, as the SHA-256 of the node set's comma-joined ids, the density as
``float.hex`` and the number of max-flow solves. A change to the graph layer
or the flow solver that keeps every array byte, every node set, every
density bit and every solve count of its parent leaves the file
byte-identical.

fairdsg is imported from ``PYTHONPATH``, so the tool runs any tree's
``src/``::

    PYTHONPATH=parent/src python tools/exact_corpus.py --out before
    PYTHONPATH=src python tools/exact_corpus.py --out after
    diff before/exact_corpus.json after/exact_corpus.json

The corpus: 3,000 graphs of 1-59 nodes, each with up to 4n uniform edge
draws, self-loops and duplicates included (``LabeledGraph.from_arrays``
drops the one and merges the other). Graph k draws its weights from kind
k mod 5: unit; {0, 1, 2}; U(0.1, 2); (1..4) * 10^U(-300, 6); and ties
from {1/3, 2/3, 1, 0.1}. Graph k draws everything from
``numpy.random.default_rng([SEED, k])``. The run takes about 5 s on a
2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np

from fairdsg.flow import exact_densest_subgraph
from fairdsg.graph import LabeledGraph

MANIFEST = "exact_corpus.json"
SEED = 2027
COUNT = 3000
KINDS = ("unit", "012", "uniform", "wide", "ties")
TIES = np.array([1 / 3, 2 / 3, 1.0, 0.1])
GRAPH_ARRAYS = ("edge_u", "edge_v", "edge_w", "arc_src", "arc_dst", "arc_w",
                "indptr", "degrees")


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
    """The manifest entry of graph ``index``."""
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


def manifest(count: int = COUNT) -> dict:
    return {"seed": SEED, "graphs": [solve(k) for k in range(count)]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="a new or empty directory for exact_corpus.json")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if os.listdir(args.out):
        parser.error(f"{args.out} is not empty")
    result = manifest()
    with open(os.path.join(args.out, MANIFEST), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    graphs = result["graphs"]
    print(f"exact_corpus: graphs={len(graphs)} "
          f"solves={sum(r['solves'] for r in graphs)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
