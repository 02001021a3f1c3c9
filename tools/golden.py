"""Byte-identity manifest of the fairdsg CLI.

Runs one fixed list of CLI commands through ``fairdsg.cli.main`` and writes
``DIR/golden.json``: the SHA-256 of every file in DIR (the inputs the tool
writes and every output), and each command's argv, stdout, stderr and exit
code, as one sorted JSON document. DIR is the working directory of every
command and every path is relative, so the manifest comments in the outputs
name no tree-specific path and two trees compare equal file for file.

fairdsg is imported from ``PYTHONPATH``, so the tool runs any tree's
``src/``. To check that a change keeps every output byte of its parent::

    PYTHONPATH=parent/src python tools/golden.py --out before
    PYTHONPATH=src python tools/golden.py --out after
    diff before/golden.json after/golden.json

The list:

* ``run`` with ss, fss, ps, fps, 2dfsg and exact, and ``pareto`` of all
  five, on the run-10k seed-1 planted graph and on a seeded weighted 60-node
  graph that the tool writes itself;
* ``planted --save-instances``: fss on (n, m, d, eps, p_bg) = (2000, 400,
  64, 0.05, 0.001) and ss on (300, 40, 30, 0.1, 0.01), 3 seeds each, at
  ``--jobs 1`` and ``--jobs 2``, plus one ``--require-hypotheses`` case
  whose seeds are re-drawn;
* for the synthetic product corpora of seeds 1-3 (``perfbench/corpus.py``):
  ``ingest-amazon``, then ``run`` fps, 2dfsg and exact on every category
  pair, then ``summary``.

The 80 commands take about 3.5 s on a 2-vCPU host; ``--jobs 2`` spawns two
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

from fairdsg.cli import main as cli_main

CORPUS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
MANIFEST = "golden.json"
RUN_ALGORITHMS = ("ss", "fss", "ps", "fps", "2dfsg", "exact")
PARETO_ALGORITHMS = "ss,fss,ps,fps,2dfsg"
# (algorithm, n, m, d, eps, p_bg, extra flags) of the planted reports
PLANTED = (("fss", 2000, 400, 64, 0.05, 0.001, ()),
           ("ss", 300, 40, 30, 0.1, 0.01, ()),
           ("fss", 150, 20, 15, 0.1, 0.002, ("--require-hypotheses",)))


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
    for stem in ("run10k", "weighted60"):
        for algorithm in RUN_ALGORITHMS:
            yield ["run", "--input", f"{stem}.el", "--algorithm", algorithm,
                   "--seed", "1", "--out", f"{stem}_{algorithm}.csv"]
        yield ["pareto", "--input", f"{stem}.el", "--algorithms", PARETO_ALGORITHMS,
               "--seed", "1", "--out", f"{stem}_pareto.csv"]

    for k, (algorithm, n, m, d, eps, p_bg, extra) in enumerate(PLANTED):
        for jobs in ("1", "2"):
            stem = f"planted{k}_jobs{jobs}"
            yield ["planted", "--n", str(n), "--m", str(m), "--d", str(d),
                   "--eps", str(eps), "--p-bg", str(p_bg), "--algorithm", algorithm,
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="a new or empty directory for the inputs, the "
                             "outputs and golden.json")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if os.listdir(args.out):
        parser.error(f"{args.out} is not empty")
    manifest = run(commands(), args.out)
    with open(os.path.join(args.out, MANIFEST), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum(record["code"] != 0 for record in manifest["commands"])
    print(f"golden: commands={len(manifest['commands'])} failed={failed} "
          f"files={len(manifest['files'])}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
