"""Command-line surface: ingestion, algorithm runs, recovery reports, fronts.

Exit codes: 0 success, 1 usage error, 2 data error. Every output file starts
with a manifest comment recording the invocation, and all randomness flows
from --seed (default 0) and nothing else, so identical invocations produce
byte-identical files. Wall-clock timings are excluded from output unless
--timings wall is given, because they would break that determinism contract.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time
from dataclasses import asdict, fields

from . import __version__
from .flow import exact_densest_subgraph, two_dfsg, two_dfsg_candidates
from .ingest import (LINE_BREAK, IngestError, build_product_graph,
                     category_pair_subgraphs, load_edgelist, parse_amazon_jsonl,
                     parse_gml, polbooks_graph, save_edgelist)
from .oracle import ORACLE_MAX_N, brute_force_densest
from .planted import RECOVERY_ALGORITHMS, PlantedParams, generate, run_recovery
from .report import (RunManifest, SummaryRow, format_float, normalized_density,
                     pareto_front, read_csv, result_row, summarize, write_csv)
from .spectral import MAX_MATVECS, TOL, ConvergenceError
from .sweep import (SPECTRAL_ALGORITHMS, SolveStatus, candidate_trace,
                    make_record, run_algorithm)

RUN_ALGORITHMS = (*SPECTRAL_ALGORITHMS, "2dfsg", "exact", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative random seed (default: 0)")


@functools.cache
def _parser() -> _Parser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, since each call returns a fresh namespace."""
    parser = _Parser(prog="fairdsg",
                     description="Fair densest subgraph toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest-polbooks", help="GML books graph -> edge list")
    p.add_argument("--input", required=True, help="path to the GML file")
    p.add_argument("--out", required=True, help="output edge-list path")
    p.set_defaults(func=_cmd_ingest_polbooks)

    p = sub.add_parser("ingest-amazon",
                       help="JSON-lines metadata -> category-pair edge lists")
    p.add_argument("--input", required=True, help="path to the JSON-lines file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--min-nodes", type=int, default=100,
                   help="skip category pairs below this node count")
    p.set_defaults(func=_cmd_ingest_amazon)

    p = sub.add_parser("run", help="run one algorithm on an edge-list graph")
    p.add_argument("--input", required=True, help="edge-list path")
    p.add_argument("--algorithm", required=True, choices=RUN_ALGORITHMS)
    p.add_argument("--delta", type=float, default=0.0,
                   help="imbalance slack for ss/fss")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--timings", choices=("off", "wall"), default="off",
                   help="wall timings break byte determinism; default off")
    _add_seed_flag(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("planted", help="planted-instance recovery report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--p-bg", type=float, default=0.0)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of instances (base seed, base seed + 1, ...)")
    p.add_argument("--algorithm", choices=RECOVERY_ALGORITHMS, default="fss")
    p.add_argument("--require-hypotheses", action="store_true",
                   help="re-draw seeds until the measured hypotheses hold")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--save-instances", default=None, metavar="DIR",
                   help="also write each instance as DIR/planted_<seed>.el "
                        "plus the hidden set as .nodes")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_seed_flag(p)
    p.set_defaults(func=_cmd_planted)

    p = sub.add_parser("pareto", help="per-algorithm candidate Pareto fronts")
    p.add_argument("--input", required=True, help="edge-list path")
    p.add_argument("--algorithms", default="ss,fss,ps,fps",
                   help="comma list from ss,fss,ps,fps,2dfsg")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_seed_flag(p)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("summary", help="aggregate run CSVs per algorithm")
    p.add_argument("--input", required=True, nargs="+",
                   help="one or more run CSV paths")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_summary)
    return parser


def _manifest(args, command: str, inputs: list[str], *, algorithm: str | None = None,
              delta: float | None = None) -> RunManifest:
    return RunManifest(
        command=command, argv=tuple(args._argv), inputs=tuple(inputs),
        algorithm=algorithm, delta=delta,
        tol=TOL, max_iters=MAX_MATVECS,
        seed=getattr(args, "seed", 0), version=__version__)


def _cmd_ingest_polbooks(args) -> int:
    with open(args.input, encoding="utf-8") as handle:
        doc = parse_gml(handle.read())
    g, c = polbooks_graph(doc)
    manifest = _manifest(args, "ingest-polbooks", [args.input])
    save_edgelist(g, c, args.out, comments=[manifest.to_comment()])
    print(f"polbooks: raw_nodes={len(doc.nodes)} raw_edges={len(doc.edges)} "
          f"kept_nodes={g.n} red={c.n_red} blue={c.n_blue} edges={g.num_edges}")
    return 0


def _slugify(name: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower()
    return slug or "category"


def _cmd_ingest_amazon(args) -> int:
    if args.min_nodes < 1:
        raise ValueError("--min-nodes must be at least 1")
    with open(args.input, encoding="utf-8") as handle:
        columns, skipped = parse_amazon_jsonl(handle)
    graph, categories, stats = build_product_graph(columns)
    pairs = category_pair_subgraphs(graph, categories, min_nodes=args.min_nodes)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = _manifest(args, "ingest-amazon", [args.input])
    written: set[str] = set()
    index_rows = []
    for pair in pairs:
        # a slug already written gets the smallest free suffix _1, _2, ...
        base = slug = _slugify(pair.name)
        k = 0
        while slug in written:
            k += 1
            slug = f"{base}_{k}"
        written.add(slug)
        path = os.path.join(args.out_dir, f"{slug}.el")
        save_edgelist(pair.graph, pair.coloring, path,
                      comments=[manifest.to_comment(),
                                "pair: " + LINE_BREAK.sub(" ", pair.name)])
        index_rows.append({
            "pair": pair.name, "red_category": pair.red_category,
            "blue_category": pair.blue_category, "file": f"{slug}.el",
            "n": pair.graph.n, "n_red": pair.coloring.n_red,
            "n_blue": pair.coloring.n_blue, "edges": pair.graph.num_edges})
    index_path = os.path.join(args.out_dir, "index.csv")
    with open(index_path, "w", encoding="utf-8") as handle:
        write_csv(handle, ["pair", "red_category", "blue_category", "file",
                           "n", "n_red", "n_blue", "edges"],
                  index_rows, manifest)
    print(f"amazon: records={stats.n_records} skipped_lines={skipped} "
          f"nodes={graph.n} edges={graph.num_edges} pairs={len(pairs)} "
          f"duplicate_asins={stats.n_duplicate_asins} "
          f"missing_refs={stats.n_missing_refs} self_refs={stats.n_self_refs}")
    return 0


def _cmd_run(args) -> int:
    g, c = load_edgelist(args.input)
    name = args.algorithm
    if name == "oracle" and g.n > ORACLE_MAX_N:
        raise ValueError(f"oracle supports at most {ORACLE_MAX_N} nodes, got {g.n}")
    # the exact solve is part of 2dfsg and exact; the others use it only to
    # normalize their result, so their time starts after it
    t0 = time.perf_counter()
    optimum = exact_densest_subgraph(g)
    if name not in ("2dfsg", "exact"):
        t0 = time.perf_counter()
    if name in SPECTRAL_ALGORITHMS:
        record = run_algorithm(name, g, c, delta=args.delta, seed=args.seed)
    elif name == "2dfsg":
        record = two_dfsg(g, c, optimum.node_set)
    elif name == "exact":
        record = make_record(g, c, optimum.node_set, SolveStatus.FOUND)
    else:  # oracle: exact fair optimum by enumeration
        res = brute_force_densest(g, c)
        status = SolveStatus.FOUND if res.feasible else SolveStatus.NO_FEASIBLE_PREFIX
        record = make_record(g, c, res.node_set, status)
    runtime_s = time.perf_counter() - t0
    nd = normalized_density(record, optimum=optimum.density)
    manifest = _manifest(args, "run", [args.input], algorithm=name,
                         delta=args.delta)
    row = result_row(name, record, instance=args.input, g=g, c=c, normalized=nd,
                     seed=args.seed,
                     runtime_s=runtime_s if args.timings == "wall" else None)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, list(row), [row], manifest)
    print(f"{name}: status={record.status.value} size={record.size} "
          f"density={format_float(record.density)} "
          f"balance={format_float(record.balance)} "
          f"normalized={format_float(nd)}")
    return 0


# distinct instances stay distinct while retrying hypotheses
_RETRY_STRIDE = 1_000_003

# the thread-count variables of OpenBLAS, OpenMP and MKL
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _planted_row(args, base_seed: int) -> dict[str, object]:
    """One ``planted`` row, keyed by column in order: the instance drawn from
    ``base_seed`` (re-drawn while --require-hypotheses fails), its recovery."""
    attempts = 100 if args.require_hypotheses else 1
    instance = None
    seed_used = base_seed
    for attempt in range(attempts):
        seed_used = base_seed + attempt * _RETRY_STRIDE
        params = PlantedParams(n=args.n, m=args.m, d=args.d, eps=args.eps,
                               p_bg=args.p_bg, seed=seed_used)
        instance = generate(params)
        if instance.measured.hypotheses_hold or not args.require_hypotheses:
            break
    else:
        raise ValueError(f"no instance with holding hypotheses found for seed "
                         f"{base_seed} after {attempts} attempts")
    if args.save_instances is not None:
        stem = os.path.join(args.save_instances, f"planted_{seed_used}")
        save_edgelist(instance.graph, instance.coloring, f"{stem}.el",
                      comments=[f"planted instance seed={seed_used} n={args.n} "
                                f"m={args.m} d={args.d} eps={args.eps!r} "
                                f"p_bg={args.p_bg!r}"])
        with open(f"{stem}.nodes", "w", encoding="utf-8") as handle:
            for node in instance.planted_set:
                handle.write(f"{node}\n")
    report = run_recovery(instance, args.algorithm)
    meas = instance.measured
    return {
        "seed": base_seed, "seed_used": seed_used, "n": args.n, "m": args.m,
        "d": args.d, "eps": args.eps, "p_bg": args.p_bg,
        "hypotheses_hold": meas.hypotheses_hold, "vacuous": report.vacuous,
        "lambda1": meas.lambda1, "lambda2": meas.lambda2,
        "lambda_n": meas.lambda_n, "lambda": meas.lam, "d_max": meas.d_max,
        "theta": meas.theta, "eps_measured": meas.eps_measured,
        "delta": report.delta, "sol_size": report.solution.size,
        "sol_density": report.solution.density, "error": report.error,
        "error_bound": report.error_bound, "error_ok": report.error_ok,
        "chi_dist_sq": report.chi_dist_sq, "chi_bound": report.chi_bound,
        "chi_ok": report.chi_ok,
    }


def _cmd_planted(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if args.save_instances is not None:
        os.makedirs(args.save_instances, exist_ok=True)
    row = functools.partial(_planted_row, args)
    seeds = range(args.seed, args.seed + args.seeds)
    workers = min(args.jobs, args.seeds)  # a pool starts every worker at once
    if workers > 1:
        # imported here, so that importing the CLI does not load them
        import concurrent.futures
        import multiprocessing
        # a forked worker inherits a BLAS pool of one thread per CPU, so the
        # workers are spawned, each told to start one BLAS thread
        saved = dict(os.environ)
        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("spawn")) as pool:
                rows = list(pool.map(row, seeds))
        except concurrent.futures.BrokenExecutor as exc:  # a worker died
            raise ValueError(str(exc)) from None
        finally:
            os.environ.clear()
            os.environ.update(saved)
    else:
        rows = list(map(row, seeds))
    manifest = _manifest(args, "planted", [], algorithm=args.algorithm)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, list(rows[0]), rows, manifest)
    held = sum(r["hypotheses_hold"] for r in rows)
    ok = sum(r["error_ok"] and r["chi_ok"] for r in rows)
    print(f"planted: instances={len(rows)} hypotheses_hold={held} both_bounds_ok={ok}")
    return 0


def _cmd_pareto(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    valid = (*SPECTRAL_ALGORITHMS, "2dfsg")
    if not algorithms:
        raise ValueError("--algorithms names no algorithm")
    for name in algorithms:
        if name not in valid:
            raise ValueError(f"unknown pareto algorithm {name!r}; "
                             f"choose from {', '.join(valid)}")
    g, c = load_edgelist(args.input)
    optimum = exact_densest_subgraph(g).node_set if "2dfsg" in algorithms else None
    rows = []
    for name in algorithms:
        if name == "2dfsg":
            size, dens, bal = two_dfsg_candidates(g, c, optimum)
        else:
            size, dens, bal = candidate_trace(name, g, c, seed=args.seed)
        front = pareto_front(dens, bal, size)
        for s, d, b in zip(size[front].tolist(), dens[front].tolist(),
                           bal[front].tolist()):
            rows.append({"algorithm": name, "density": d, "balance": b, "size": s})
    manifest = _manifest(args, "pareto", [args.input])
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, ["algorithm", "density", "balance", "size"], rows, manifest)
    print(f"pareto: algorithms={len(algorithms)} front_points={len(rows)}")
    return 0


def _cmd_summary(args) -> int:
    entries = []
    for path in args.input:
        try:  # every data error names its file
            with open(path, encoding="utf-8") as handle:
                _, rows = read_csv(handle)
            for row in rows:
                algorithm = row.get("algorithm")
                nd = row.get("normalized_density")
                status = row.get("status")
                if not algorithm or nd is None or status is None:
                    raise ValueError("not a run CSV (needs algorithm, "
                                     "normalized_density and status columns)")
                value = float(nd)
                if not 0.0 <= value < math.inf:
                    raise ValueError(f"normalized_density must be a finite number "
                                     f">= 0, got {nd!r}")
                entries.append((algorithm, value, status != SolveStatus.FOUND.value))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not entries:
        raise ValueError("no result rows found in the input files")
    manifest = _manifest(args, "summary", list(args.input))
    summary = summarize(entries)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, [f.name for f in fields(SummaryRow)],
                  map(asdict, summary), manifest)
    for s in summary:
        print(f"{s.algorithm}: runs={s.runs} pct_unfair={format_float(s.pct_unfair)} "
              f"nd_median={format_float(s.nd_median)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, --help/--version exit 0
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    args._argv = argv
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be non-negative")
        return args.func(args)
    except (IngestError, ConvergenceError, OSError, ValueError, MemoryError) as exc:
        # a MemoryError from numpy names the allocation, a bare one is empty
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
