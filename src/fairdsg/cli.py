"""Command-line surface: ingestion, algorithm runs, recovery reports, fronts.

Exit codes: 0 success, 1 usage error, 2 data error. Every output file starts
with a manifest comment recording the invocation, and all randomness flows
from --seed (falling back to the FAIRDSG_SEED environment variable), so
identical invocations produce byte-identical files. Wall-clock timings are
excluded from output unless --timings wall is given, because they would
break that determinism contract.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import os
import re
import sys
import time

from . import __version__
from .flow import exact_densest_subgraph, two_dfsg, two_dfsg_candidates
from .ingest import (IngestError, build_product_graph, category_pair_subgraphs,
                     load_edgelist, parse_amazon_jsonl, parse_gml,
                     polbooks_graph, save_edgelist)
from .oracle import ORACLE_MAX_N, OracleConstraint, brute_force_densest
from .planted import PlantedParams, generate, run_recovery
from .report import (RESULT_FIELDS, ParetoPoint, RunManifest, format_float,
                     normalized_density, pareto_front, read_csv, result_row,
                     summarize, write_csv)
from .spectral import ConvergenceError
from .sweep import (SPECTRAL_ALGORITHMS, SolveStatus, SweepConfig,
                    candidate_trace, make_record, run_algorithm)

RUN_ALGORITHMS = SPECTRAL_ALGORITHMS + ("2dfsg", "exact", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_eig_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-8,
                   help="eigensolver relative-residual tolerance")
    p.add_argument("--max-iters", type=int, default=100_000,
                   help="eigensolver matvec cap")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: $FAIRDSG_SEED or 0)")


def build_parser() -> _Parser:
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
    _add_eig_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("planted", help="planted-instance recovery report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--p-bg", type=float, default=0.0)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of instances (base seed, base seed + 1, ...)")
    p.add_argument("--algorithm", choices=("fss", "ss"), default="fss")
    p.add_argument("--delta-policy", default="bound",
                   help="'bound' for 16(eps+theta), or a fixed value")
    p.add_argument("--require-hypotheses", action="store_true",
                   help="re-draw seeds until the measured hypotheses hold")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--save-instances", default=None, metavar="DIR",
                   help="also write each instance as DIR/planted_<seed>.el "
                        "plus the hidden set as .nodes")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_eig_flags(p)
    p.set_defaults(func=_cmd_planted)

    p = sub.add_parser("pareto", help="per-algorithm candidate Pareto fronts")
    p.add_argument("--input", required=True, help="edge-list path")
    p.add_argument("--algorithms", default="ss,fss,ps,fps",
                   help="comma list from ss,fss,ps,fps,2dfsg")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_eig_flags(p)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("summary", help="aggregate run CSVs per algorithm")
    p.add_argument("--input", required=True, nargs="+",
                   help="one or more run CSV paths")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_summary)
    return parser


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is not None:
        return seed
    env = os.environ.get("FAIRDSG_SEED", "")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"FAIRDSG_SEED must be an integer, got {env!r}") from None
    return 0


def _manifest(args, command: str, inputs: list[str], *, algorithm: str | None = None,
              delta: float | None = None, seed: int = 0) -> RunManifest:
    return RunManifest(
        command=command, argv=tuple(args._argv), inputs=tuple(inputs),
        algorithm=algorithm, delta=delta,
        tol=getattr(args, "tol", 1e-8),
        max_iters=getattr(args, "max_iters", 100_000),
        seed=seed, version=__version__)


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
        records, skipped = parse_amazon_jsonl(handle)
    graph, categories, stats = build_product_graph(records)
    pairs = category_pair_subgraphs(graph, categories, min_nodes=args.min_nodes)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = _manifest(args, "ingest-amazon", [args.input])
    used: dict[str, int] = {}
    index_rows = []
    for pair in pairs:
        slug = _slugify(pair.name)
        if slug in used:
            used[slug] += 1
            slug = f"{slug}_{used[slug]}"
        else:
            used[slug] = 0
        path = os.path.join(args.out_dir, f"{slug}.el")
        save_edgelist(pair.graph, pair.coloring, path,
                      comments=[manifest.to_comment(), f"pair: {pair.name}"])
        index_rows.append({
            "pair": pair.name, "red_category": pair.red_category,
            "blue_category": pair.blue_category, "file": f"{slug}.el",
            "n": str(pair.graph.n), "n_red": str(pair.coloring.n_red),
            "n_blue": str(pair.coloring.n_blue),
            "edges": str(pair.graph.num_edges)})
    index_path = os.path.join(args.out_dir, "index.csv")
    with open(index_path, "w", encoding="utf-8") as handle:
        write_csv(handle, ["pair", "red_category", "blue_category", "file",
                           "n", "n_red", "n_blue", "edges"],
                  index_rows, manifest)
    print(f"amazon: records={stats.n_records} skipped_lines={skipped} "
          f"nodes={graph.n} edges={graph.num_edges} pairs={len(pairs)}")
    return 0


def _cmd_run(args) -> int:
    seed = _resolve_seed(args)
    g, c = load_edgelist(args.input)
    name = args.algorithm
    t0 = time.perf_counter()
    optimum = exact_densest_subgraph(g)
    optimum_elapsed = time.perf_counter() - t0
    if name in SPECTRAL_ALGORITHMS:
        cfg = SweepConfig(delta=args.delta, tol=args.tol,
                          max_iters=args.max_iters, seed=seed)
        record = run_algorithm(name, g, c, cfg)
    elif name == "2dfsg":
        record = two_dfsg(g, c, optimum.node_set)
        record = dataclasses.replace(
            record, runtime_s=optimum_elapsed + record.runtime_s)
    elif name == "exact":
        record = make_record("exact", g, c, optimum.node_set, SolveStatus.FOUND,
                             optimum_elapsed)
    else:  # oracle: exact fair optimum by enumeration
        if g.n > ORACLE_MAX_N:
            raise ValueError(f"oracle supports at most {ORACLE_MAX_N} nodes, "
                             f"got {g.n}")
        t0 = time.perf_counter()
        res = brute_force_densest(g, c, OracleConstraint.fair())
        status = SolveStatus.FOUND if res.feasible else SolveStatus.NO_FEASIBLE_PREFIX
        record = make_record("oracle", g, c, res.node_set, status,
                             time.perf_counter() - t0)
    nd = normalized_density(record, optimum=optimum.density)
    manifest = _manifest(args, "run", [args.input], algorithm=name,
                         delta=args.delta, seed=seed)
    row = result_row(record, instance=args.input, g=g, n_red=c.n_red,
                     n_blue=c.n_blue, normalized=nd, seed=seed,
                     include_runtime=args.timings == "wall")
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, RESULT_FIELDS, [row], manifest)
    print(f"{name}: status={record.status.value} size={record.size} "
          f"density={format_float(record.density)} "
          f"balance={format_float(record.balance)} "
          f"normalized={format_float(nd)}")
    return 0


PLANTED_FIELDS = [
    "seed", "seed_used", "n", "m", "d", "eps", "p_bg",
    "hypotheses_hold", "vacuous", "lambda1", "lambda2", "lambda_n", "lambda",
    "d_max", "theta", "eps_measured", "delta", "sol_size", "sol_density",
    "error", "error_bound", "error_ok", "chi_dist_sq", "chi_bound", "chi_ok",
]

# distinct instances stay distinct while retrying hypotheses
_RETRY_STRIDE = 1_000_003


def _planted_row(task) -> dict[str, str]:
    (base_seed, n, m, d, eps, p_bg, algorithm, delta_policy, tol, max_iters,
     require, save_dir) = task
    attempts = 100 if require else 1
    instance = None
    seed_used = base_seed
    for attempt in range(attempts):
        seed_used = base_seed + attempt * _RETRY_STRIDE
        params = PlantedParams(n=n, m=m, d=d, eps=eps, p_bg=p_bg, seed=seed_used)
        instance = generate(params, eig_tol=tol, eig_max_iters=max_iters)
        if instance.measured.hypotheses_hold or not require:
            break
    else:
        raise ValueError(f"no instance with holding hypotheses found for seed "
                         f"{base_seed} after {attempts} attempts")
    if save_dir is not None:
        save_edgelist(instance.graph, instance.coloring,
                      os.path.join(save_dir, f"planted_{seed_used}.el"),
                      comments=[f"planted instance seed={seed_used} n={n} "
                                f"m={m} d={d} eps={eps!r} p_bg={p_bg!r}"])
        nodes_path = os.path.join(save_dir, f"planted_{seed_used}.nodes")
        with open(nodes_path, "w", encoding="utf-8") as handle:
            for node in instance.planted_set:
                handle.write(f"{node}\n")
    report = run_recovery(instance, algorithm, delta_policy,
                          eig_tol=tol, eig_max_iters=max_iters)
    meas = instance.measured
    return {
        "seed": str(base_seed), "seed_used": str(seed_used),
        "n": str(n), "m": str(m), "d": str(d),
        "eps": format_float(eps), "p_bg": format_float(p_bg),
        "hypotheses_hold": str(meas.hypotheses_hold).lower(),
        "vacuous": str(report.vacuous).lower(),
        "lambda1": format_float(meas.lambda1),
        "lambda2": format_float(meas.lambda2),
        "lambda_n": format_float(meas.lambda_n),
        "lambda": format_float(meas.lam),
        "d_max": format_float(meas.d_max),
        "theta": format_float(meas.theta),
        "eps_measured": format_float(meas.eps_measured),
        "delta": format_float(report.delta),
        "sol_size": str(report.solution.size),
        "sol_density": format_float(report.solution.density),
        "error": str(report.error),
        "error_bound": format_float(report.error_bound),
        "error_ok": str(report.error_ok).lower(),
        "chi_dist_sq": format_float(report.chi_dist_sq),
        "chi_bound": format_float(report.chi_bound),
        "chi_ok": str(report.chi_ok).lower(),
    }


def _cmd_planted(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    base = _resolve_seed(args)
    policy = args.delta_policy
    if policy != "bound":
        policy = float(policy)
    if args.save_instances is not None:
        os.makedirs(args.save_instances, exist_ok=True)
    tasks = [(base + i, args.n, args.m, args.d, args.eps, args.p_bg,
              args.algorithm, policy, args.tol, args.max_iters,
              args.require_hypotheses, args.save_instances)
             for i in range(args.seeds)]
    workers = min(args.jobs, len(tasks))  # a pool starts every worker at once
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_planted_row, tasks))
    else:
        rows = [_planted_row(t) for t in tasks]
    manifest = _manifest(args, "planted", [], algorithm=args.algorithm, seed=base)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, PLANTED_FIELDS, rows, manifest)
    held = sum(1 for r in rows if r["hypotheses_hold"] == "true")
    ok = sum(1 for r in rows if r["error_ok"] == "true" and r["chi_ok"] == "true")
    print(f"planted: instances={len(rows)} hypotheses_hold={held} both_bounds_ok={ok}")
    return 0


def _cmd_pareto(args) -> int:
    seed = _resolve_seed(args)
    g, c = load_edgelist(args.input)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    valid = SPECTRAL_ALGORITHMS + ("2dfsg",)
    optimum = exact_densest_subgraph(g).node_set if "2dfsg" in algorithms else None
    rows = []
    for name in algorithms:
        if name not in valid:
            raise ValueError(f"unknown pareto algorithm {name!r}; "
                             f"choose from {', '.join(valid)}")
        if name == "2dfsg":
            trace = two_dfsg_candidates(g, c, optimum)
        else:
            cfg = SweepConfig(tol=args.tol, max_iters=args.max_iters, seed=seed)
            trace = candidate_trace(name, g, c, cfg)
        points = [ParetoPoint(density=d, balance=b, size=s, algorithm=name)
                  for s, d, b in trace]
        for p in pareto_front(points):
            rows.append({"algorithm": name, "density": format_float(p.density),
                         "balance": format_float(p.balance), "size": str(p.size)})
    manifest = _manifest(args, "pareto", [args.input], seed=seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, ["algorithm", "density", "balance", "size"], rows, manifest)
    print(f"pareto: algorithms={len(algorithms)} front_points={len(rows)}")
    return 0


def _cmd_summary(args) -> int:
    entries = []
    for path in args.input:
        with open(path, encoding="utf-8") as handle:
            _, rows = read_csv(handle)
        for row in rows:
            algorithm = row.get("algorithm")
            nd = row.get("normalized_density")
            status = row.get("status")
            if not algorithm or nd is None or status is None:
                raise ValueError(f"{path}: not a run CSV (needs algorithm, "
                                 f"normalized_density and status columns)")
            entries.append((algorithm, float(nd),
                            status != SolveStatus.FOUND.value))
    if not entries:
        raise ValueError("no result rows found in the input files")
    manifest = _manifest(args, "summary", list(args.input))
    out_rows = [{
        "algorithm": s.algorithm, "runs": str(s.runs),
        "pct_unfair": format_float(s.pct_unfair),
        "nd_median": format_float(s.nd_median),
        "nd_q1": format_float(s.nd_q1),
        "nd_q3": format_float(s.nd_q3),
    } for s in summarize(entries)]
    with open(args.out, "w", encoding="utf-8") as handle:
        write_csv(handle, ["algorithm", "runs", "pct_unfair", "nd_median",
                           "nd_q1", "nd_q3"], out_rows, manifest)
    for row in out_rows:
        print(f"{row['algorithm']}: runs={row['runs']} "
              f"pct_unfair={row['pct_unfair']} nd_median={row['nd_median']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, --help/--version exit 0
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    args._argv = argv
    try:
        return args.func(args)
    except (IngestError, ConvergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
