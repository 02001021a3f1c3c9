from __future__ import annotations

from pathlib import Path

import pytest

from fairdsg.cli import RUN_ALGORITHMS, main
from fairdsg.graph import Coloring, LabeledGraph
from fairdsg.ingest import load_edgelist, save_edgelist
from fairdsg.report import read_csv

GML = """
graph [
  node [ id 0 label "a" value "l" ]
  node [ id 1 label "b" value "c" ]
  node [ id 2 label "c" value "n" ]
  node [ id 3 label "d" value "liberal" ]
  node [ id 4 label "e" value "conservative" ]
  edge [ source 0 target 1 ]
  edge [ source 1 target 2 ]
  edge [ source 0 target 3 ]
  edge [ source 3 target 4 ]
  edge [ source 1 target 4 ]
]
"""

JSONL = "\n".join([
    '{"asin": "A1", "main_cat": "Books", "also_buy": ["A2", "A3"]}',
    '{"asin": "A2", "main_cat": "Music", "also_buy": ["A1"]}',
    '{"asin": "A3", "main_cat": "Music", "also_buy": []}',
    '{"asin": "A4", "main_cat": "Books", "also_buy": ["A2"]}',
    'garbage line',
])


@pytest.fixture
def small_graph_file(tmp_path) -> str:
    g = LabeledGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4),
                                    (3, 5), (4, 5), (1, 4)])
    c = Coloring.from_labels("RBRBRB")
    path = tmp_path / "g.el"
    save_edgelist(g, c, str(path))
    return str(path)


def _rows(path: str):
    with open(path, encoding="utf-8") as handle:
        return read_csv(handle)


def test_run_all_algorithms(small_graph_file, tmp_path):
    for algorithm in ("ss", "fss", "ps", "fps", "2dfsg", "exact", "oracle"):
        out = tmp_path / f"{algorithm}.csv"
        code = main(["run", "--input", small_graph_file, "--algorithm", algorithm,
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        manifest, rows = _rows(str(out))
        assert manifest.algorithm == algorithm
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == algorithm
        assert row["n"] == "6"
        assert 0.0 <= float(row["normalized_density"]) <= 1.0 + 1e-9
        assert row["runtime_ms"] == ""
        if algorithm in ("ps", "fps"):
            assert row["status"] in ("Found", "NoFeasiblePrefix")
        if algorithm == "exact":
            assert float(row["normalized_density"]) == 1.0


def test_run_is_byte_deterministic(small_graph_file, tmp_path):
    out = tmp_path / "r.csv"
    argv = ["run", "--input", small_graph_file, "--algorithm", "fss",
            "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    first = Path(out).read_bytes()
    assert main(argv) == 0
    assert Path(out).read_bytes() == first


def test_run_timings_flag(small_graph_file, tmp_path):
    out = tmp_path / "t.csv"
    assert main(["run", "--input", small_graph_file, "--algorithm", "ps",
                 "--timings", "wall", "--out", str(out)]) == 0
    _, rows = _rows(str(out))
    assert float(rows[0]["runtime_ms"]) >= 0.0


def test_seed_env_fallback(small_graph_file, tmp_path, monkeypatch):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    monkeypatch.setenv("FAIRDSG_SEED", "17")
    assert main(["run", "--input", small_graph_file, "--algorithm", "fss",
                 "--out", str(out1)]) == 0
    _, rows_env = _rows(str(out1))
    monkeypatch.delenv("FAIRDSG_SEED")
    assert main(["run", "--input", small_graph_file, "--algorithm", "fss",
                 "--seed", "17", "--out", str(out2)]) == 0
    _, rows_flag = _rows(str(out2))
    assert rows_env[0]["seed"] == rows_flag[0]["seed"] == "17"
    assert rows_env[0]["density"] == rows_flag[0]["density"]

    monkeypatch.setenv("FAIRDSG_SEED", "not-a-number")
    assert main(["run", "--input", small_graph_file, "--algorithm", "fss",
                 "--out", str(out1)]) == 2


def test_usage_and_data_errors(small_graph_file, tmp_path, capsys):
    assert main(["run", "--input", small_graph_file]) == 1  # missing flag
    assert main(["run", "--input", small_graph_file, "--algorithm", "nope",
                 "--out", str(tmp_path / "x.csv")]) == 1  # bad choice
    assert main(["frobnicate"]) == 1  # unknown command
    assert main(["run", "--input", str(tmp_path / "missing.el"),
                 "--algorithm", "ss", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_run_rejects_nan_edge_weight(tmp_path, capsys):
    path = tmp_path / "nan.el"
    path.write_text("3 2 1\nRRB\n0 1 1.0\n1 2 nan\n", encoding="utf-8")
    assert main(["run", "--input", str(path), "--algorithm", "fss",
                 "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "edge (1, 2) has non-finite weight nan" in err
    assert not (tmp_path / "o.csv").exists()


def test_run_rejects_nan_or_negative_delta(small_graph_file, tmp_path, capsys):
    for algorithm in ("ss", "fss"):
        for delta in ("nan", "-1"):
            assert main(["run", "--input", small_graph_file, "--algorithm", algorithm,
                         "--delta", delta, "--out", str(tmp_path / "o.csv")]) == 2
            assert "delta must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_run_rejects_nan_or_infinite_tol(small_graph_file, tmp_path, capsys):
    for tol in ("nan", "inf"):
        assert main(["run", "--input", small_graph_file, "--algorithm", "fps",
                     "--tol", tol, "--out", str(tmp_path / "o.csv")]) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_run_2dfsg_solves_the_optimum_once(small_graph_file, tmp_path,
                                            monkeypatch):
    import fairdsg.cli
    import fairdsg.flow
    calls = []
    solve = fairdsg.flow.exact_densest_subgraph

    def counted(g):
        calls.append(g.n)
        return solve(g)

    monkeypatch.setattr(fairdsg.cli, "exact_densest_subgraph", counted)
    monkeypatch.setattr(fairdsg.flow, "exact_densest_subgraph", counted)
    assert main(["run", "--input", small_graph_file, "--algorithm", "2dfsg",
                 "--out", str(tmp_path / "o.csv")]) == 0
    assert calls == [6]


def test_run_ss_on_all_red_graph_reports_no_feasible_prefix(tmp_path):
    g = LabeledGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    c = Coloring.from_labels("RRR")
    path = tmp_path / "red.el"
    save_edgelist(g, c, str(path))
    out = tmp_path / "red.csv"
    assert main(["run", "--input", str(path), "--algorithm", "ss",
                 "--delta", "0", "--out", str(out)]) == 0
    _, rows = _rows(str(out))
    assert rows[0]["status"] == "NoFeasiblePrefix"
    assert rows[0]["normalized_density"] == "0"
    assert rows[0]["fair"] == "false"


def test_zero_optimum_is_data_error(tmp_path):
    g = LabeledGraph.from_edges(2, [])
    c = Coloring.from_labels("RB")
    path = tmp_path / "empty.el"
    save_edgelist(g, c, str(path))
    assert main(["run", "--input", str(path), "--algorithm", "ss",
                 "--out", str(tmp_path / "o.csv")]) == 2


@pytest.mark.parametrize("labels", ["RB", "R"])
def test_2dfsg_on_edgeless_and_one_node_graphs(tmp_path, capsys, labels):
    # run reports the zero optimum like every other algorithm; pareto
    # emits the optimum's single point
    path = tmp_path / "edgeless.el"
    save_edgelist(LabeledGraph.from_edges(len(labels), []),
                  Coloring.from_labels(labels), str(path))
    assert main(["run", "--input", str(path), "--algorithm", "2dfsg",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "zero unconstrained optimum" in capsys.readouterr().err
    out = tmp_path / "p.csv"
    assert main(["pareto", "--input", str(path), "--algorithms", "2dfsg",
                 "--out", str(out)]) == 0
    _, rows = _rows(str(out))
    assert [r["algorithm"] for r in rows] == ["2dfsg"]


def test_ingest_polbooks_command(tmp_path, capsys):
    gml = tmp_path / "books.gml"
    gml.write_text(GML, encoding="utf-8")
    out = tmp_path / "books.el"
    assert main(["ingest-polbooks", "--input", str(gml), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "kept_nodes=4" in captured.out
    g, c = load_edgelist(str(out))
    assert g.n == 4
    assert (c.n_red, c.n_blue) == (2, 2)
    assert g.num_edges == 4  # the one edge through the neutral node is gone


def test_ingest_amazon_command(tmp_path):
    src = tmp_path / "meta.jsonl"
    src.write_text(JSONL, encoding="utf-8")
    out_dir = tmp_path / "pairs"
    assert main(["ingest-amazon", "--input", str(src), "--out-dir", str(out_dir),
                 "--min-nodes", "2"]) == 0
    manifest, index = _rows(str(out_dir / "index.csv"))
    assert manifest.command == "ingest-amazon"
    assert [row["pair"] for row in index] == ["Books__Music"]
    row = index[0]
    g, c = load_edgelist(str(out_dir / row["file"]))
    assert g.n == int(row["n"])
    assert c.n_red == int(row["n_red"])


def test_planted_command_and_jobs_equivalence(tmp_path):
    out1 = tmp_path / "p1.csv"
    base = ["planted", "--n", "60", "--m", "10", "--d", "9", "--eps", "0",
            "--p-bg", "0.02", "--seeds", "3", "--seed", "5"]
    assert main(base + ["--out", str(out1)]) == 0
    _, rows = _rows(str(out1))
    assert len(rows) == 3
    assert {row["seed"] for row in rows} == {"5", "6", "7"}
    for row in rows:
        assert set(row) >= {"error", "error_bound", "chi_dist_sq", "chi_bound"}

    out2 = tmp_path / "p2.csv"
    assert main(base + ["--jobs", "2", "--out", str(out2)]) == 0
    _, rows_parallel = _rows(str(out2))
    assert rows_parallel == rows


def test_planted_jobs_capped_by_seeds(tmp_path, monkeypatch, capsys):
    import concurrent.futures
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    base = ["planted", "--n", "40", "--m", "8", "--d", "7", "--seed", "3"]
    assert main(base + ["--seeds", "3", "--jobs", "64",
                        "--out", str(tmp_path / "a.csv")]) == 0
    assert pools == [3]
    assert main(base + ["--seeds", "1", "--jobs", "64",
                        "--out", str(tmp_path / "b.csv")]) == 0
    assert pools == [3]  # one instance runs without a pool
    capsys.readouterr()
    for jobs in ("0", "-2"):
        assert main(base + ["--jobs", jobs, "--out", str(tmp_path / "c.csv")]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_run_rejects_nonpositive_max_iters(small_graph_file, tmp_path, capsys):
    assert main(["run", "--input", small_graph_file, "--algorithm", "fss",
                 "--max-iters", "0", "--out", str(tmp_path / "o.csv")]) == 2
    assert "max_iters must be at least 1" in capsys.readouterr().err


def test_planted_rejects_bad_delta_policy(tmp_path, monkeypatch, capsys):
    import fairdsg.cli

    def no_generate(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(fairdsg.cli, "generate", no_generate)
    for policy, message in (("nan", "--delta-policy must be 'bound' or a non-negative"),
                            ("-0.5", "--delta-policy must be 'bound' or a non-negative"),
                            ("loose", "could not convert string to float")):
        assert main(["planted", "--n", "40", "--m", "8", "--d", "7",
                     "--delta-policy", policy, "--out", str(tmp_path / "p.csv")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_planted_save_instances(tmp_path):
    out = tmp_path / "p.csv"
    inst_dir = tmp_path / "instances"
    assert main(["planted", "--n", "40", "--m", "8", "--d", "7", "--seeds", "2",
                 "--seed", "9", "--save-instances", str(inst_dir),
                 "--out", str(out)]) == 0
    for seed in (9, 10):
        g, c = load_edgelist(str(inst_dir / f"planted_{seed}.el"))
        assert g.n == 40
        nodes = [int(x) for x in
                 (inst_dir / f"planted_{seed}.nodes").read_text().split()]
        assert len(nodes) == 8
        reds = sum(1 for v in nodes if c.codes[v] == 0)
        assert reds == 4  # the hidden set is fair


def test_pareto_command(small_graph_file, tmp_path):
    out = tmp_path / "front.csv"
    assert main(["pareto", "--input", small_graph_file,
                 "--algorithms", "ss,fss,ps,fps,2dfsg", "--seed", "1",
                 "--out", str(out)]) == 0
    _, rows = _rows(str(out))
    algorithms = {row["algorithm"] for row in rows}
    assert algorithms == {"ss", "fss", "ps", "fps", "2dfsg"}
    for name in algorithms:
        densities = [float(r["density"]) for r in rows if r["algorithm"] == name]
        assert densities == sorted(densities, reverse=True)
    assert main(["pareto", "--input", small_graph_file, "--algorithms", "zz",
                 "--out", str(out)]) == 2


def test_pareto_validates_algorithms_before_any_solve(small_graph_file, tmp_path,
                                                     monkeypatch, capsys):
    import fairdsg.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating --algorithms")

    monkeypatch.setattr(fairdsg.cli, "exact_densest_subgraph", no_solve)
    monkeypatch.setattr(fairdsg.cli, "candidate_trace", no_solve)
    for algorithms, message in (("2dfsg,bogus", "unknown pareto algorithm 'bogus'"),
                                ("fss,2dfsg,zz", "unknown pareto algorithm 'zz'"),
                                (" , ", "--algorithms names no algorithm")):
        assert main(["pareto", "--input", small_graph_file, "--algorithms", algorithms,
                     "--out", str(tmp_path / "f.csv")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_summary_command(small_graph_file, tmp_path, capsys):
    paths = []
    for algorithm in ("ps", "fps"):
        out = tmp_path / f"{algorithm}.csv"
        assert main(["run", "--input", small_graph_file, "--algorithm", algorithm,
                     "--out", str(out)]) == 0
        paths.append(str(out))
    summary_out = tmp_path / "summary.csv"
    assert main(["summary", "--input", *paths, "--out", str(summary_out)]) == 0
    _, rows = _rows(str(summary_out))
    by_alg = {row["algorithm"]: row for row in rows}
    assert set(by_alg) == {"ps", "fps"}
    for row in rows:
        assert row["pct_unfair"] == "0"
        assert row["runs"] == "1"
    capsys.readouterr()


def test_summary_rejects_non_run_csv(tmp_path, capsys):
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("a,b\n1,2\n", encoding="utf-8")
    assert main(["summary", "--input", str(bogus),
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "not a run CSV" in capsys.readouterr().err


# Degenerate inputs as edge-list text: (color line, edge lines). Parallel
# lines stay in the file, and the overflow files cannot be built as graphs.
_K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
DEGENERATE = {
    "edgeless": ("RBR", []),
    "one_node": ("R", []),
    "one_color": ("RRRR", ["0 1 1.0", "0 2 1.0", "1 2 1.0", "2 3 1.0"]),
    "two_k4": ("RBRBRBRB", [f"{u + b} {v + b} 1.0" for b in (0, 4) for u, v in _K4]),
    "parallel": ("RBRB", ["0 1 1.0", "0 1 2.0", "1 2 1.0", "1 2 0.5", "2 3 1.0"]),
    "zero_weights": ("RBRB", ["0 1 0.0", "1 2 0.0", "2 3 0.0"]),
    "subnormal_weights": ("RBRB", ["0 1 5e-324", "1 2 5e-324", "2 3 5e-324"]),
    "overflow_one_edge": ("RB", ["0 1 1e308"]),
    "overflow_parallel": ("RB", ["0 1 1e308", "0 1 1e308"]),
    "overflow_path": ("RBR", ["0 1 1e308", "1 2 1e308"]),
}
ZERO_OPTIMUM = ("edgeless", "one_node", "zero_weights")
OVERFLOW = ("overflow_one_edge", "overflow_parallel", "overflow_path")
COMMANDS = [("run", "--algorithm", name) for name in RUN_ALGORITHMS] + [
    ("pareto", "--algorithms", "ss,fss,ps,fps,2dfsg")]


def _degenerate_file(tmp_path, name: str) -> str:
    labels, lines = DEGENERATE[name]
    path = tmp_path / f"{name}.el"
    path.write_text(f"{len(labels)} {labels.count('R')} {labels.count('B')}\n"
                    f"{labels}\n" + "".join(f"{line}\n" for line in lines),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_graphs_exit_0_or_2_without_traceback(tmp_path, capsys, name):
    path = _degenerate_file(tmp_path, name)
    for command in COMMANDS:
        code = main([*command, "--input", path, "--seed", "1",
                     "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err, (command, err)
        if name in OVERFLOW:
            # the doubled weight total overflows: rejected on load
            assert code == 2 and "twice that is not a finite float" in err
        elif name in ZERO_OPTIMUM:
            # run normalizes by the optimum; pareto needs no normalization
            assert code == (0 if command[0] == "pareto" else 2)
            if code:
                assert "zero unconstrained optimum" in err
        else:
            assert code == 0, (command, err)


def test_one_color_graph_statuses(tmp_path):
    path = _degenerate_file(tmp_path, "one_color")
    expected = {"ps": "NoFeasiblePrefix", "fps": "NoFeasiblePrefix",
                "oracle": "NoFeasiblePrefix", "2dfsg": "Unfair"}
    for algorithm, status in expected.items():
        out = tmp_path / f"{algorithm}.csv"
        assert main(["run", "--input", path, "--algorithm", algorithm,
                     "--out", str(out)]) == 0
        assert _rows(str(out))[1][0]["status"] == status


def test_fss_row_on_tied_top_eigenvalue_is_seed_independent(tmp_path):
    # two disjoint K4s: lambda1 = lambda2 = 3
    path = _degenerate_file(tmp_path, "two_k4")
    rows = []
    for seed in (1, 2, 3):
        out = tmp_path / f"fss{seed}.csv"
        assert main(["run", "--input", path, "--algorithm", "fss",
                     "--seed", str(seed), "--out", str(out)]) == 0
        row = _rows(str(out))[1][0]
        assert row.pop("seed") == str(seed)
        rows.append(row)
    assert rows[0] == rows[1] == rows[2]
    assert rows[0]["status"] == "Found" and rows[0]["sol_size"] == "4"
