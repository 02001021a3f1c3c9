from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairdsg
from fairdsg.cli import RUN_ALGORITHMS, main
from fairdsg.graph import Coloring, LabeledGraph
from fairdsg.ingest import read_edgelist, save_edgelist
from fairdsg.planted import RECOVERY_ALGORITHMS
from fairdsg.report import RunManifest, format_float, read_csv
from fairdsg.sweep import SPECTRAL_ALGORITHMS, SolveStatus

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


def test_run_runtime_counts_the_exact_solve_for_2dfsg_and_exact_only(
        small_graph_file, tmp_path, monkeypatch):
    # a fake clock that only the exact solve advances, by 1000 s
    import fairdsg.cli as cli
    now = [0.0]
    solve = cli.exact_densest_subgraph

    def slow_solve(g):
        now[0] += 1000.0
        return solve(g)

    monkeypatch.setattr(cli.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(cli, "exact_densest_subgraph", slow_solve)
    for algorithm, counted in (("2dfsg", True), ("exact", True),
                               ("fss", False), ("oracle", False)):
        out = tmp_path / f"{algorithm}.csv"
        assert main(["run", "--input", small_graph_file, "--algorithm", algorithm,
                     "--timings", "wall", "--out", str(out)]) == 0
        runtime_ms = float(_rows(str(out))[1][0]["runtime_ms"])
        assert (runtime_ms >= 1e6) == counted, algorithm


def test_seed_comes_from_argv_only(small_graph_file, tmp_path, monkeypatch):
    # an environment variable named like a seed is not an input
    argv = ["run", "--input", small_graph_file, "--algorithm", "fss"]
    assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    plain = (tmp_path / "plain.csv").read_text(encoding="utf-8")
    assert _rows(str(tmp_path / "plain.csv"))[1][0]["seed"] == "0"
    for value in ("17", "not-a-number"):
        monkeypatch.setenv("FAIRDSG_SEED", value)
        out = tmp_path / f"env_{value}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == plain.replace(
            str(tmp_path / "plain.csv"), str(out))


def _fresh_process(*code: str, argv: list[str] = ()) -> subprocess.CompletedProcess:
    """Run the Python lines ``code`` in a new interpreter that imports this
    checkout's fairdsg, with ``argv`` as its arguments."""
    import fairdsg
    env = dict(os.environ, PYTHONPATH=str(Path(fairdsg.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", "\n".join(code), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_process_pool_modules():
    done = _fresh_process(
        "import sys", "import fairdsg.cli",
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')"
        " if m in sys.modules))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_the_shared_parser_carries_nothing_between_calls(small_graph_file,
                                                         tmp_path):
    argv = ["run", "--input", small_graph_file, "--algorithm", "fss"]
    first, second = str(tmp_path / "first.csv"), str(tmp_path / "second.csv")
    assert main(argv + ["--delta", "0.5", "--seed", "3", "--out", first]) == 0
    assert main(argv + ["--out", second]) == 0
    assert (_rows(first)[0].delta, _rows(first)[0].seed) == (0.5, 3)
    assert (_rows(second)[0].delta, _rows(second)[0].seed) == (0.0, 0)

    out = tmp_path / "after.csv"
    valid = argv + ["--seed", "1", "--out", str(out)]
    fresh = _fresh_process("import sys", "from fairdsg.cli import main",
                           "sys.exit(main(sys.argv[1:]))", argv=valid)
    assert fresh.returncode == 0, fresh.stderr
    expected = out.read_bytes()
    for before, code in ((["run", "--input", small_graph_file], 1),
                         (["--version"], 0)):
        out.unlink()
        assert main(before) == code
        assert main(valid) == 0
        assert out.read_bytes() == expected, before


def test_usage_and_data_errors(small_graph_file, tmp_path, capsys):
    assert main(["run", "--input", small_graph_file]) == 1  # missing flag
    assert main(["run", "--input", small_graph_file, "--algorithm", "nope",
                 "--out", str(tmp_path / "x.csv")]) == 1  # bad choice
    assert main(["frobnicate"]) == 1  # unknown command
    assert main(["run", "--input", str(tmp_path / "missing.el"),
                 "--algorithm", "ss", "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["ingest-amazon", "--input", "{dir}/none.jsonl", "--out-dir",
                  "{dir}/pairs", "--min-nodes", "0"],
                 "--min-nodes must be at least 1", id="min-nodes 0"),
    pytest.param(["planted", "--n", "4", "--m", "2", "--d", "1", "--seeds", "0",
                  "--out", "{dir}/p.csv"], "--seeds must be at least 1", id="seeds 0"),
    # lambda_1 = 1 = |lambda_n| on every draw, so the hypotheses never hold
    pytest.param(["planted", "--n", "4", "--m", "2", "--d", "1",
                  "--require-hypotheses", "--out", "{dir}/p.csv"],
                 "no instance with holding hypotheses found for seed 0 after 100 "
                 "attempts", id="hypotheses never hold"),
    pytest.param(["summary", "--input", "{dir}/header_only.csv", "--out", "{dir}/s.csv"],
                 "no result rows found in the input files", id="summary of no rows"),
])
def test_argument_and_input_errors_exit_2_and_name_the_problem(tmp_path, capsys,
                                                               argv, message):
    (tmp_path / "header_only.csv").write_text("algorithm,normalized_density,status\n",
                                              encoding="utf-8")
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "s.csv").exists()


def test_run_rejects_nan_edge_weight(tmp_path, capsys):
    path = tmp_path / "nan.el"
    path.write_text("3 2 1\nRRB\n0 1 1.0\n1 2 nan\n", encoding="utf-8")
    assert main(["run", "--input", str(path), "--algorithm", "fss",
                 "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert "edge (1, 2) has non-finite weight nan" in err
    assert not (tmp_path / "o.csv").exists()


def test_run_rejects_nan_or_negative_delta(small_graph_file, tmp_path, capsys):
    for algorithm in ("ss", "fss", "ps", "fps"):
        for delta in ("nan", "-1"):
            assert main(["run", "--input", small_graph_file, "--algorithm", algorithm,
                         "--delta", delta, "--out", str(tmp_path / "o.csv")]) == 2
            assert "delta must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--algorithm", "fps", "--tol", "1e-6"],
    ["pareto", "--tol", "1e-6"],
    ["planted", "--n", "40", "--m", "8", "--d", "7", "--tol", "1e-6"],
    ["planted", "--n", "40", "--m", "8", "--d", "7", "--delta-policy", "bound"],
    ["planted", "--n", "40", "--m", "8", "--d", "7", "--eps", "0.1"],
], ids=["run-tol", "pareto-tol", "planted-tol", "planted-delta-policy",
        "planted-eps"])
def test_removed_options_are_usage_errors(small_graph_file, tmp_path, capsys, argv):
    # the eigensolver tolerance is spectral.TOL, planted's slack is always
    # 16 (eps + theta), and its planted subgraph is exactly d-regular
    command, rest = argv[0], argv[1:]
    if command != "planted":
        rest = ["--input", small_graph_file, *rest]
    assert main([command, *rest, "--out", str(tmp_path / "o.csv")]) == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--algorithm", "fss"],
    ["run", "--algorithm", "exact"],
    ["run", "--algorithm", "2dfsg"],
    ["pareto"],
    ["pareto", "--algorithms", "2dfsg"],
    ["planted", "--n", "40", "--m", "8", "--d", "7"],
], ids=["run-fss", "run-exact", "run-2dfsg", "pareto", "pareto-2dfsg", "planted"])
def test_negative_seed_rejected_before_any_input_is_read(
        small_graph_file, tmp_path, monkeypatch, capsys, argv):
    import fairdsg.cli

    def no_read(*args, **kwargs):
        raise AssertionError("an input was read or generated")

    monkeypatch.setattr(fairdsg.cli, "read_edgelist", no_read)
    monkeypatch.setattr(fairdsg.cli, "generate", no_read)
    command, rest = argv[0], argv[1:]
    if command != "planted":
        rest = ["--input", small_graph_file, *rest]
    assert main([command, *rest, "--seed", "-1",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == "error: --seed must be non-negative\n"
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



def test_run_oracle_rejects_a_large_graph_before_any_solve(tmp_path, capsys,
                                                          monkeypatch):
    import fairdsg.cli as cli
    from fairdsg.oracle import ORACLE_MAX_N

    def no_solve(g):
        raise AssertionError("exact solve ran before the oracle size check")

    monkeypatch.setattr(cli, "exact_densest_subgraph", no_solve)
    n = ORACLE_MAX_N + 1
    path = tmp_path / "big.el"
    save_edgelist(LabeledGraph.from_edges(n, [(u, u + 1) for u in range(n - 1)]),
                  Coloring.from_labels("RB" * (n // 2) + "R" * (n % 2)), str(path))
    out = tmp_path / "o.csv"
    assert main(["run", "--input", str(path), "--algorithm", "oracle",
                 "--out", str(out)]) == 2
    assert f"oracle supports at most {ORACLE_MAX_N} nodes, got {n}" \
        in capsys.readouterr().err
    assert not out.exists()

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
    g, c = read_edgelist(str(out))
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
    g, c = read_edgelist(str(out_dir / row["file"]))
    assert g.n == int(row["n"])
    assert c.n_red == int(row["n_red"])


def test_ingest_amazon_pair_files_with_line_breaks_in_categories_run(tmp_path):
    src = tmp_path / "meta.jsonl"
    src.write_text(JSONL.replace('"Books"', '"Bo\\noks"')
                   .replace('"Music"', '"Mu\\u2028sic"'), encoding="utf-8")
    out_dir = tmp_path / "pairs"
    assert main(["ingest-amazon", "--input", str(src), "--out-dir", str(out_dir),
                 "--min-nodes", "2"]) == 0
    _, index = _rows(str(out_dir / "index.csv"))
    assert [row["pair"] for row in index] == ["Bo\noks__Mu\u2028sic"]
    for row in index:
        path = str(out_dir / row["file"])
        assert "# pair: Bo oks__Mu sic\n" in Path(path).read_text(encoding="utf-8")
        assert main(["run", "--input", path, "--algorithm", "fps",
                     "--out", str(tmp_path / "run.csv")]) == 0


def test_ingest_amazon_prints_the_counts_it_drops(tmp_path, capsys):
    src = tmp_path / "meta.jsonl"
    src.write_text(JSONL + "\n" + "\n".join([
        '{"asin": "A5", "main_cat": "Music", "also_buy": ["A5", "ZZ", "A1"]}',
        '{"asin": "A1", "main_cat": "Music", "also_buy": ["A3"]}']) + "\n",
        encoding="utf-8")
    assert main(["ingest-amazon", "--input", str(src),
                 "--out-dir", str(tmp_path / "pairs"), "--min-nodes", "2"]) == 0
    assert capsys.readouterr().out == (
        "amazon: records=6 skipped_lines=1 nodes=5 edges=4 pairs=1 "
        "duplicate_asins=1 missing_refs=1 self_refs=1\n")


def test_ingest_amazon_keeps_categories_that_differ_by_a_trailing_nul(
        tmp_path, capsys):
    # "Toys" products link to every "Toys\0" and "Books" product
    cats = {"A": "Toys", "B": "Toys\u0000", "C": "Books"}
    src = tmp_path / "meta.jsonl"
    src.write_text("".join(
        json.dumps({"asin": f"{k}{i}", "main_cat": cat,
                    "also_buy": [f"{t}{j}" for t in "BC" for j in range(2)]
                    if k == "A" else []}) + "\n"
        for k, cat in cats.items() for i in range(2)), encoding="utf-8")
    out_dir = tmp_path / "pairs"
    assert main(["ingest-amazon", "--input", str(src), "--out-dir", str(out_dir),
                 "--min-nodes", "1"]) == 0
    assert "pairs=2" in capsys.readouterr().out.split()
    _, index = _rows(str(out_dir / "index.csv"))
    assert [row["pair"] for row in index] == ["Books__Toys", "Toys__Toys\x00"]
    for row in index:
        g, c = read_edgelist(str(out_dir / row["file"]))
        assert (g.n, c.n_red, c.n_blue, g.num_edges) == (4, 2, 2, 4)


def test_ingest_amazon_gives_every_pair_its_own_file(tmp_path):
    # "1__A 1" and "1__a" both slugify to 1_a_1, which "1__A 1" takes first
    cats = ["A", "a", "1", "A 1"]
    src = tmp_path / "meta.jsonl"
    src.write_text("".join(
        json.dumps({"asin": f"P{i}", "main_cat": cat,
                    "also_buy": [f"P{j}" for j in range(len(cats)) if j != i]}) + "\n"
        for i, cat in enumerate(cats)), encoding="utf-8")
    out_dir = tmp_path / "pairs"
    assert main(["ingest-amazon", "--input", str(src), "--out-dir", str(out_dir),
                 "--min-nodes", "1"]) == 0
    _, index = _rows(str(out_dir / "index.csv"))
    assert len(index) == 6
    assert len({row["file"] for row in index}) == 6
    assert sorted(p.name for p in out_dir.glob("*.el")) == sorted(
        row["file"] for row in index)
    assert {row["pair"]: row["file"] for row in index}["1__a"] == "1_a_2.el"
    for row in index:
        text = (out_dir / row["file"]).read_text(encoding="utf-8")
        assert f"# pair: {row['pair']}\n" in text


def test_planted_command_and_jobs_equivalence(tmp_path):
    out1 = tmp_path / "p1.csv"
    base = ["planted", "--n", "60", "--m", "10", "--d", "9",
            "--p-bg", "0.02", "--seeds", "3", "--seed", "5"]
    assert main(base + ["--out", str(out1)]) == 0
    _, rows = _rows(str(out1))
    assert len(rows) == 3
    assert list(rows[0]) == [
        "seed", "seed_used", "n", "m", "d", "p_bg", "hypotheses_hold", "vacuous",
        "lambda1", "lambda2", "lambda_n", "lambda", "d_max", "theta",
        "eps_measured", "delta", "sol_size", "sol_density", "error",
        "error_bound", "error_ok", "chi_dist_sq", "chi_bound", "chi_ok"]
    assert {row["seed"] for row in rows} == {"5", "6", "7"}
    for row in rows:
        assert set(row) >= {"error", "error_bound", "chi_dist_sq", "chi_bound"}

    out2 = tmp_path / "p2.csv"
    assert main(base + ["--jobs", "2", "--out", str(out2)]) == 0
    _, rows_parallel = _rows(str(out2))
    assert rows_parallel == rows


def test_require_hypotheses_redraws_until_they_hold(tmp_path):
    base = ["planted", "--n", "150", "--m", "20", "--d", "15",
            "--p-bg", "0.002", "--seed", "3", "--seeds", "2"]
    out = tmp_path / "p.csv"
    assert main(base + ["--out", str(out)]) == 0
    _, rows = _rows(str(out))
    assert [(r["seed"], r["seed_used"], r["hypotheses_hold"]) for r in rows] == [
        ("3", "3", "false"), ("4", "4", "false")]
    # the retries step by 1_000_003: seed 3 holds on its fourth draw, seed 4
    # on its third
    assert main(base + ["--require-hypotheses", "--out", str(out)]) == 0
    _, rows = _rows(str(out))
    assert [(r["seed"], r["seed_used"], r["hypotheses_hold"]) for r in rows] == [
        ("3", "3000012", "true"), ("4", "2000010", "true")]


def test_library_paths_never_take_numpys_hash_unique(tmp_path, monkeypatch):
    """numpy 2.4's plain ``np.unique`` on integers hashes, which is many times
    slower than the sort every set operation in fairdsg uses; no set routine
    that fairdsg calls (``unique``, ``isin``, ``setdiff1d``, ...) may reach
    the hash path. numpy's own uses pass: ``np.percentile`` takes ``unique``
    of a few partition indices."""
    impl = pytest.importorskip("numpy.lib._arraysetops_impl")
    if not hasattr(impl, "_unique_hash"):
        pytest.skip("this numpy has no hash unique")
    hash_unique = impl._unique_hash
    package = os.path.dirname(fairdsg.__file__) + os.sep

    def guarded(*args, **kwargs):
        frame = sys._getframe(1)
        while (frame.f_back is not None
               and not frame.f_back.f_code.co_filename.startswith(package)):
            frame = frame.f_back  # up to the numpy routine fairdsg called
        if frame.f_code.co_filename == impl.__file__:
            raise AssertionError(f"np.{frame.f_code.co_name} in "
                                 f"{frame.f_back.f_code.co_filename} hashed")
        return hash_unique(*args, **kwargs)

    monkeypatch.setattr(impl, "_unique_hash", guarded)
    rng = np.random.default_rng(4)
    cats = ["Books", "Music", "Toys"]
    src = tmp_path / "meta.jsonl"
    src.write_text("".join(json.dumps({
        "asin": f"A{k}", "main_cat": cats[k % 3],
        "also_buy": [f"A{j}" for j in rng.choice(60, 4).tolist()]}) + "\n"
        for k in range(60)), encoding="utf-8")
    pairs = tmp_path / "pairs"
    assert main(["ingest-amazon", "--input", str(src), "--out-dir", str(pairs),
                 "--min-nodes", "2"]) == 0
    graph_file = str(pairs / _rows(str(pairs / "index.csv"))[1][0]["file"])
    runs = []
    for algorithm in ("fss", "fps", "2dfsg", "exact"):
        runs.append(str(tmp_path / f"{algorithm}.csv"))
        assert main(["run", "--input", graph_file, "--algorithm", algorithm,
                     "--out", runs[-1]]) == 0
    assert main(["pareto", "--input", graph_file, "--algorithms",
                 "ss,fss,ps,fps,2dfsg", "--out", str(tmp_path / "front.csv")]) == 0
    assert main(["summary", "--input", *runs, "--out", str(tmp_path / "s.csv")]) == 0
    # m = 100 spreads the sampler's keys too wide for np.isin's lookup table;
    # d = 6 > (m - 1) / 2 samples the complement of a sparse graph
    for n, m, d in (("150", "100", "4"), ("40", "10", "6")):
        assert main(["planted", "--n", n, "--m", m, "--d", d, "--p-bg", "0.05",
                     "--out", str(tmp_path / f"planted{m}.csv")]) == 0


def test_planted_jobs_capped_by_seeds(tmp_path, monkeypatch, capsys):
    import concurrent.futures
    import multiprocessing
    import os
    from concurrent.futures.process import BrokenProcessPool
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    for name in blas[::2]:
        monkeypatch.delenv(name, raising=False)
    pools = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context):
            # spawned workers, each started with one BLAS thread
            assert mp_context is multiprocessing.get_context("spawn")
            assert [os.environ.get(name) for name in blas] == ["1", "1", "1"]
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            if broken:
                raise BrokenProcessPool("A process in the process pool was "
                                        "terminated abruptly")
            return map(fn, tasks)

    broken = False
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    base = ["planted", "--n", "40", "--m", "8", "--d", "7", "--seed", "3"]
    assert main(base + ["--seeds", "3", "--jobs", "64",
                        "--out", str(tmp_path / "a.csv")]) == 0
    assert pools == [3]
    assert [os.environ.get(name) for name in blas] == [None, "7", None]
    assert main(base + ["--seeds", "1", "--jobs", "64",
                        "--out", str(tmp_path / "b.csv")]) == 0
    assert pools == [3]  # one instance runs without a pool
    capsys.readouterr()
    for jobs in ("0", "-2"):
        assert main(base + ["--jobs", jobs, "--out", str(tmp_path / "c.csv")]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    # a worker that dies (killed for memory, say) is a data error, not a traceback
    broken = True
    assert main(base + ["--seeds", "2", "--jobs", "2",
                        "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == ("error: A process in the process pool "
                                       "was terminated abruptly\n")
    assert [os.environ.get(name) for name in blas] == [None, "7", None]
    assert not (tmp_path / "c.csv").exists()


def test_run_reports_nonconvergence_and_rejects_max_iters(
        small_graph_file, tmp_path, monkeypatch, capsys):
    from fairdsg import spectral
    monkeypatch.setattr(spectral, "MAX_MATVECS", 3)
    argv = ["run", "--input", small_graph_file, "--algorithm", "fss",
            "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Lanczos did not converge in 3 matvecs")
    assert "Traceback" not in err
    # the matvec cap is a constant, not an option
    assert main(argv + ["--max-iters", "5"]) == 1
    assert "unrecognized arguments: --max-iters 5" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""])
def test_memory_error_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                  message):
    import fairdsg.cli

    def too_big(params, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(fairdsg.cli, "generate", too_big)
    assert main(["planted", "--n", "100000000000", "--m", "4", "--d", "2",
                 "--p-bg", "0.5", "--out", str(tmp_path / "p.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message or 'MemoryError'}\n"
    assert not (tmp_path / "p.csv").exists()


def test_planted_save_instances(tmp_path):
    out = tmp_path / "p.csv"
    inst_dir = tmp_path / "instances"
    assert main(["planted", "--n", "40", "--m", "8", "--d", "7", "--seeds", "2",
                 "--seed", "9", "--save-instances", str(inst_dir),
                 "--out", str(out)]) == 0
    with open(inst_dir / "planted_9.el", encoding="utf-8") as handle:
        assert handle.readline() == "# planted instance seed=9 n=40 m=8 d=7 p_bg=0.0\n"
    for seed in (9, 10):
        g, c = read_edgelist(str(inst_dir / f"planted_{seed}.el"))
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
                                ("fss,2dfsg,fss", "--algorithms names 'fss' twice"),
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
    assert f"error: {bogus}: not a run CSV" in capsys.readouterr().err


def test_summary_rejects_a_normalized_density_that_is_not_finite_or_is_negative(
        tmp_path, capsys):
    path = tmp_path / "run.csv"
    for nd in ("nan", "inf", "-inf", "-0.5"):
        path.write_text(f"algorithm,normalized_density,status\nfss,{nd},Found\n",
                        encoding="utf-8")
        assert main(["summary", "--input", str(path),
                     "--out", str(tmp_path / "s.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {path}: normalized_density must be a "
                                f"finite number >= 0, got '{nd}'\n")
    assert not (tmp_path / "s.csv").exists()


def test_summary_rejects_a_field_over_the_csv_limit(tmp_path, capsys):
    ok = tmp_path / "ok.csv"
    ok.write_text("algorithm,normalized_density,status\nfps,1.0,Found\n",
                  encoding="utf-8")
    path = tmp_path / "run.csv"
    path.write_text("# a comment\nalgorithm,normalized_density,status\n"
                    "fps,1.0,Found\n" + "x" * 131_073 + ",1.0,Found\n",
                    encoding="utf-8")
    assert main(["summary", "--input", str(ok), str(path),
                 "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert "CSV line 4: field larger than field limit" in err
    # the error names the file it came from, not the good one before it
    assert f"error: {path}: CSV line 4" in err and str(ok) not in err


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


@pytest.mark.parametrize("weight", ["1e160", "8e307"])
def test_spectral_algorithms_on_huge_valid_weights(tmp_path, capsys, weight):
    # 8e307 passes the weight contract (twice it is finite); the squared
    # Lanczos norms of such weights overflow unless the operator is scaled
    path = tmp_path / "huge.el"
    path.write_text(f"2 1 1\nRB\n0 1 {weight}\n", encoding="utf-8")
    for algorithm in SPECTRAL_ALGORITHMS:
        code = main(["run", "--input", str(path), "--algorithm", algorithm,
                     "--out", str(tmp_path / "out.csv")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert f"density={format_float(float(weight))} " in captured.out
    assert main(["pareto", "--input", str(path),
                 "--out", str(tmp_path / "front.csv")]) == 0


# JSON values of every shape, for manifest payloads and amazon lines
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8)
_MANIFEST = json.loads(RunManifest(
    command="run", argv=("run",), inputs=("g.el",), algorithm="fps", delta=0.0,
    tol=1e-8, max_iters=100, seed=0, version="0.1.0").to_comment()[len("manifest: "):])


@st.composite
def _manifest_payloads(draw):
    """Drawn JSON: scalars and arrays, objects missing some manifest fields,
    and full manifests with one field replaced by an arbitrary value."""
    kind = draw(st.sampled_from(["any", "partial", "one_wrong"]))
    if kind == "any":
        return draw(_JSON)
    if kind == "partial":
        keep = draw(st.sets(st.sampled_from(sorted(_MANIFEST))))
        return {k: v for k, v in _MANIFEST.items() if k in keep}
    return {**_MANIFEST, draw(st.sampled_from(sorted(_MANIFEST))): draw(_JSON)}


_RUN_ROWS = st.lists(st.tuples(st.sampled_from(RUN_ALGORITHMS),
                               st.floats(0.0, 1.0),
                               st.sampled_from([s.value for s in SolveStatus])),
                     min_size=1, max_size=4)


def _summary_exit_code(directory: str, manifest_line: str, rows) -> int:
    path = Path(directory) / "run.csv"
    path.write_text(f"# {manifest_line}\nalgorithm,normalized_density,status\n"
                    + "".join(f"{a},{format_float(nd)},{status}\n"
                              for a, nd, status in rows), encoding="utf-8")
    return main(["summary", "--input", str(path),
                 "--out", str(Path(directory) / "summary.csv")])


@pytest.mark.parametrize("payload", ["{}", "[1]", '{"command": "run"}',
                                     "[" * 100_000],
                         ids=["empty_object", "array", "missing_fields", "deep"])
def test_summary_rejects_a_manifest_comment_that_is_not_a_manifest(
        tmp_path, capsys, payload):
    code = _summary_exit_code(str(tmp_path), f"manifest: {payload}",
                              [("fps", 1.0, "Found")])
    assert code == 2
    err = capsys.readouterr().err
    assert "manifest comment" in err
    assert f"error: {tmp_path / 'run.csv'}: " in err


@settings(max_examples=150, deadline=None)
@given(payload=_manifest_payloads(), rows=_RUN_ROWS)
def test_summary_exits_0_or_2_on_drawn_manifest_payloads(payload, rows):
    with tempfile.TemporaryDirectory() as directory:
        code = _summary_exit_code(directory, f"manifest: {json.dumps(payload)}",
                                  rows)
    assert code in (0, 2)
    if not isinstance(payload, dict):
        assert code == 2


def test_ingest_amazon_counts_a_deeply_nested_line_as_skipped(tmp_path, capsys):
    src = tmp_path / "meta.jsonl"
    src.write_text(JSONL + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
    assert main(["ingest-amazon", "--input", str(src),
                 "--out-dir", str(tmp_path / "pairs"), "--min-nodes", "2"]) == 0
    assert "skipped_lines=2 " in capsys.readouterr().out  # garbage and nesting


_AMAZON_LINES = st.one_of(
    st.fixed_dictionaries(
        {"asin": st.sampled_from(["A1", "A2", "A3", "A4"]) | st.text(max_size=3),
         "main_cat": st.sampled_from(["Books", "Music", "Toys"]) | st.text(max_size=3)},
        optional={"also_buy": st.lists(st.sampled_from(["A1", "A2", "A3", "A4"]),
                                       max_size=4) | _JSON}).map(json.dumps),
    _JSON.map(json.dumps),
    st.tuples(st.sampled_from(["[", '{"a": ']), st.integers(1, 100_000)).map(
        lambda t: t[0] * t[1]),
    st.text(max_size=20))


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(_AMAZON_LINES, max_size=12))
def test_ingest_amazon_exits_0_on_drawn_json_lines(lines):
    with tempfile.TemporaryDirectory() as directory:
        src = Path(directory) / "meta.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest-amazon", "--input", str(src),
                     "--out-dir", str(Path(directory) / "pairs"),
                     "--min-nodes", "1"]) == 0


def test_every_name_in_the_package_all_resolves():
    import fairdsg

    assert len(set(fairdsg.__all__)) == len(fairdsg.__all__)
    assert [name for name in fairdsg.__all__ if not hasattr(fairdsg, name)] == []
    star: dict = {}
    exec("from fairdsg import *", star)
    assert set(fairdsg.__all__) <= star.keys()


def test_the_package_version_is_the_one_in_pyproject():
    # every output manifest records __version__; tomllib is not in Python 3.10
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    version = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project.group(1), re.M)
    assert version == [fairdsg.__version__]


def test_every_python_block_of_the_readme_runs(capsys):
    # the examples import every name from its module, as users must
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


# Drawn edge-list files: 1-10 nodes, any color line, and edge lines in any
# order, self-loops and parallel lines included
_WEIGHTS = (0.0, 5e-324, 0.5, 1.0, 3.0)


@st.composite
def _edge_list_files(draw):
    labels = draw(st.text(alphabet="RB", min_size=1, max_size=10))
    node = st.integers(0, len(labels) - 1)
    edges = draw(st.lists(st.tuples(node, node, st.sampled_from(_WEIGHTS)),
                          max_size=15))
    text = (f"{len(labels)} {labels.count('R')} {labels.count('B')}\n{labels}\n"
            + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges))
    return text, sum(w for u, v, w in edges if u != v)


def _run_twice(argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, after checking that a rerun
    exits alike, prints the same stdout and writes the same bytes."""
    results = []
    for _ in range(2):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        results.append((code, stdout.getvalue(),
                        out.read_bytes() if out.exists() else None))
        assert "Traceback" not in stderr.getvalue()
    assert results[0] == results[1], argv
    return code, stderr.getvalue()


@settings(max_examples=30, deadline=None)
@given(drawn=_edge_list_files())
def test_every_command_on_drawn_edge_lists(drawn):
    text, total = drawn
    with tempfile.TemporaryDirectory() as directory:
        tmp = Path(directory)
        path = tmp / "g.el"
        path.write_text(text, encoding="utf-8")
        run_csvs = []
        for name in RUN_ALGORITHMS:
            out = tmp / f"{name}.csv"
            code, err = _run_twice(["run", "--input", str(path), "--algorithm", name,
                                    "--out", str(out)], out)
            # normalized density needs a positive optimum, so a positive weight
            assert code == (2 if total == 0 else 0), (name, err)
            if code:
                assert "zero unconstrained optimum" in err
            else:
                run_csvs.append(str(out))
        out = tmp / "front.csv"
        code, err = _run_twice(["pareto", "--input", str(path), "--algorithms",
                                "ss,fss,ps,fps,2dfsg", "--out", str(out)], out)
        assert code == 0, err
        if run_csvs:
            out = tmp / "summary.csv"
            code, err = _run_twice(["summary", "--input", *run_csvs,
                                    "--out", str(out)], out)
            assert code == 0, err


@st.composite
def _planted_argv(draw):
    n = draw(st.integers(2, 12))
    m = 2 * draw(st.integers(1, n // 2))
    return ["planted", "--n", str(n), "--m", str(m),
            "--d", str(draw(st.integers(0, m - 1))),
            "--p-bg", str(draw(st.sampled_from([0.0, 0.2, 1.0]))),
            "--seeds", str(draw(st.integers(1, 2))),
            "--seed", str(draw(st.integers(0, 5))),
            "--algorithm", draw(st.sampled_from(RECOVERY_ALGORITHMS))]


@settings(max_examples=10, deadline=None)
@given(argv=_planted_argv())
def test_planted_on_drawn_parameters(argv):
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory) / "planted.csv"
        code, err = _run_twice(argv + ["--out", str(out)], out)
        assert code == 0, err
        _, rows = _rows(str(out))
    # the guarantee needs lambda1 > 0: an edgeless instance is vacuous
    for row in rows:
        if float(row["lambda1"]) == 0.0:
            assert (row["hypotheses_hold"], row["vacuous"]) == ("false", "true")


def test_planted_edgeless_instance_is_vacuous(tmp_path, capsys):
    out = tmp_path / "planted.csv"
    assert main(["planted", "--n", "4", "--m", "2", "--d", "0", "--p-bg", "0",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "planted: instances=1 hypotheses_hold=0 both_bounds_ok=0\n")
    _, (row,) = _rows(str(out))
    assert (row["lambda1"], row["chi_bound"]) == ("0", "0")
    assert (row["hypotheses_hold"], row["vacuous"]) == ("false", "true")
