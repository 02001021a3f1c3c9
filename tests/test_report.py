from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdsg.flow import exact_densest_subgraph
from fairdsg.graph import LabeledGraph, NodeSet
from fairdsg.report import (RunManifest, format_float, normalized_density,
                            pareto_front, read_csv, result_row, summarize,
                            write_csv)
from fairdsg.sweep import SolveStatus, make_record, run_algorithm

from oracles import pareto_quadratic


def _front(pts):
    """pareto_front of (density, balance, size) triples, as triples."""
    density, balance, size = (np.array(col) for col in zip(*pts))
    return [pts[i] for i in pareto_front(density, balance, size)]


def test_pareto_trivial_cases():
    assert _front([(1.0, 1.0, 1)]) == [(1.0, 1.0, 1)]
    front = _front([(2.0, 0.5, 1), (1.0, 1.0, 1), (1.5, 0.5, 1)])
    assert [(d, b) for d, b, _ in front] == [(2.0, 0.5), (1.0, 1.0)]
    empty = pareto_front(np.array([]), np.array([]), np.array([], dtype=np.int64))
    assert empty.shape == (0,)


def test_pareto_deduplicates_by_smallest_size():
    front = _front([(1.0, 1.0, 6), (1.0, 1.0, 2), (1.0, 1.0, 4)])
    assert front == [(1.0, 1.0, 2)]


def test_pareto_matches_quadratic_oracle():
    rng = np.random.default_rng(107)
    for _ in range(20):
        pts = [(float(rng.integers(0, 6)) / 2.0, float(rng.integers(0, 5)) / 4.0,
                int(rng.integers(1, 9)))
               for _ in range(100)]
        ours = _front(pts)
        assert ours == pareto_quadratic(pts)
        # antichain: no pair dominates within the front
        for i, p in enumerate(ours):
            for j, q in enumerate(ours):
                if i != j:
                    assert not (q[0] >= p[0] and q[1] >= p[1]
                                and (q[0] > p[0] or q[1] > p[1]))
        # coverage: every input point is dominated by or equal to a front point
        for p in pts:
            assert any(q[0] >= p[0] and q[1] >= p[1] for q in ours)
        # sorted by descending density
        densities = [p[0] for p in ours]
        assert densities == sorted(densities, reverse=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 4), st.integers(1, 6)),
                min_size=1, max_size=40))
def test_pareto_properties(raw):
    pts = [(d / 2.0, b / 4.0, s) for d, b, s in raw]
    front = _front(pts)
    assert front == pareto_quadratic(pts)
    seen = set()
    for d, b, _ in front:
        assert (d, b) not in seen
        seen.add((d, b))
    for p in pts:
        assert any(q[0] >= p[0] and q[1] >= p[1] for q in front)


@settings(max_examples=100, deadline=None)
@given(base=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                               st.sampled_from([0.0, 0.0, 0.25, 1.0]),
                               st.integers(1, 4)),
                     min_size=1, max_size=12),
       repeats=st.lists(st.integers(0, 11), max_size=30),
       sizes=st.lists(st.integers(1, 4), max_size=30))
def test_pareto_front_on_heavy_ties(base, repeats, sizes):
    # each repeat copies a drawn point, with its size or with a new one
    pts = list(base)
    for at, r in enumerate(repeats):
        d, b, s = base[r % len(base)]
        pts.append((d, b, sizes[at] if at < len(sizes) else s))
    density, balance, size = (np.array(col) for col in zip(*pts))
    front = pareto_front(density, balance, size)
    assert [pts[i] for i in front] == pareto_quadratic(pts)
    # the kept index of a tied (density, balance) pair has the smallest size
    for i in front:
        tied = (density == density[i]) & (balance == balance[i])
        assert size[i] == size[tied].min()


def test_normalized_density(k4, k4_rrbb):
    rec = run_algorithm("fps", k4, k4_rrbb)
    optimum = exact_densest_subgraph(k4).density
    assert normalized_density(rec, optimum=optimum) == pytest.approx(1.0)
    assert normalized_density(rec, optimum=6.0) == pytest.approx(0.5)
    empty = make_record(k4, k4_rrbb, NodeSet(), SolveStatus.NO_FEASIBLE_PREFIX)
    assert normalized_density(empty, optimum=optimum) == 0.0
    edgeless = LabeledGraph.from_edges(2, [])
    with pytest.raises(ValueError, match="zero unconstrained optimum"):
        normalized_density(rec, optimum=exact_densest_subgraph(edgeless).density)


def test_summarize_percentages_and_quartiles():
    entries = [("ss", 1.0, False), ("ss", 0.0, True), ("ss", 0.5, False),
               ("ss", 0.75, False), ("fps", 1.0, False), ("fps", 1.0, False)]
    rows = {r.algorithm: r for r in summarize(entries)}
    assert rows["ss"].runs == 4
    assert rows["ss"].pct_unfair == 25.0
    assert rows["ss"].nd_median == pytest.approx(np.median([1.0, 0.0, 0.5, 0.75]))
    assert rows["fps"].pct_unfair == 0.0
    assert rows["fps"].nd_median == 1.0
    all_fair = summarize([("ps", 0.9, False)] * 5)
    assert all_fair[0].pct_unfair == 0.0


def test_format_float_nine_significant_digits():
    assert format_float(1.0) == "1"
    assert format_float(2.0 / 3.0) == "0.666666667"
    value = 7.869565217391305
    assert abs(float(format_float(value)) - value) <= 1e-9 * max(1.0, abs(value))


def test_write_csv_turns_each_value_into_a_cell_by_one_rule():
    values = {"none": None, "bool": True, "np_bool": np.bool_(False),
              "int": 7, "np_int": np.int64(-3), "float": 2.0 / 3.0,
              "np_float": np.float64(1e-12), "whole": 4.0,
              "status": SolveStatus.NO_FEASIBLE_PREFIX, "str": "a,b"}
    buf = io.StringIO()
    write_csv(buf, list(values), [values])
    assert buf.getvalue() == (
        "none,bool,np_bool,int,np_int,float,np_float,whole,status,str\n"
        ',true,false,7,-3,0.666666667,1e-12,4,NoFeasiblePrefix,"a,b"\n')


def test_manifest_round_trip_and_csv(k4, k4_rrbb):
    manifest = RunManifest(command="run", argv=("run", "--x"), inputs=("g.el",),
                           algorithm="fps", delta=0.0, tol=1e-8,
                           max_iters=100, seed=7, version="0.1.0")
    parsed = RunManifest.from_comment(manifest.to_comment())
    assert parsed == manifest

    rec = run_algorithm("fps", k4, k4_rrbb)
    row = result_row("fps", rec, instance="g.el", g=k4, c=k4_rrbb,
                     normalized=1.0, seed=7)
    buf = io.StringIO()
    columns = ["algorithm", "instance", "n", "n_red", "n_blue", "edges",
               "sol_size", "sol_red", "sol_blue", "density", "balance",
               "normalized_density", "fair", "status", "runtime_ms", "seed"]
    assert list(row) == columns
    write_csv(buf, columns, [row], manifest)
    got_manifest, rows = read_csv(io.StringIO(buf.getvalue()))
    assert got_manifest == manifest
    assert len(rows) == 1
    back = rows[0]
    assert back["algorithm"] == "fps"
    assert back["status"] == "Found"
    assert back["fair"] == "true"
    assert float(back["density"]) == pytest.approx(rec.density, abs=1e-9)
    assert back["runtime_ms"] == ""
    assert list(back) == columns
