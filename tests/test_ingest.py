from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdsg import ingest
from fairdsg.cli import main
from fairdsg.graph import BLUE, RED, Coloring, LabeledGraph
from fairdsg.ingest import (LINE_BREAK, GmlNode, IngestError, ParseError,
                            build_product_graph, category_pair_subgraphs,
                            parse_amazon_jsonl, parse_gml, polbooks_graph,
                            read_edgelist, save_edgelist, write_edgelist)

from oracles import (category_pairs_reference, product_graph_reference,
                     read_edgelist_reference, same_structure)

MINIMAL_GML = """
graph [
  node [ id 0 label "alpha" value "l" ]
  node [ id 1 label "beta" value "c" ]
  edge [ source 0 target 1 ]
]
"""

POLBOOKS_LIKE = """
Creator "someone"
graph [
  directed 0
  node [ id 10 label "lib one" value "liberal" ]
  node [ id 11 label "con one" value "c" ]
  node [ id 12 label "fence" value "Neutral" ]
  node [ id 13 label "lib two" value "l" ]
  edge [ source 10 target 11 ]
  edge [ source 11 target 12 ]
  edge [ source 12 target 13 ]
  edge [ source 13 target 10 ]
  edge [ source 11 target 13 ]
]
"""


def test_parse_minimal_document():
    doc = parse_gml(MINIMAL_GML)
    assert len(doc.nodes) == 2
    assert len(doc.edges) == 1
    assert doc.nodes[0].label == "alpha"
    assert doc.nodes[0].value == "l"
    assert doc.edges[0] == (0, 1)


def test_parser_ignores_unknown_keys_and_blocks():
    text = """
    graph [
      metric 3.5
      node [ id 0 value "l" weight 2 graphics [ x 1 y 2 sub [ q 1 ] ] ]
      node [ id 1 value "c" note "contains [ brackets ] fine" ]
      edge [ source 0 target 1 cost 7 ]
    ]
    """
    doc = parse_gml(text)
    assert len(doc.nodes) == 2 and len(doc.edges) == 1


def test_parser_accepts_comments_and_odd_whitespace():
    text = 'graph\n[\nnode\n[\nid 0\n# trailing comment\nvalue "l"\n]\n]\n'
    doc = parse_gml(text)
    assert doc.nodes[0].value == "l"


def test_parser_reports_unbalanced_brackets_with_line():
    with pytest.raises(ParseError) as err:
        parse_gml("graph [\n node [ id 0 ]\n")
    assert "unbalanced" in str(err.value)
    assert err.value.line == 2


def test_parser_rejects_duplicate_node_id():
    text = 'graph [ node [ id 3 ]\n node [ id 3 ] ]'
    with pytest.raises(ParseError, match="duplicate node id 3"):
        parse_gml(text)


def test_parser_rejects_unknown_edge_endpoint():
    text = 'graph [ node [ id 0 ]\nedge [ source 0 target 9 ] ]'
    with pytest.raises(ParseError, match="unknown node id 9") as err:
        parse_gml(text)
    assert err.value.line == 2


def test_parser_rejects_unterminated_string():
    with pytest.raises(ParseError, match="unterminated"):
        parse_gml('graph [ node [ id 0 label "oops ] ]')


def test_graph_key_before_closing_bracket_has_no_value():
    # the bracket closes the graph list; it is not the key's value
    with pytest.raises(ParseError, match="key 'directed' has no value") as err:
        parse_gml("graph [\n node [ id 0 ]\n directed\n]\n")
    assert err.value.line == 3
    with pytest.raises(ParseError, match="key 'directed' has no value"):
        parse_gml("graph [ directed ] node [ id 0 ] ]")


def test_parser_reads_a_100000_deep_unknown_list():
    depth = 100_000
    text = ("graph [ node [ id 0 graphics " + "[ " * depth + "x 1 " + "] " * depth
            + "] ]")
    assert parse_gml(text).nodes == [GmlNode(0)]


# Generated documents: the generator plants nodes and edges among unknown
# keys, nested unknown lists, comments, strings holding brackets and `#`,
# and repeated keys whose later values must lose.
_SPACE = st.sampled_from([" ", "\t", "\n", " \r\n ", " # note ] [ \"\n"])
_STRING = st.text(alphabet="ab [#]_-", max_size=6)
_SCALAR = st.one_of(st.sampled_from(["x", "3.5", "-2", "a#b", "1e3", "graph",
                                     "node", "edge", "id", "source"]),
                    _STRING.map('"{}"'.format))
_UNKNOWN = st.recursive(_SCALAR, lambda inner: st.lists(
    st.tuples(st.sampled_from(["k", "id", "node", "edge", "graph"]), inner),
    max_size=3).map(lambda kvs: "[ " + " ".join(f"{k} {v}" for k, v in kvs)
                    + " ]"), max_leaves=6)


@st.composite
def gml_documents(draw):
    """(text, planted nodes, planted edges) of a well-formed GML document."""
    ids = draw(st.lists(st.integers(-99, 99), unique=True, max_size=6))
    planted = []  # (kind, planted value, its fields)
    for node_id in ids:
        label, value = draw(st.none() | _STRING), draw(st.none() | _STRING)
        fields = [("id", str(node_id))] + [
            (key, f'"{text}"') for key, text in (("label", label), ("value", value))
            if text is not None]
        planted.append(("node", GmlNode(node_id, label, value), fields))
    for _ in range(draw(st.integers(0, 6)) if ids else 0):
        ends = (draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
        planted.append(("edge", ends, [("source", str(ends[0])),
                                        ("target", str(ends[1]))]))
    planted = draw(st.permutations(planted))
    parts = [draw(st.sampled_from(["", 'Creator "x" [ graph [ ] ] ', "version 2 "])),
             "graph", draw(_SPACE), "["]
    for kind, _, fields in planted:
        body = [f"{key} {text}" for key, text in draw(st.permutations(fields))]
        # a list value never counts, before or after the planted value; a
        # repeated scalar after it loses
        for key in draw(st.lists(st.sampled_from(["id", "label", "source"]),
                                 max_size=1)):
            body.insert(0, f"{key} [ {draw(_SCALAR)} ]")
        for key in draw(st.lists(st.sampled_from([k for k, _ in fields]
                                                 + ["graphics", "w"]), max_size=2)):
            body.append(f"{key} {draw(_UNKNOWN)}")
        parts += [draw(_SPACE), kind, " [ ", draw(_SPACE).join(body), " ]"]
        if draw(st.booleans()):
            parts.append(f" {draw(st.sampled_from(['misc', 'directed']))} "
                         f"{draw(_UNKNOWN)}")
    parts += [draw(_SPACE), "]", draw(st.sampled_from(["", " trailer [ x ]"]))]
    nodes = [item for kind, item, _ in planted if kind == "node"]
    edges = [item for kind, item, _ in planted if kind == "edge"]
    return "".join(parts), nodes, edges


@settings(max_examples=100, deadline=None)
@given(gml_documents())
def test_parser_yields_exactly_the_planted_nodes_and_edges(case):
    text, nodes, edges = case
    doc = parse_gml(text)
    assert doc.nodes == nodes and doc.edges == edges


_SOUP = st.lists(st.sampled_from(
    ["graph", "node", "edge", "id", "source", "target", "label", "value",
     "directed", "0", "1", "-1", "x", "[", "]", '"s"', '"node"', '"', "#",
     "\n"]), max_size=30).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SOUP, _SOUP.map("graph [ {}".format)))
def test_parser_rejects_token_soups_only_with_parse_error(text):
    try:
        parse_gml(text)
    except ParseError:
        pass


@settings(max_examples=40, deadline=None)
@given(st.one_of(_SOUP.map("graph [ {}".format),
                gml_documents().map(lambda case: case[0])))
def test_ingest_polbooks_exits_0_or_2_without_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        gml, out = os.path.join(tmp, "in.gml"), os.path.join(tmp, "out.el")
        with open(gml, "w", encoding="utf-8") as handle:
            handle.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["ingest-polbooks", "--input", gml, "--out", out])
    assert code in (0, 2)
    assert "Traceback" not in stderr.getvalue()


def test_polbooks_graph_filters_neutral_and_colors():
    doc = parse_gml(POLBOOKS_LIKE)
    g, c = polbooks_graph(doc)
    assert g.n == 3
    assert (c.n_red, c.n_blue) == (1, 2)  # conservative -> red
    # edges touching the neutral node vanish; 10-11, 13-10, 11-13 survive
    assert {(u, v) for u, v, _ in g.edges()} == {(0, 1), (0, 2), (1, 2)}
    assert list(c.codes) == [BLUE, RED, BLUE]


def test_polbooks_graph_all_neutral_is_empty():
    text = 'graph [ node [ id 0 value "n" ] node [ id 1 value "neutral" ] ]'
    g, c = polbooks_graph(parse_gml(text))
    assert g.n == 0 and g.num_edges == 0 and c.n == 0


def test_polbooks_graph_unknown_value_named_in_error():
    text = 'graph [ node [ id 0 value "green" ] ]'
    with pytest.raises(IngestError, match="'green'"):
        polbooks_graph(parse_gml(text))
    with pytest.raises(IngestError):
        polbooks_graph(parse_gml("graph [ node [ id 0 ] ]"))


def _jsonl(records) -> list[str]:
    """JSON lines of (asin, main_cat, also_buy) triples."""
    return [json.dumps({"asin": asin, "main_cat": cat, "also_buy": list(refs)})
            for asin, cat, refs in records]


def _product_graph(records):
    columns, skipped = parse_amazon_jsonl(_jsonl(records))
    assert skipped == 0
    return build_product_graph(columns)


def _decoded(columns) -> list[tuple[str, str, tuple[str, ...]]]:
    """The (asin, main_cat, also_buy) triple of each parsed record."""
    asins, offsets = columns.asin_names, columns.offsets
    return [(asins[a], columns.category_names[c],
             tuple(asins[r] for r in columns.refs[offsets[i]:offsets[i + 1]]))
            for i, (a, c) in enumerate(zip(columns.asin, columns.main_cat))]


def test_parse_amazon_jsonl_examples():
    lines = [
        '{"asin": "A", "main_cat": "X", "also_buy": ["B"]}',
        '{"asin": "B", "main_cat": "Y"}',
        'not json at all',
        '{"asin": "C", "main_cat": "Y", "also_buy": []}',
        '',
    ]
    columns, skipped = parse_amazon_jsonl(lines)
    assert skipped == 1
    assert len(columns) == 3
    assert _decoded(columns) == [("A", "X", ("B",)), ("B", "Y", ()), ("C", "Y", ())]
    # one code per distinct string: "B" as a reference and as a record
    assert columns.asin_names == ["A", "B", "C"]
    assert columns.category_names == ["X", "Y"]


def test_parse_amazon_jsonl_requires_core_fields():
    lines = [
        '{"asin": "", "main_cat": "X"}',
        '{"main_cat": "X"}',
        '{"asin": "A"}',
        '{"asin": "A", "main_cat": "X", "also_buy": "B"}',
        '[1, 2]',
    ]
    columns, skipped = parse_amazon_jsonl(lines)
    assert len(columns) == 0 and skipped == 5


def test_build_product_graph_symmetrizes_and_drops():
    g, cats, stats = _product_graph([
        ("A", "X", ("B", "B", "A", "ZZZ")),
        ("B", "Y", ()),
        ("C", "Y", ("A",)),
    ])
    assert g.n == 3
    assert cats == ["X", "Y", "Y"]
    assert {(u, v) for u, v, _ in g.edges()} == {(0, 1), (0, 2)}
    assert stats.n_self_refs == 1
    assert stats.n_missing_refs == 1
    assert stats.n_duplicate_asins == 0


def test_build_product_graph_order_independent():
    records = [
        ("A", "X", ("B",)),
        ("B", "Y", ("C",)),
        ("C", "X", ()),
    ]
    g1, cats1, _ = _product_graph(records)
    g2, cats2, _ = _product_graph(records[::-1])
    assert same_structure(g1, g2)
    assert cats1 == cats2


def test_build_product_graph_links_a_reference_read_before_its_target():
    g, cats, stats = _product_graph([("C", "Y", ("A",)), ("B", "X", ()),
                                     ("A", "X", ("B",))])
    assert cats == ["X", "X", "Y"]
    assert [(u, v) for u, v, _ in g.edges()] == [(0, 1), (0, 2)]
    assert (stats.n_missing_refs, stats.n_self_refs) == (0, 0)


def test_build_product_graph_ignores_a_duplicate_asins_references():
    g, cats, stats = _product_graph([("A", "X", ("B",)), ("B", "Y", ()),
                                     ("A", "Z", ("C", "missing", "A"))])
    assert cats == ["X", "Y"]
    assert [(u, v) for u, v, _ in g.edges()] == [(0, 1)]
    assert dataclasses.astuple(stats) == (3, 1, 0, 0)


def test_category_pair_subgraphs_single_cross_edge():
    g, cats, _ = _product_graph([
        ("A", "X", ("B",)),
        ("B", "Y", ()),
        ("Z", "X", ()),
    ])
    pairs = category_pair_subgraphs(g, cats, min_nodes=2)
    assert len(pairs) == 1
    sub = pairs[0]
    assert sub.name == "X__Y"
    assert sub.graph.n == 2 and sub.graph.num_edges == 1
    assert (sub.coloring.n_red, sub.coloring.n_blue) == (1, 1)
    assert sub.red_category == "X"
    # below the node threshold nothing is emitted
    assert category_pair_subgraphs(g, cats, min_nodes=100) == []


def test_category_pair_subgraph_every_node_has_cross_neighbor():
    rng = np.random.default_rng(19)
    asins = [f"P{i:03d}" for i in range(40)]
    cats = [str(rng.choice(["a", "b", "c"])) for _ in range(40)]
    records = []
    for i, asin in enumerate(asins):
        targets = rng.choice(asins, size=rng.integers(0, 5), replace=False)
        records.append((asin, cats[i], tuple(str(t) for t in targets if t != asin)))
    g, cats_out, _ = _product_graph(records)
    for sub in category_pair_subgraphs(g, cats_out, min_nodes=1):
        for u in range(sub.graph.n):
            nb, _ = sub.graph.neighbors(u)
            assert any(sub.coloring.codes[v] != sub.coloring.codes[u] for v in nb)


_ASINS = ["a", "b", "c", "d", "e", "f"]
# non-ASCII names, and names that differ only by trailing NULs
_CATEGORIES = ["Toys", "Toys\x00", "Toys\x00\x00", "Bücher", "書籍", "A"]
_RECORDS = st.lists(st.tuples(
    st.sampled_from(_ASINS), st.sampled_from(_CATEGORIES),
    st.lists(st.sampled_from(_ASINS + ["missing"]), max_size=6).map(tuple)),
    max_size=10)


@settings(max_examples=150, deadline=None)
@given(records=_RECORDS, min_nodes=st.integers(1, 3))
def test_product_graph_and_pairs_match_the_set_reference(records, min_nodes):
    edges, categories, stats = product_graph_reference(records)
    g, cats, got_stats = _product_graph(records)
    assert [(u, v) for u, v, _ in g.edges()] == edges
    assert g.edge_w.tolist() == [1.0] * len(edges)
    assert cats == categories
    assert dataclasses.astuple(got_stats) == stats
    pairs = category_pair_subgraphs(g, cats, min_nodes=min_nodes)
    assert [(p.name, p.red_category, p.blue_category, p.coloring.labels(),
             [(u, v) for u, v, _ in p.graph.edges()]) for p in pairs] == \
        category_pairs_reference(edges, categories, min_nodes)


def _read_text(text: str):
    """:func:`read_edgelist` of ``text`` written to a temporary file as
    UTF-8, its line ends kept."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.el")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return read_edgelist(path)


def test_edgelist_round_trip_bit_identical():
    g = LabeledGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 0.125), (1, 2, 2.5)])
    c = Coloring.from_labels("RBRB")
    buf = io.StringIO()
    write_edgelist(g, c, buf)
    text = buf.getvalue()
    g2, c2 = _read_text(text)
    assert same_structure(g2, g) and c2 == c
    buf2 = io.StringIO()
    write_edgelist(g2, c2, buf2)
    assert buf2.getvalue() == text


def test_edgelist_reader_skips_comments_and_validates():
    text = "# manifest: {}\n2 1 1\nRB\n0 1 1.0\n"
    g, c = _read_text(text)
    assert g.n == 2 and c.labels() == "RB"
    for bad in ("", "2 1\nRB\n", "2 1 1\nRRB\n", "2 2 0\nRB\n",
                "2 1 1\nRB\n0 1\n", "2 1 1\nRX\n"):
        with pytest.raises(IngestError):
            _read_text(bad)


BODY_ERRORS = [
    ("0 1 1.0\n0 1\n", "edge list line 5: expected 'u v w', got '0 1'"),
    ("0 1 1.0 2\n", "edge list line 4: expected 'u v w', got '0 1 1.0 2'"),
    ("\n5\n", "edge list line 5: expected 'u v w', got '5'"),
    ("0 2.5 1.0\n", "edge list line 4: bad edge '0 2.5 1.0'"),
    ("0 1 1.0\n1 2 x\n", "edge list line 5: bad edge '1 2 x'"),
    ("0 1 nan\n", "edge list: edge (0, 1) has non-finite weight nan"),
    ("0 1\n1 2 1.0 3\n", "edge list line 4: expected 'u v w', got '0 1'"),
    ("1 2 1.0 3\n0 1\n", "edge list line 4: expected 'u v w', got '1 2 1.0 3'"),
    ("0 1 x\n0 1\n", "edge list line 4: bad edge '0 1 x'"),
    ("0 1\n0 x 1.0\n", "edge list line 4: expected 'u v w', got '0 1'"),
    ("0 1 1.0\n\n  \n1 2 y\n", "edge list line 7: bad edge '1 2 y'"),
    ("0 1 nan\n0 7 1.0\n", "edge list: edge (0, 1) has non-finite weight nan"),
    ("0 9 1.0\n0 1 nan\n",
     "edge list: edge (0, 9) references a node id outside 0..2"),
    ("0 1 1.0\n1 2 -0.5\n", "edge list: edge (1, 2) has negative weight -0.5"),
]


@pytest.mark.parametrize("body, message", BODY_ERRORS)
def test_edgelist_body_errors_name_the_first_bad_line(body, message):
    text = "# comment\n3 2 1\nRBR\n" + body
    with pytest.raises(IngestError) as info:
        _read_text(text)
    assert str(info.value) == message


_EDGE = LabeledGraph.from_arrays(2, [0], [1])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: parse_gml('graph [\n node [ label "a" ]\n]'), ParseError,
                 "line 2: node block without id", id="gml node without id"),
    pytest.param(lambda: parse_gml("graph [\n node [ id 0 ]\n edge [ target 0 ]\n]"),
                 ParseError, "line 3: edge block without source",
                 id="gml edge without source"),
    pytest.param(lambda: parse_gml('graph [\n node [ id "0" ]\n]'), ParseError,
                 "line 2: node id must be an integer", id="gml string node id"),
    pytest.param(lambda: parse_gml('graph [\n node [ id 0 ]\n'
                                   ' edge [ source 0 target "0" ]\n]'),
                 ParseError, "line 3: edge target must be an integer",
                 id="gml string edge id"),
    pytest.param(lambda: parse_gml("graph [\n node [ id 1.5 ]\n]"), ParseError,
                 "line 2: node id must be an integer, got '1.5'",
                 id="gml non-integer node id"),
    pytest.param(lambda: parse_gml("graph [\n node [ id 0 ]\n"
                                   " edge [ source x target 0 ]\n]"),
                 ParseError, "line 3: edge source must be an integer, got 'x'",
                 id="gml non-integer edge id"),
    pytest.param(lambda: category_pair_subgraphs(_EDGE, ["a", "b"], min_nodes=0),
                 ValueError, "min_nodes must be at least 1", id="pairs of min_nodes 0"),
    pytest.param(lambda: category_pair_subgraphs(_EDGE, ["a"], min_nodes=1),
                 ValueError, "categories length must equal the node count",
                 id="pairs of too few categories"),
    pytest.param(lambda: _read_text("2 x 1\nRB\n"), IngestError,
                 "edge list: non-integer header '2 x 1'", id="edge list header"),
    pytest.param(lambda: _read_text("# c\n2 1 1\n"), IngestError,
                 "edge list: missing color line", id="edge list without colors"),
])
def test_ingest_errors_name_the_problem(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_edgelist_id_beyond_int64_is_a_bad_line():
    text = "3 2 1\nRBR\n0 1 1.0\n0 99999999999999999999 1.0\n"
    with pytest.raises(IngestError, match="^edge list line 4: bad edge"):
        _read_text(text)


def test_edgelist_blank_lines_between_edges():
    g, _ = _read_text("3 2 1\nRBR\n\n0 1 1.5\n\n \n2 1 0.5\n\n")
    assert list(g.edges()) == [(0, 1, 1.5), (1, 2, 0.5)]


def test_edgelist_round_trip_non_dyadic_weights():
    g = LabeledGraph.from_edges(4, [(0, 1, 0.1), (2, 3, 1 / 3), (1, 2, 1e-300),
                                    (0, 3, 0.1 + 0.2)])
    c = Coloring.from_labels("RBRB")
    buf = io.StringIO()
    write_edgelist(g, c, buf)
    text = buf.getvalue()
    g2, c2 = _read_text(text)
    assert same_structure(g2, g) and c2 == c
    assert g2.edge_w.tobytes() == g.edge_w.tobytes()
    buf2 = io.StringIO()
    write_edgelist(g2, c2, buf2)
    assert buf2.getvalue() == text


def test_edgelist_empty_graph_round_trip():
    g = LabeledGraph.from_edges(0, [])
    c = Coloring([])
    buf = io.StringIO()
    write_edgelist(g, c, buf)
    g2, c2 = _read_text(buf.getvalue())
    assert g2.n == 0 and c2.n == 0


HEADER_12 = "# c\n12 6 6\nRBRBRBRBRBRB\n"


@pytest.mark.parametrize("body, edges", [
    ("1_0 1 1.0\n", [(1, 10, 1.0)]),
    ("0 \u0663 1.0\n", [(0, 3, 1.0)]),
    ("+1 2 1_0\n", [(1, 2, 10.0)]),
    ("0\xa01\u30002.5\n", [(0, 1, 2.5)]),
    ("0 1 1.0\n2 3 1e-400\n", [(0, 1, 1.0), (2, 3, 0.0)]),
])
def test_edgelist_reads_literals_only_python_accepts(body, edges):
    g, _ = _read_text(HEADER_12 + body)
    assert list(g.edges()) == edges


@pytest.mark.parametrize("body, message", [
    # numpy 1.2x reads 2.0 as an int, with only a DeprecationWarning
    ("0 2.0 1.0\n", "edge list line 4: bad edge '0 2.0 1.0'"),
    # numpy 2.4's integer parser, on glibc, reads U+01FE as the digit 462
    ("0 \u01fe 1.0\n", "edge list line 4: bad edge '0 \u01fe 1.0'"),
    ("0 1 1.0\n0 1e3 1.0\n", "edge list line 5: bad edge '0 1e3 1.0'"),
])
def test_edgelist_rejects_what_python_rejects(body, message):
    with pytest.raises(IngestError) as info:
        _read_text(HEADER_12 + body)
    assert str(info.value) == message


@pytest.mark.parametrize("body", ["", "\n\n", "  \n\t\n\x1f\n"])
def test_edgelist_empty_bodies_warn_nothing(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, c = _read_text(HEADER_12 + body)
    assert g.num_edges == 0 and c.n == 12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _read_text(HEADER_12 + body)
    assert caught == []


def _bad_line(line: int, message: str):
    return IngestError, f"edge list line {line}: {message}"


# file bytes -> the edges read or the (error, message) raised, and whether
# numpy's reader alone parses the body. Bytes after the color line that are
# not ASCII, or line breaks numpy does not honour, send the file to the
# per-line parser; so does a body numpy rejects.
EDGE_LIST_FILES = [
    pytest.param(b"2 1 1\nRB\n0 1\x0c1.0\n", _bad_line(3, "expected 'u v w', got '0 1'"),
                 False, id="form feed splits a line"),
    pytest.param(b"2 1 1\nRB\n0\x0b1 1.0\n", _bad_line(3, "expected 'u v w', got '0'"),
                 False, id="vertical tab splits a line"),
    pytest.param(b"3 2 1\nRBR\n0 1 1.0\x1c1 2 1.0\n", [(0, 1, 1.0), (1, 2, 1.0)],
                 False, id="file separator between two edges"),
    pytest.param("2 1 1\nRB\n0\xa01 1.0\n".encode(), [(0, 1, 1.0)], False,
                 id="no-break space in the body"),
    pytest.param("# pair: Café__Jouets\n2 1 1\nRB\n0 1 1.0\n".encode(), [(0, 1, 1.0)],
                 True, id="non-ASCII comment"),
    pytest.param("# a\u2028# b\n3 2 1\nRBR\n0 1 1.0\n1 2 0.5\n".encode(),
                 [(0, 1, 1.0), (1, 2, 0.5)], False, id="U+2028 in a comment"),
    pytest.param("# a\u2028# b\n2 1 1\nRB\n0 1 1.0\n0 1\n".encode(),
                 _bad_line(6, "expected 'u v w', got '0 1'"), False,
                 id="U+2028 splits a comment in two"),
    pytest.param("# a\u2028b\n2 1 1\nRB\n".encode(),
                 (IngestError, "edge list: header must be 'n n_red n_blue', got 'b'"),
                 False, id="U+2028 ends a comment"),
    pytest.param(b"# c\r\n2 1 1\r\nRB\r\n0 1 1.0\r\n", [(0, 1, 1.0)], True, id="CRLF"),
    pytest.param(b"# c\r2 1 1\rRB\r0 1 1.0\r", [(0, 1, 1.0)], True, id="lone CR"),
    pytest.param(b"2 1 1\r\nRB\r\n0 1 1.0\r\n\r\n0 x 1.0\r\n",
                 _bad_line(5, "bad edge '0 x 1.0'"), False, id="CRLF bad line"),
    pytest.param(b"2 1 1\nRB\n\n \t\n0 1 1.0\n\n", [(0, 1, 1.0)], True,
                 id="blank and whitespace-only lines"),
    pytest.param(b"2 1 1\nRB\n", [], False, id="empty body"),
    pytest.param(b"2 1 1\nRB", [], False, id="no break after the color line"),
    pytest.param(b"0 0 0\n\n0 0 1.0\n",
                 (IngestError, "edge list: edge (0, 0) references a node id outside 0..-1"),
                 True, id="empty color line"),
    pytest.param("\ufeff2 1 1\nRB\n0 1 1.0\n".encode(),
                 (IngestError, "edge list: non-integer header '\\ufeff2 1 1'"), False,
                 id="UTF-8 BOM"),
    pytest.param(b"2 1 1\nRB\n0 1 1.0\xff\n",
                 (UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in "
                                      "position 16: invalid start byte"),
                 False, id="invalid UTF-8 in the body"),
    pytest.param(b"# \xff\n2 x 1\nRB\n0 1 1.0\n",
                 (UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in "
                                      "position 2: invalid start byte"),
                 False, id="invalid UTF-8 before a bad header"),
    pytest.param(b"2 x 1\nRB\n0 1 1.0\xff\n",
                 (UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in "
                                      "position 16: invalid start byte"),
                 False, id="invalid UTF-8 after a bad header"),
    pytest.param(b"2 1 1\nRB\n0 9223372036854775808 1.0\n",
                 _bad_line(3, "bad edge '0 9223372036854775808 1.0'"), False,
                 id="id above int64"),
    pytest.param(b"2 1 1\nRB\n0 1 nan\n",
                 (IngestError, "edge list: edge (0, 1) has non-finite weight nan"),
                 True, id="nan weight"),
    pytest.param(b"2 1 1\nRB\n0 1 inf\n",
                 (IngestError, "edge list: edge (0, 1) has non-finite weight inf"),
                 True, id="inf weight"),
    pytest.param(b"2 1 1\nRB\n0 1 -2.5\n",
                 (IngestError, "edge list: edge (0, 1) has negative weight -2.5"),
                 True, id="negative weight"),
]


@pytest.mark.parametrize("data, expected, numpy_reads", EDGE_LIST_FILES)
def test_edgelist_files_read_as_text_would(tmp_path, monkeypatch, capsys,
                                           data, expected, numpy_reads):
    path = tmp_path / "g.el"
    path.write_bytes(data)
    if numpy_reads:
        def per_line(*args):
            raise AssertionError("the per-line parser ran")
        monkeypatch.setattr(ingest, "_edge_columns", per_line)
    if isinstance(expected, list):
        g, _ = read_edgelist(str(path))
        assert list(g.edges()) == expected
        return
    error, message = expected
    with pytest.raises(error) as info:
        read_edgelist(str(path))
    assert str(info.value) == message
    assert main(["run", "--input", str(path), "--algorithm", "exact",
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Edge-list bodies for the differential test: mostly canonical lines, with
# literals only Python accepts, special weights, Unicode spaces, characters
# that `splitlines` breaks a line at, blank lines, lines of the wrong
# length and `#` inside a line.
def _mostly(common, rare):
    """``common`` nine times in ten, else ``rare``."""
    return st.integers(0, 9).flatmap(lambda k: common if k else rare)


_ID = _mostly(st.integers(0, 11).map(str), st.sampled_from(
    ["1_0", "+3", "\u0663", "\u01fe", "1e3", "007", "-1", "12",
     "99999999999999999999"]))
_WEIGHT = _mostly(
    st.one_of(st.floats(0.0, 1e6).map(repr), st.integers(0, 9).map(str)),
    st.sampled_from(["inf", "nan", "-0.0", "1e-400", "1_0", "-1.5", "x", "0x1"]))
_GAP = _mostly(st.sampled_from([" ", "\t", "  "]),
               st.sampled_from(["\xa0", "\u3000", "\x1f"]))
_BREAK = st.sampled_from(["\x0c", "\x1c", "\x85", "\u2028", "\r"])


@st.composite
def edge_bodies(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 39))
        if kind < 34:
            tokens = [draw(_ID), draw(_ID), draw(_WEIGHT)]
        elif kind < 36:
            tokens = []
        elif kind < 38:
            tokens = [draw(_ID) for _ in range(draw(st.sampled_from([1, 2, 4])))]
        else:
            tokens = [draw(_ID), draw(_ID), draw(_WEIGHT), "#", "note"][
                :draw(st.integers(3, 5))]
            tokens[draw(st.integers(0, len(tokens) - 1))] += "#"
        line = draw(_GAP).join(tokens)
        if draw(st.integers(0, 19)) == 0:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(_BREAK) + line[cut:]
        lines.append(draw(st.sampled_from(["", " "])) + line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(edge_bodies())
def test_edgelist_reader_matches_the_per_token_reference(body):
    text = HEADER_12 + body
    try:
        want = read_edgelist_reference(text)
    except IngestError as exc:
        with pytest.raises(IngestError) as info:
            _read_text(text)
        assert str(info.value) == str(exc)
        return
    g, c = _read_text(text)
    assert c == want[1]
    for got, ref in ((g.edge_u, want[0].edge_u), (g.edge_v, want[0].edge_v),
                     (g.edge_w, want[0].edge_w)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(0, 12))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30)) if n else []
    weights = draw(st.lists(st.floats(0.0, 1e300), min_size=len(pairs),
                            max_size=len(pairs)))
    g = LabeledGraph.from_arrays(n, [p[0] for p in pairs], [p[1] for p in pairs],
                                 weights)
    return g, Coloring(draw(st.lists(st.sampled_from([RED, BLUE]), min_size=n,
                                     max_size=n)))


@settings(max_examples=150, deadline=None)
@given(colored_graphs(), st.lists(st.text(st.characters(
    blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8), max_size=2))
def test_edgelist_write_read_write_round_trip(case, comments):
    g, c = case
    buf = io.StringIO()
    write_edgelist(g, c, buf, comments)
    text = buf.getvalue()
    g2, c2 = _read_text(text)
    assert c2 == c and g2.n == g.n
    for got, ref in ((g2.edge_u, g.edge_u), (g2.edge_v, g.edge_v),
                     (g2.edge_w, g.edge_w)):
        assert got.tobytes() == ref.tobytes()
    buf2 = io.StringIO()
    write_edgelist(g2, c2, buf2, comments)
    assert buf2.getvalue() == text


def test_line_break_pattern_matches_the_splitlines_boundaries():
    every = "".join(map(chr, range(0x110000)))
    pieces = every.splitlines(keepends=True)
    assert {piece[-1] for piece in pieces[:-1]} == set(LINE_BREAK.findall(every))
    assert LINE_BREAK.findall("a\r\nb") == ["\r\n"]


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
                                 "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_write_edgelist_rejects_a_comment_with_a_line_break(brk):
    g = LabeledGraph.from_edges(2, [(0, 1)])
    buf = io.StringIO()
    with pytest.raises(ValueError, match="line break"):
        write_edgelist(g, Coloring.from_labels("RB"), buf, ["fine", f"a{brk}b"])
    assert buf.getvalue() == ""


class _RecordingBuffer(io.StringIO):
    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


# floats whose repr is long, subnormal, huge or an integer beyond 2**53
_ODD_WEIGHTS = [0.1, 1 / 3, 5e-324, 1e300, 2.0 ** 53 + 2]


@pytest.mark.parametrize("num_edges", [0, 1, 4095, 4096, 4097, 8193])
def test_write_edgelist_blocks_match_the_per_edge_lines(num_edges):
    n = 130  # 8,385 pairs
    u, v = (a[:num_edges].tolist() for a in np.triu_indices(n, 1))
    w = [_ODD_WEIGHTS[k % len(_ODD_WEIGHTS)] for k in range(num_edges)]
    g = LabeledGraph.from_arrays(n, u, v, w)
    c = Coloring.from_labels("RB" * (n // 2))
    buf = _RecordingBuffer()
    write_edgelist(g, c, buf, ["a comment"])
    expected = "".join([f"# a comment\n{n} {n // 2} {n // 2}\n{'RB' * (n // 2)}\n",
                        *(f"{a} {b} {x!r}\n" for a, b, x in zip(u, v, w))])
    assert buf.getvalue() == expected
    edge_writes = [p.count("\n") for p in buf.pieces[3:]]
    assert sum(edge_writes) == num_edges
    assert max(edge_writes, default=0) <= 4096


def test_save_edgelist_validates_before_it_opens_the_file(tmp_path):
    g = LabeledGraph.from_edges(2, [(0, 1)])
    good = Coloring.from_labels("RB")
    bad_calls = [(good, ["a\nb"]), (Coloring.from_labels("RBR"), [])]
    fresh = tmp_path / "fresh.el"
    for coloring, comments in bad_calls:
        with pytest.raises(ValueError):
            save_edgelist(g, coloring, str(fresh), comments)
        assert not fresh.exists()
    existing = tmp_path / "existing.el"
    save_edgelist(g, good, str(existing), ["kept"])
    before = existing.read_bytes()
    for coloring, comments in bad_calls:
        with pytest.raises(ValueError):
            save_edgelist(g, coloring, str(existing), comments)
        assert existing.read_bytes() == before
