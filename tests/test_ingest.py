from __future__ import annotations

import io

import numpy as np
import pytest

from fairdsg.graph import BLUE, RED, Coloring, LabeledGraph
from fairdsg.ingest import (IngestError, ParseError, ProductRecord,
                            build_product_graph, category_pair_subgraphs,
                            parse_amazon_jsonl, parse_gml, polbooks_graph,
                            read_edgelist, write_edgelist)

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


def test_polbooks_graph_filters_neutral_and_colors():
    doc = parse_gml(POLBOOKS_LIKE)
    g, c = polbooks_graph(doc)
    assert g.n == 3
    assert (c.n_red, c.n_blue) == (1, 2)  # conservative -> red
    # edges touching the neutral node vanish; 10-11, 13-10, 11-13 survive
    assert g.num_edges == 3
    assert g.node_names == ("lib one", "con one", "lib two")
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


def test_parse_amazon_jsonl_examples():
    lines = [
        '{"asin": "A", "main_cat": "X", "also_buy": ["B"]}',
        '{"asin": "B", "main_cat": "Y"}',
        'not json at all',
        '{"asin": "C", "main_cat": "Y", "also_buy": []}',
        '',
    ]
    records, skipped = parse_amazon_jsonl(lines)
    assert skipped == 1
    assert [r.asin for r in records] == ["A", "B", "C"]
    assert records[0].also_buy == ("B",)
    assert records[1].also_buy == ()


def test_parse_amazon_jsonl_requires_core_fields():
    lines = [
        '{"asin": "", "main_cat": "X"}',
        '{"main_cat": "X"}',
        '{"asin": "A"}',
        '{"asin": "A", "main_cat": "X", "also_buy": "B"}',
        '[1, 2]',
    ]
    records, skipped = parse_amazon_jsonl(lines)
    assert records == [] and skipped == 5


def test_build_product_graph_symmetrizes_and_drops():
    records = [
        ProductRecord("A", "X", ("B", "B", "A", "ZZZ")),
        ProductRecord("B", "Y", ()),
        ProductRecord("C", "Y", ("A",)),
    ]
    g, cats, stats = build_product_graph(records)
    assert g.n == 3
    assert g.node_names == ("A", "B", "C")
    assert cats == ["X", "Y", "Y"]
    assert {(u, v) for u, v, _ in g.edges()} == {(0, 1), (0, 2)}
    assert stats.n_self_refs == 1
    assert stats.n_missing_refs == 1
    assert stats.n_duplicate_asins == 0


def test_build_product_graph_order_independent():
    records = [
        ProductRecord("A", "X", ("B",)),
        ProductRecord("B", "Y", ("C",)),
        ProductRecord("C", "X", ()),
    ]
    g1, cats1, _ = build_product_graph(records)
    g2, cats2, _ = build_product_graph(records[::-1])
    assert g1.same_structure(g2)
    assert cats1 == cats2


def test_category_pair_subgraphs_single_cross_edge():
    records = [
        ProductRecord("A", "X", ("B",)),
        ProductRecord("B", "Y", ()),
        ProductRecord("Z", "X", ()),
    ]
    g, cats, _ = build_product_graph(records)
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
    cats = [rng.choice(["a", "b", "c"]) for _ in range(40)]
    records = []
    for i, asin in enumerate(asins):
        targets = rng.choice(asins, size=rng.integers(0, 5), replace=False)
        records.append(ProductRecord(asin, cats[i], tuple(t for t in targets if t != asin)))
    g, cats_out, _ = build_product_graph(records)
    for sub in category_pair_subgraphs(g, cats_out, min_nodes=1):
        for u in range(sub.graph.n):
            nb, _ = sub.graph.neighbors(u)
            assert any(sub.coloring.codes[v] != sub.coloring.codes[u] for v in nb)


def test_edgelist_round_trip_bit_identical():
    g = LabeledGraph.from_edges(4, [(0, 1, 1.0), (2, 3, 0.125), (1, 2, 2.5)])
    c = Coloring.from_labels("RBRB")
    buf = io.StringIO()
    write_edgelist(g, c, buf)
    text = buf.getvalue()
    g2, c2 = read_edgelist(io.StringIO(text))
    assert g2.same_structure(g) and c2 == c
    buf2 = io.StringIO()
    write_edgelist(g2, c2, buf2)
    assert buf2.getvalue() == text


def test_edgelist_reader_skips_comments_and_validates():
    text = "# manifest: {}\n2 1 1\nRB\n0 1 1.0\n"
    g, c = read_edgelist(io.StringIO(text))
    assert g.n == 2 and c.labels() == "RB"
    for bad in ("", "2 1\nRB\n", "2 1 1\nRRB\n", "2 2 0\nRB\n",
                "2 1 1\nRB\n0 1\n", "2 1 1\nRX\n"):
        with pytest.raises(IngestError):
            read_edgelist(io.StringIO(bad))


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
        read_edgelist(io.StringIO(text))
    assert str(info.value) == message


def test_edgelist_id_beyond_int64_is_a_bad_line():
    text = "3 2 1\nRBR\n0 1 1.0\n0 99999999999999999999 1.0\n"
    with pytest.raises(IngestError, match="^edge list line 4: bad edge"):
        read_edgelist(io.StringIO(text))


def test_edgelist_blank_lines_between_edges():
    g, _ = read_edgelist(io.StringIO("3 2 1\nRBR\n\n0 1 1.5\n\n \n2 1 0.5\n\n"))
    assert list(g.edges()) == [(0, 1, 1.5), (1, 2, 0.5)]


def test_edgelist_round_trip_non_dyadic_weights():
    g = LabeledGraph.from_edges(4, [(0, 1, 0.1), (2, 3, 1 / 3), (1, 2, 1e-300),
                                    (0, 3, 0.1 + 0.2)])
    c = Coloring.from_labels("RBRB")
    buf = io.StringIO()
    write_edgelist(g, c, buf)
    text = buf.getvalue()
    g2, c2 = read_edgelist(io.StringIO(text))
    assert g2.same_structure(g) and c2 == c
    assert g2.edge_w.tobytes() == g.edge_w.tobytes()
    buf2 = io.StringIO()
    write_edgelist(g2, c2, buf2)
    assert buf2.getvalue() == text


def test_edgelist_empty_graph_round_trip():
    g = LabeledGraph.from_edges(0, [])
    c = Coloring([])
    buf = io.StringIO()
    write_edgelist(g, c, buf)
    g2, c2 = read_edgelist(io.StringIO(buf.getvalue()))
    assert g2.n == 0 and c2.n == 0
