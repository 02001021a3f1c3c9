"""Dataset parsers and the plain edge-list interchange format.

Three external formats live here:

* a tolerant GML subset, whose grammar is given below;
* JSON-lines product metadata with the fields asin / main_cat / also_buy;
* the internal edge-list format: optional leading ``#`` comment lines, a
  header line ``n n_red n_blue``, one line of R/B color characters, then
  one ``u v w`` line per edge with u < v, sorted. Serialization is
  canonical, so parse -> serialize -> parse round-trips bit-identically.
  Python's ``int`` / ``float`` define the accepted literals; numpy's C
  reader parses the common case (see ``read_edgelist``). Graphs are built
  from edge arrays by ``LabeledGraph.from_arrays``.

GML grammar. Each line is cut into tokens: ``#`` outside a string comments
out the rest of the line, a string runs from ``"`` to the next ``"`` on the
same line (no escapes; an unclosed one is an error), ``[`` and ``]`` stand
alone, and any other run of non-space characters is an atom. At the top
level only ``graph [`` opens a list that is read; other tokens and balanced
lists are skipped, and a stray ``]`` is an error. In a graph list and its
``node [ ... ]`` and ``edge [ ... ]`` lists, tokens pair up as ``key value``
with an atom, string or list as the value, and the first scalar value of a
key wins; every other list is only bracket-matched. A node needs a unique
integer ``id`` and may carry ``label`` and ``value``; an edge needs integer
``source`` and ``target`` ids of nodes in the document.
"""

from __future__ import annotations

import json
import re
import warnings
from array import array
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .graph import (BLUE, RED, Coloring, LabeledGraph, NodeSet, _unique,
                    induced_subgraph)


class IngestError(Exception):
    """Data-level problem in an input file."""


class ParseError(IngestError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# GML subset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GmlNode:
    id: int
    label: str | None = None
    value: str | None = None


@dataclass(frozen=True)
class GmlDocument:
    nodes: list[GmlNode]
    edges: list[tuple[int, int]]


_GML_TOKEN = re.compile(r'#.*|[\[\]]|"[^"]*"?|[^\s\[\]"]+')


def _gml_ints(fields: dict, kind: str, keys: tuple[str, ...], line: int) -> list[int]:
    """The integer fields ``keys`` of a node or edge list whose key is on
    ``line``: every key must be present before any value is read."""
    for key in keys:
        if key not in fields:
            raise ParseError(f"{kind} block without {key}", line)
    values = []
    for key in keys:
        (tag, text), at = fields[key]
        if tag != "ATOM":
            raise ParseError(f"{kind} {key} must be an integer", at)
        try:
            values.append(int(text))
        except ValueError:
            raise ParseError(f"{kind} {key} must be an integer, got {text!r}",
                             at) from None
    return values


def parse_gml(text: str) -> GmlDocument:
    """Parse the GML subset; unknown keys are skipped, errors carry lines.

    One pass turns the text into tokens, then one loop over a stack of open
    lists reads them, so nesting depth is bounded by memory, not recursion.
    """
    toks: list[tuple[object, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in _GML_TOKEN.findall(line):
            if tok[0] == "#":
                break
            if tok[0] == '"':
                if len(tok) < 2 or tok[-1] != '"':
                    raise ParseError("unterminated string", lineno)
                toks.append((("STR", tok[1:-1]), lineno))
            else:
                toks.append((tok if tok in ("[", "]") else ("ATOM", tok), lineno))
    nodes: list[GmlNode] = []
    edges: list[tuple[int, int, int]] = []
    seen_ids: set[int] = set()
    # open lists as (kind, line of its key, fields read so far); kind is
    # "graph", "node", "edge", or None for a list that is only bracket-matched
    stack: list[tuple[str | None, int, dict]] = []
    i = 0
    while i < len(toks):
        tok, line = toks[i]
        nxt, nline = toks[i + 1] if i + 1 < len(toks) else (None, line)
        i += 1
        if tok == "[":
            stack.append((None, line, {}))
        elif tok == "]":
            if not stack:
                raise ParseError("unbalanced brackets: unexpected ']'", line)
            kind, kline, fields = stack.pop()
            if kind == "node":
                (node_id,) = _gml_ints(fields, kind, ("id",), kline)
                if node_id in seen_ids:
                    raise ParseError(f"duplicate node id {node_id}", fields["id"][1])
                seen_ids.add(node_id)
                label, value = (fields[k][0][1] if k in fields else None
                                for k in ("label", "value"))
                nodes.append(GmlNode(node_id, label, value))
            elif kind == "edge":
                edges.append((*_gml_ints(fields, kind, ("source", "target"), kline),
                              kline))
        elif not stack:  # top level: only `graph [` opens a list that is read
            if tok == ("ATOM", "graph") and nxt == "[":
                stack.append(("graph", line, {}))
                i += 1
        elif stack[-1][0] is not None:  # `key value` or `key [` in a read list
            kind, _, fields = stack[-1]
            key = tok[1]
            if nxt is None and kind == "graph":
                raise ParseError("unbalanced brackets: unexpected end of input", line)
            if nxt is None or nxt == "]":
                raise ParseError(f"key {key!r} has no value", line)
            i += 1
            if nxt == "[":
                read = kind == "graph" and key in ("node", "edge")
                stack.append((key if read else None, line, {}))
            else:
                fields.setdefault(key, (nxt, nline))
    if stack:
        what = ("graph block never closed" if stack[-1][0] == "graph"
                else "unexpected end of input")
        raise ParseError(f"unbalanced brackets: {what}", toks[-1][1])
    for src, dst, eline in edges:
        for endpoint in (src, dst):
            if endpoint not in seen_ids:
                raise ParseError(f"edge references unknown node id {endpoint}", eline)
    return GmlDocument(nodes, [(s, t) for s, t, _ in edges])


_POLBOOKS_COLOR = {
    "c": RED, "conservative": RED,
    "l": BLUE, "liberal": BLUE,
    "n": None, "neutral": None,
}


def polbooks_graph(doc: GmlDocument) -> tuple[LabeledGraph, Coloring]:
    """Books graph restricted to liberal/conservative nodes.

    Neutral nodes and their incident edges are dropped; conservative maps to
    Red and liberal to Blue. Values may be full words or the single letters
    used by some mirrors of the file.
    """
    colors: list[int] = []
    kept: list[GmlNode] = []
    for node in doc.nodes:
        raw = node.value if node.value is not None else ""
        color = _POLBOOKS_COLOR.get(raw.strip().lower(), "unknown")
        if color == "unknown":
            raise IngestError(f"unknown political label {node.value!r} "
                              f"on node {node.id}")
        if color is None:
            continue
        colors.append(color)
        kept.append(node)
    new_id = {node.id: i for i, node in enumerate(kept)}
    edges = np.array([(new_id[s], new_id[t]) for s, t in doc.edges
                      if s in new_id and t in new_id], dtype=np.int64).reshape(-1, 2)
    graph = LabeledGraph.from_arrays(len(kept), *edges.T)
    return graph, Coloring(colors)


# ---------------------------------------------------------------------------
# Amazon product metadata (JSON lines)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductColumns:
    """Product records as interned integer columns, one row per record.

    Every asin, a record's own or a reference, has one code, its index in
    ``asin_names``, and every ``main_cat`` one in ``category_names``. Record
    ``i`` has asin code ``asin[i]``, category code ``main_cat[i]`` and the
    reference codes ``refs[offsets[i]:offsets[i + 1]]``.
    """
    asin: array
    main_cat: array
    offsets: array
    refs: array
    asin_names: list[str]
    category_names: list[str]

    def __len__(self) -> int:
        return len(self.asin)


def parse_amazon_jsonl(lines: Iterable[str]) -> tuple[ProductColumns, int]:
    """Extract (asin, main_cat, also_buy) per line; malformed lines are
    counted and skipped, never fatal. Strings are interned to integer codes
    as they are read, so memory holds one string per distinct asin and
    category. Returns (columns, skipped)."""
    asin_code: dict[str, int] = {}
    cat_code: dict[str, int] = {}
    asins, cats, refs, offsets = array("q"), array("q"), array("q"), array("q", [0])
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # bad JSON, or nested too deep
            skipped += 1
            continue
        if not isinstance(obj, dict):
            skipped += 1
            continue
        asin = obj.get("asin")
        main_cat = obj.get("main_cat")
        also_buy = obj.get("also_buy", [])
        if (not isinstance(asin, str) or not asin
                or not isinstance(main_cat, str) or not main_cat
                or not isinstance(also_buy, list)):
            skipped += 1
            continue
        asins.append(asin_code.setdefault(asin, len(asin_code)))
        cats.append(cat_code.setdefault(main_cat, len(cat_code)))
        refs.extend([asin_code.setdefault(x, len(asin_code))
                     for x in also_buy if isinstance(x, str)])
        offsets.append(len(refs))
    return ProductColumns(asins, cats, offsets, refs,
                          list(asin_code), list(cat_code)), skipped


@dataclass(frozen=True)
class ProductGraphStats:
    n_records: int
    n_duplicate_asins: int
    n_missing_refs: int
    n_self_refs: int


def build_product_graph(columns: ProductColumns,
                        ) -> tuple[LabeledGraph, list[str], ProductGraphStats]:
    """Undirected co-purchase graph over asins.

    The first record of an asin wins. Edges are the symmetrized union of
    also_buy references, each of unit weight; self-references and references
    to absent asins are dropped (and counted). Node ids are assigned in
    sorted asin order so ingestion is input-order independent.
    """
    code = np.array(columns.asin, dtype=np.int64)
    n_records = code.size
    _, first = np.unique(code, return_index=True)  # first record per asin
    names = [columns.asin_names[k] for k in code[first].tolist()]
    kept = first[sorted(range(first.size), key=names.__getitem__)]
    n = kept.size
    # node of each asin code and of each kept record, -1 where there is none
    node_of_code = np.full(len(columns.asin_names), -1, dtype=np.int64)
    node_of_code[code[kept]] = np.arange(n)
    node_of_record = np.full(n_records, -1, dtype=np.int64)
    node_of_record[kept] = np.arange(n)
    owner = np.repeat(node_of_record, np.diff(np.array(columns.offsets, dtype=np.int64)))
    mine = owner >= 0
    src = owner[mine]
    dst = node_of_code[np.array(columns.refs, dtype=np.int64)[mine]]
    linked = (src != dst) & (dst >= 0)
    lo, hi = np.minimum(src, dst)[linked], np.maximum(src, dst)[linked]
    graph = LabeledGraph.from_arrays(n, *np.divmod(_unique(lo * n + hi), n))
    stats = ProductGraphStats(n_records, n_records - n, int(np.count_nonzero(dst < 0)),
                              int(np.count_nonzero(src == dst)))
    cat_codes = np.array(columns.main_cat, dtype=np.int64)[kept].tolist()
    return graph, [columns.category_names[k] for k in cat_codes], stats


@dataclass(frozen=True)
class CategoryPairSubgraph:
    name: str
    red_category: str
    blue_category: str
    graph: LabeledGraph
    coloring: Coloring


def category_pair_subgraphs(graph: LabeledGraph, categories: list[str],
                            min_nodes: int = 100) -> list[CategoryPairSubgraph]:
    """One labelled subgraph per category pair with enough cross-linked nodes.

    For a pair (c1, c2), the node set collects every node of either category
    with at least one neighbor of the other category (tested in the full
    graph), then the subgraph they induce. The lexicographically first
    category colors Red. Pairs with fewer than ``min_nodes`` nodes are
    skipped. Categories are compared as Python strings, so two that differ
    only by trailing NULs, which a numpy string array strips, stay apart.
    """
    if min_nodes < 1:
        raise ValueError("min_nodes must be at least 1")
    if len(categories) != graph.n:
        raise ValueError("categories length must equal the node count")
    code_of = {c: k for k, c in enumerate(sorted(set(categories)))}
    names = list(code_of)
    code = np.array([code_of[c] for c in categories], dtype=np.int64)
    cu, cv = code[graph.edge_u], code[graph.edge_v]
    cross = cu != cv
    # a cross edge's pair c1 < c2 is c1 * k + c2 over k categories; each end
    # is one (pair, node) row, keyed by the pair's rank so as to fit int64
    pair, rank = np.unique((np.minimum(cu, cv) * len(names)
                            + np.maximum(cu, cv))[cross], return_inverse=True)
    ends = np.concatenate([graph.edge_u[cross], graph.edge_v[cross]])
    rank_of, node = np.divmod(_unique(np.tile(rank, 2) * graph.n + ends), graph.n)
    starts = np.flatnonzero(np.diff(rank_of, prepend=-1))
    out = []
    for p, ids in zip(pair[rank_of[starts]].tolist(), np.split(node, starts[1:])):
        if ids.size < min_nodes:
            continue
        red, blue = divmod(p, len(names))
        c1, c2 = names[red], names[blue]
        coloring = Coloring(np.where(code[ids] == red, RED, BLUE))
        out.append(CategoryPairSubgraph(
            name=f"{c1}__{c2}", red_category=c1, blue_category=c2,
            graph=induced_subgraph(graph, NodeSet(ids)), coloring=coloring))
    return out


# ---------------------------------------------------------------------------
# Edge-list interchange format
# ---------------------------------------------------------------------------

def _checked_comments(g: LabeledGraph, c: Coloring, comments: Iterable[str]) -> list[str]:
    """``comments`` as a list, once they and the coloring are valid."""
    if c.n != g.n:
        raise ValueError("coloring length must equal the node count")
    comments = list(comments)
    if any(map(LINE_BREAK.search, comments)):
        raise ValueError("an edge-list comment cannot hold a line break")
    return comments


# edges per write of write_edgelist, which bounds its Python lists
_WRITE_BLOCK = 4096


def write_edgelist(g: LabeledGraph, c: Coloring, out: IO[str],
                   comments: Iterable[str] = ()) -> None:
    """Serialize canonically; optional comment lines go first. Edges go out
    as one string per block of ``_WRITE_BLOCK``, so no list is E long."""
    for text in _checked_comments(g, c, comments):
        out.write(f"# {text}\n")
    out.write(f"{g.n} {c.n_red} {c.n_blue}\n")
    out.write(c.labels() + "\n")
    for lo in range(0, g.num_edges, _WRITE_BLOCK):
        block = slice(lo, lo + _WRITE_BLOCK)
        out.write("".join([f"{u} {v} {w!r}\n" for u, v, w in zip(
            g.edge_u[block].tolist(), g.edge_v[block].tolist(),
            g.edge_w[block].tolist())]))


def read_edgelist(source: IO[str]) -> tuple[LabeledGraph, Coloring]:
    """Parse the edge-list format; errors name the first bad line.

    Python's ``int`` and ``float`` define which id and weight literals are
    accepted. numpy's C reader takes the common case in one call: on ASCII
    lines it accepts a subset of those literals and gives the same values.
    A body it rejects, with an error or any warning, is parsed line by line
    with ``str.split``, ``int`` and ``float``; ids must fit in int64.
    """
    lines = source.read().splitlines()
    at = 0
    while at < len(lines) and lines[at].startswith("#"):
        at += 1
    if at >= len(lines):
        raise IngestError("edge list: missing header line")
    header = lines[at].split()
    if len(header) != 3:
        raise IngestError(f"edge list: header must be 'n n_red n_blue', "
                          f"got {lines[at]!r}")
    try:
        n, n_red, n_blue = (int(x) for x in header)
    except ValueError:
        raise IngestError(f"edge list: non-integer header {lines[at]!r}") from None
    if at + 1 >= len(lines):
        raise IngestError("edge list: missing color line")
    color_line = lines[at + 1]
    if len(color_line) != n:
        raise IngestError(f"edge list: color line has {len(color_line)} "
                          f"characters, expected {n}")
    try:
        coloring = Coloring.from_labels(color_line)
    except ValueError as exc:
        raise IngestError(f"edge list: {exc}") from None
    if (coloring.n_red, coloring.n_blue) != (n_red, n_blue):
        raise IngestError("edge list: header color counts disagree with the "
                          "color line")
    body = lines[at + 2:]
    u, v, w = _edge_columns(body, at + 3)
    del lines, body  # free the text before the graph is built
    try:
        graph = LabeledGraph.from_arrays(n, u, v, w)
    except ValueError as exc:
        raise IngestError(f"edge list: {exc}") from None
    return graph, coloring


# the line boundaries of str.splitlines, on which read_edgelist splits
LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_INT64 = np.iinfo(np.int64)


def _edge_columns(body: list[str], first: int,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 ids and float weights of the 'u v w' lines ``body``, whose
    first line is line ``first`` of the file; blank lines are skipped.

    numpy's integer parser hands each character to C's ``isdigit``, which
    is undefined beyond ASCII: numpy 2.4 reads some such characters as
    digits and crashes on others, so only ASCII bodies reach it.
    """
    if all(map(str.isascii, body)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(body, dtype=_EDGE_ROW, comments=None, ndmin=1)
            return rows["u"], rows["v"], rows["w"]
        except (ValueError, Warning):
            pass
    u, v, w = [], [], []
    for lineno, line in enumerate(body, start=first):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 3:
            raise IngestError(f"edge list line {lineno}: expected 'u v w', "
                              f"got {line!r}")
        try:
            a, b, x = int(tokens[0]), int(tokens[1]), float(tokens[2])
            if not (_INT64.min <= min(a, b) and max(a, b) <= _INT64.max):
                raise ValueError("id outside int64")
        except ValueError:
            raise IngestError(f"edge list line {lineno}: bad edge {line!r}") from None
        u.append(a)
        v.append(b)
        w.append(x)
    return (np.array(u, dtype=np.int64), np.array(v, dtype=np.int64),
            np.array(w, dtype=np.float64))


def load_edgelist(path: str) -> tuple[LabeledGraph, Coloring]:
    with open(path, encoding="utf-8") as handle:
        return read_edgelist(handle)


def save_edgelist(g: LabeledGraph, c: Coloring, path: str,
                  comments: Iterable[str] = ()) -> None:
    """:func:`write_edgelist` to ``path``; a rejected call leaves it untouched."""
    comments = _checked_comments(g, c, comments)
    with open(path, "w", encoding="utf-8") as handle:
        write_edgelist(g, c, handle, comments)
