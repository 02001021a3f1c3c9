"""Dataset parsers and the plain edge-list interchange format.

Three external formats live here:

* a tolerant GML subset, whose grammar is given below;
* JSON-lines product metadata with the fields asin / main_cat / also_buy;
* the internal edge-list format: optional leading ``#`` comment lines, a
  header line ``n n_red n_blue``, one line of R/B color characters, then
  one ``u v w`` line per edge with u < v, sorted. Serialization is
  canonical, so parse -> serialize -> parse round-trips bit-identically.
  The body is parsed into columns (Python ``int`` / ``float`` per token).
  Graphs are built from edge arrays by ``LabeledGraph.from_arrays``.

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
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .graph import BLUE, RED, Coloring, LabeledGraph, NodeSet, induced_subgraph


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
    names = [node.label if node.label is not None else str(node.id) for node in kept]
    edges = np.array([(new_id[s], new_id[t]) for s, t in doc.edges
                      if s in new_id and t in new_id], dtype=np.int64).reshape(-1, 2)
    graph = LabeledGraph.from_arrays(len(kept), *edges.T, node_names=names)
    return graph, Coloring(colors)


# ---------------------------------------------------------------------------
# Amazon product metadata (JSON lines)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductRecord:
    asin: str
    main_cat: str
    also_buy: tuple[str, ...]


def parse_amazon_jsonl(lines: Iterable[str]) -> tuple[list[ProductRecord], int]:
    """Extract (asin, main_cat, also_buy) per line; malformed lines are
    counted and skipped, never fatal. Returns (records, skipped)."""
    records: list[ProductRecord] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
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
        records.append(ProductRecord(
            asin, main_cat, tuple(x for x in also_buy if isinstance(x, str))))
    return records, skipped


@dataclass
class ProductGraphStats:
    n_records: int = 0
    n_duplicate_asins: int = 0
    n_missing_refs: int = 0
    n_self_refs: int = 0


def build_product_graph(records: Iterable[ProductRecord],
                        ) -> tuple[LabeledGraph, list[str], ProductGraphStats]:
    """Undirected co-purchase graph over asins.

    Edges are the symmetrized union of also_buy references; self-references
    and references to absent asins are dropped (and counted). Node ids are
    assigned in sorted asin order so ingestion is input-order independent.
    """
    stats = ProductGraphStats()
    by_asin: dict[str, ProductRecord] = {}
    for rec in records:
        stats.n_records += 1
        if rec.asin in by_asin:
            stats.n_duplicate_asins += 1
            continue
        by_asin[rec.asin] = rec
    asins = sorted(by_asin)
    index = {a: i for i, a in enumerate(asins)}
    refs = [(i, index.get(t, -1)) for i, a in enumerate(asins)
            for t in by_asin[a].also_buy]
    src, dst = np.array(refs, dtype=np.int64).reshape(-1, 2).T
    stats.n_self_refs = int(np.count_nonzero(src == dst))
    stats.n_missing_refs = int(np.count_nonzero(dst < 0))
    linked = (src != dst) & (dst >= 0)
    lo, hi = np.minimum(src, dst)[linked], np.maximum(src, dst)[linked]
    # one unit-weight edge per linked pair, however often it is listed
    edges = np.divmod(np.unique(lo * len(asins) + hi), len(asins))
    graph = LabeledGraph.from_arrays(len(asins), *edges, node_names=asins)
    categories = [by_asin[a].main_cat for a in asins]
    return graph, categories, stats


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
    skipped.
    """
    if min_nodes < 1:
        raise ValueError("min_nodes must be at least 1")
    if len(categories) != graph.n:
        raise ValueError("categories length must equal the node count")
    names, code = np.unique(np.array(categories, dtype=str), return_inverse=True)
    cu, cv = code[graph.edge_u], code[graph.edge_v]
    cross = cu != cv
    # one (pair, node) row per end of a cross edge; the pair of category
    # codes c1 < c2 is c1 * k + c2 over k categories
    pair = (np.minimum(cu, cv) * names.size + np.maximum(cu, cv))[cross]
    ends = np.concatenate([graph.edge_u[cross], graph.edge_v[cross]])
    pair_of, node = np.unique(np.column_stack([np.tile(pair, 2), ends]), axis=0).T
    starts = np.flatnonzero(np.diff(pair_of, prepend=-1))
    out = []
    for p, ids in zip(pair_of[starts].tolist(), np.split(node, starts[1:])):
        if ids.size < min_nodes:
            continue
        red, blue = divmod(p, names.size)
        c1, c2 = str(names[red]), str(names[blue])
        coloring = Coloring(np.where(code[ids] == red, RED, BLUE))
        out.append(CategoryPairSubgraph(
            name=f"{c1}__{c2}", red_category=c1, blue_category=c2,
            graph=induced_subgraph(graph, NodeSet(ids)), coloring=coloring))
    return out


# ---------------------------------------------------------------------------
# Edge-list interchange format
# ---------------------------------------------------------------------------

def write_edgelist(g: LabeledGraph, c: Coloring, out: IO[str],
                   comments: Iterable[str] = ()) -> None:
    """Serialize canonically; optional comment lines go first."""
    if c.n != g.n:
        raise ValueError("coloring length must equal the node count")
    for text in comments:
        out.write(f"# {text}\n")
    out.write(f"{g.n} {c.n_red} {c.n_blue}\n")
    out.write(c.labels() + "\n")
    for u, v, w in g.edges():
        out.write(f"{u} {v} {w!r}\n")


def read_edgelist(source: IO[str]) -> tuple[LabeledGraph, Coloring]:
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
    sizes = np.fromiter(map(len, map(str.split, body)), dtype=np.int64,
                        count=len(body))
    wrong = np.flatnonzero((sizes != 3) & (sizes != 0))
    # lines before the first wrong-length line are parsed first, so the
    # earliest bad line is the one reported
    end = int(wrong[0]) if wrong.size else len(body)
    try:
        u, v, w = _edge_columns(" ".join(body[:end]).split())
    except (ValueError, OverflowError):
        for bad in range(end):
            try:
                _edge_columns(body[bad].split())
            except (ValueError, OverflowError):
                break
        raise IngestError(f"edge list line {at + 3 + bad}: bad edge "
                          f"{body[bad]!r}") from None
    if wrong.size:
        raise IngestError(f"edge list line {at + 3 + end}: expected 'u v w', "
                          f"got {body[end]!r}")
    del lines, body  # free the text before the graph is built
    try:
        graph = LabeledGraph.from_arrays(n, u, v, w)
    except ValueError as exc:
        raise IngestError(f"edge list: {exc}") from None
    return graph, coloring


def _edge_columns(tokens: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 ids and float weights of 'u v w' tokens, each parsed by Python's
    int or float; an id outside int64 raises OverflowError."""
    k = len(tokens) // 3
    u, v = (np.fromiter(map(int, tokens[i::3]), np.int64, k) for i in (0, 1))
    return u, v, np.fromiter(map(float, tokens[2::3]), np.float64, k)


def load_edgelist(path: str) -> tuple[LabeledGraph, Coloring]:
    with open(path, encoding="utf-8") as handle:
        return read_edgelist(handle)


def save_edgelist(g: LabeledGraph, c: Coloring, path: str,
                  comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_edgelist(g, c, handle, comments)
