"""Seeded synthetic product-metadata corpus in the JSON-lines shape that
``fairdsg ingest-amazon`` reads (``asin``, ``main_cat``, ``also_buy``).

Products fall into four categories, so there are six category pairs. Each
product lists a few co-purchases, mostly inside its own category. Some
products also belong to a "bundle" of products from two categories that are
bought together; bundles are the dense cross-category cores of the
category-pair graphs, with fractional optima. Every pair gets the same
bundle shapes, so the solvers' work on a pair changes little with the seed,
which picks the members and the links. The corpus also carries the
defects real dumps have, so the parser's skip and count paths run: malformed
lines, JSON that is not an object, records missing a field, duplicate asins,
self-references and references to asins not in the corpus.

The size, 4000 products in four categories, is the shape the workload was
planned with. The bundle shapes, link rates and defect rates are not
measured from a real dump: they are set so that every pair has
cross-category dense cores and every skip path runs on some tens of lines.
"""

from __future__ import annotations

import itertools
import json
import random

CATEGORIES = ("Books", "Movies & TV", "Toys & Games", "Electronics")
N_PRODUCTS = 4000
# The bundles of every pair, as (products of the pair's first category, of
# its second, link rate). The first is clearly the densest and unbalanced,
# so 2dfsg pads every pair's optimum, and the leading eigenvalue stands
# apart, so the eigensolves of a pair take about as long for any seed.
PAIR_BUNDLES = ((10, 6, 0.85),) + ((6, 4, 0.6),) * 5 + ((4, 4, 0.5),) * 6


def _asin(rng: random.Random) -> str:
    return "B" + "".join(rng.choice("0123456789ABCDEFGHJKLMNPQRSTUVWXYZ")
                         for _ in range(9))


def make_corpus(seed: int) -> list[str]:
    """Lines of one corpus; the same seed gives the same lines."""
    rng = random.Random(seed)
    asins: list[str] = []
    seen: set[str] = set()
    while len(asins) < N_PRODUCTS:
        a = _asin(rng)
        if a not in seen:
            seen.add(a)
            asins.append(a)
    cats = [CATEGORIES[i % len(CATEGORIES)] for i in range(N_PRODUCTS)]
    rng.shuffle(cats)
    by_cat: dict[str, list[int]] = {c: [] for c in CATEGORIES}
    for i, c in enumerate(cats):
        by_cat[c].append(i)
    # bundles: products of two categories that are bought together, the
    # dense cores the densest-subgraph solvers should find; no product is
    # in two bundles
    free = {c: rng.sample(ids, len(ids)) for c, ids in by_cat.items()}
    bundle_of: dict[int, tuple[list[int], float]] = {}
    for first, second in itertools.combinations(CATEGORIES, 2):
        for n_first, n_second, rate in PAIR_BUNDLES:
            bundle = ([free[first].pop() for _ in range(n_first)]
                      + [free[second].pop() for _ in range(n_second)])
            for i in bundle:
                bundle_of[i] = (bundle, rate)

    lines = []
    for i in range(N_PRODUCTS):
        refs: list[str] = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.65:
                j = rng.choice(by_cat[cats[i]])
            else:
                j = rng.randrange(N_PRODUCTS)
            refs.append(asins[j])
        bundle, rate = bundle_of.get(i, ((), 0.0))
        refs += [asins[j] for j in bundle if j != i and rng.random() < rate]
        if rng.random() < 0.03:
            refs.append(asins[i])          # self-reference
        if rng.random() < 0.05:
            refs.append(_asin(rng) + "X")  # asin absent from the corpus
        record = {"asin": asins[i], "main_cat": cats[i], "also_buy": refs,
                  "title": f"product {i}"}
        lines.append(json.dumps(record))
        if rng.random() < 0.02:            # duplicate asin, later copy ignored
            dup = dict(record, also_buy=refs[:1])
            lines.append(json.dumps(dup))
        roll = rng.random()
        if roll < 0.01:
            lines.append('{"asin": "' + asins[i] + '", "main_cat": ')  # truncated
        elif roll < 0.015:
            lines.append(json.dumps([asins[i], cats[i]]))              # not an object
        elif roll < 0.02:
            lines.append(json.dumps({"asin": _asin(rng)}))             # no category
        elif roll < 0.025:
            lines.append("")                                           # blank line
    return lines


def write_corpus(path: str, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in make_corpus(seed):
            handle.write(line + "\n")
