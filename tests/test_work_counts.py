"""Work counts as contracts: on fixed small inputs, the matvecs of each
eigensolve and the max-flow solves of the exact solver stay at or below the
values measured when the table was set. A change that lowers a count
tightens its bound here; raising a bound loosens the contract."""

from __future__ import annotations

import numpy as np
import pytest

from fairdsg.flow import exact_densest_subgraph
from fairdsg.graph import LabeledGraph
from fairdsg.planted import PlantedParams, generate
from fairdsg.spectral import ProjectedOperator, dominant_eigenpair, second_eigenvalue


@pytest.fixture(scope="module")
def planted():
    """The planted seed-1 graph, its coloring and its top eigenpair."""
    inst = generate(PlantedParams(n=2000, m=400, d=64, eps=0.05, p_bg=0.001, seed=1))
    return inst.graph, inst.coloring, dominant_eigenpair(inst.graph, seed=1)


def _uniform() -> LabeledGraph:
    """A weighted uniform graph of 2,000 nodes and 8,000 edge draws."""
    rng = np.random.default_rng(1)
    u, v = rng.integers(0, 2000, (2, 8000))
    return LabeledGraph.from_arrays(2000, u, v, rng.uniform(0.1, 2.0, 8000))


# (name, how the count is taken from the planted fixture or its own input,
# bound)
TABLE = [
    ("planted-lambda1-matvecs", lambda p: p[2].iterations, 12),
    ("planted-projected-lambda1-matvecs",
     lambda p: dominant_eigenpair(ProjectedOperator(p[0], p[1]), seed=1).iterations, 12),
    ("planted-lambda2-matvecs",
     lambda p: second_eigenvalue(p[0], p[2], seed=1).iterations, 105),
    ("planted-exact-solves",
     lambda p: exact_densest_subgraph(p[0]).iterations, 1),
    ("uniform-exact-solves",
     lambda p: exact_densest_subgraph(_uniform()).iterations, 3),
]


@pytest.mark.parametrize("name, count, bound", TABLE, ids=[row[0] for row in TABLE])
def test_work_count_stays_within_its_bound(planted, name, count, bound):
    assert count(planted) <= bound, name
