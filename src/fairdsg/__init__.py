"""Fair densest subgraph discovery on 2-colored graphs.

Only ``__version__`` lives here; import every other name from its module:

* :mod:`fairdsg.graph` — graph/coloring containers, density and balance
* :mod:`fairdsg.spectral` — fairness vector, projected operator, eigensolver
* :mod:`fairdsg.sweep` — general and paired sweep rounding (ss/fss/ps/fps)
* :mod:`fairdsg.flow` — exact densest subgraph via max-flow, fair 2-approx
* :mod:`fairdsg.oracle` — exhaustive ground truth for small instances
* :mod:`fairdsg.planted` — planted-instance generator and recovery bounds
* :mod:`fairdsg.ingest` — GML / JSON-lines parsers, edge-list format
* :mod:`fairdsg.report` — Pareto fronts, normalized density, summaries
* :mod:`fairdsg.cli` — the ``fairdsg`` command
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
