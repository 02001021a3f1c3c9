"""Fair densest subgraph discovery on 2-colored graphs.

Library layout:

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

from .graph import (BLUE, RED, Coloring, LabeledGraph, NodeSet, balance,
                    color_counts, density, imbalance, induced_subgraph, is_fair)
from .spectral import (ConvergenceError, EigenPair, ProjectedOperator,
                       SpectralProfile, dominant_eigenpair, spectral_profile)
from .sweep import (ALL_ORDERINGS, Ordering, SolutionRecord, SolveStatus,
                    candidate_trace, general_sweep, paired_sweep, run_algorithm)
from .flow import DensestResult, exact_densest_subgraph, two_dfsg
from .oracle import ORACLE_MAX_N, OracleResult, brute_force_densest
from .planted import (PlantedInstance, PlantedParams, RecoveryReport,
                      recovery_error, run_recovery)
from .report import SummaryRow, normalized_density, pareto_front, summarize

__all__ = [
    "__version__",
    "BLUE", "RED", "Coloring", "LabeledGraph", "NodeSet",
    "balance", "color_counts", "density", "imbalance", "induced_subgraph",
    "is_fair",
    "ConvergenceError", "EigenPair", "ProjectedOperator", "SpectralProfile",
    "dominant_eigenpair", "spectral_profile",
    "ALL_ORDERINGS", "Ordering", "SolutionRecord", "SolveStatus",
    "candidate_trace", "general_sweep", "paired_sweep", "run_algorithm",
    "DensestResult", "exact_densest_subgraph", "two_dfsg",
    "ORACLE_MAX_N", "OracleResult", "brute_force_densest",
    "PlantedInstance", "PlantedParams", "RecoveryReport", "recovery_error",
    "run_recovery",
    "SummaryRow", "normalized_density", "pareto_front", "summarize",
]
