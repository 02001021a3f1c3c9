"""Pareto fronts, normalized density, per-algorithm summaries, CSV plumbing.

Failed runs (status other than Found) receive normalized density 0 and are
the ones counted as unfair in summaries. Floats in CSV output use 9
significant digits, which re-parses well within 1e-9.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from typing import IO, Iterable, Mapping

import numpy as np

from .graph import Coloring, LabeledGraph
from .sweep import SolutionRecord, SolveStatus

RESULT_FIELDS = [
    "algorithm", "instance", "n", "n_red", "n_blue", "edges",
    "sol_size", "sol_red", "sol_blue", "density", "balance",
    "normalized_density", "fair", "status", "runtime_ms", "seed",
]


def format_float(x: float) -> str:
    return f"{x:.9g}"


def pareto_front(density: np.ndarray, balance: np.ndarray,
                 size: np.ndarray) -> np.ndarray:
    """Indices of the maximal points under (density, balance) dominance,
    density-descending.

    p dominates q when p is at least as good in both coordinates and
    strictly better in one. Ranked by density, then balance, descending,
    a point is maximal iff its balance beats every earlier one; so of equal
    (density, balance) pairs only the first, the smallest size, is kept.
    """
    balance = np.asarray(balance)
    order = np.lexsort((size, -balance, -np.asarray(density)))
    ranked = balance[order]
    beats = np.ones(ranked.size, dtype=bool)
    beats[1:] = ranked[1:] > np.maximum.accumulate(ranked)[:-1]
    return order[beats]


def normalized_density(record: SolutionRecord, optimum: float) -> float:
    """record density / unconstrained optimum density; 0 for failed runs."""
    if optimum <= 0.0:
        raise ValueError("zero unconstrained optimum; normalization undefined")
    if record.status is not SolveStatus.FOUND:
        return 0.0
    return record.density / optimum


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    runs: int
    pct_unfair: float
    nd_median: float
    nd_q1: float
    nd_q3: float


def summarize(entries: Iterable[tuple[str, float, bool]]) -> list[SummaryRow]:
    """Aggregate (algorithm, normalized density, unfair?) triples.

    Unfair runs contribute their (zero) normalized density to the
    distribution and to the unfair percentage.
    """
    grouped: dict[str, list[tuple[float, bool]]] = {}
    for algorithm, nd, unfair in entries:
        grouped.setdefault(algorithm, []).append((nd, unfair))
    out = []
    for algorithm in sorted(grouped):
        values = grouped[algorithm]
        nds = np.array([nd for nd, _ in values], dtype=np.float64)
        unfair_count = sum(1 for _, unfair in values if unfair)
        q1, med, q3 = np.percentile(nds, [25.0, 50.0, 75.0])
        out.append(SummaryRow(
            algorithm=algorithm, runs=len(values),
            pct_unfair=100.0 * unfair_count / len(values),
            nd_median=float(med), nd_q1=float(q1), nd_q3=float(q3)))
    return out


@dataclass(frozen=True)
class RunManifest:
    """Provenance header embedded in every CLI output file."""

    command: str
    argv: tuple[str, ...]
    inputs: tuple[str, ...]
    algorithm: str | None
    delta: float | None
    tol: float
    max_iters: int
    seed: int
    version: str

    def to_comment(self) -> str:
        return "manifest: " + json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_comment(cls, comment: str) -> "RunManifest":
        """Inverse of :meth:`to_comment`; ValueError unless the payload is a
        JSON object with exactly the manifest's fields and list-valued
        ``argv`` and ``inputs``."""
        prefix = "manifest: "
        if not comment.startswith(prefix):
            raise ValueError(f"not a manifest comment: {comment!r}")
        try:
            payload = json.loads(comment[len(prefix):])
        except RecursionError:
            raise ValueError("manifest comment nests too deeply") from None
        names = {f.name for f in fields(cls)}
        if (not isinstance(payload, dict) or payload.keys() != names
                or not isinstance(payload["argv"], list)
                or not isinstance(payload["inputs"], list)):
            raise ValueError(f"manifest comment is not a JSON object with the "
                             f"fields {', '.join(sorted(names))} and list-valued "
                             f"argv and inputs")
        return cls(**{**payload, "argv": tuple(payload["argv"]),
                      "inputs": tuple(payload["inputs"])})


def result_row(algorithm: str, record: SolutionRecord, *, instance: str,
               g: LabeledGraph, c: Coloring, normalized: float, seed: int,
               runtime_s: float | None = None) -> dict[str, str]:
    """One run-CSV row; ``runtime_ms`` is empty unless ``runtime_s`` is given."""
    return {
        "algorithm": algorithm,
        "instance": instance,
        "n": str(g.n),
        "n_red": str(c.n_red),
        "n_blue": str(c.n_blue),
        "edges": str(g.num_edges),
        "sol_size": str(record.size),
        "sol_red": str(record.n_red_in_s),
        "sol_blue": str(record.n_blue_in_s),
        "density": format_float(record.density),
        "balance": format_float(record.balance),
        "normalized_density": format_float(normalized),
        "fair": "true" if record.fair else "false",
        "status": record.status.value,
        "runtime_ms": "" if runtime_s is None else format_float(runtime_s * 1000.0),
        "seed": str(seed),
    }


def write_csv(out: IO[str], fieldnames: list[str],
              rows: Iterable[Mapping[str, str]],
              manifest: RunManifest | None = None) -> None:
    if manifest is not None:
        out.write(f"# {manifest.to_comment()}\n")
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def read_csv(source: IO[str]) -> tuple[RunManifest | None, list[dict[str, str]]]:
    manifest = None
    lines = []
    for number, line in enumerate(source, 1):
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("manifest: "):
                manifest = RunManifest.from_comment(comment)
            continue
        lines.append((number, line))
    reader = csv.DictReader(line for _, line in lines)
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        line = lines[reader.reader.line_num - 1][0]
        raise ValueError(f"CSV line {line}: {exc}") from None
    return manifest, rows
