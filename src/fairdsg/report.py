"""Pareto fronts, normalized density, per-algorithm summaries, CSV plumbing.

Failed runs (status other than Found) receive normalized density 0 and are
the ones counted as unfair in summaries.

Rows hold raw values, and :func:`write_csv` alone turns each into a cell:
None is empty, a bool (numpy's too) is ``true`` or ``false``, a float has 9
significant digits (:func:`format_float`, which re-parses well within 1e-9),
an Enum is its value, and anything else is its ``str``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import IO, Iterable, Mapping

import numpy as np

from .graph import Coloring, LabeledGraph
from .sweep import SolutionRecord, SolveStatus

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
    """Provenance header embedded in every CLI output file.

    ``max_iters`` records the eigensolver's fixed matvec cap,
    :data:`fairdsg.spectral.MAX_MATVECS`, so that older files still parse.
    """

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
               runtime_s: float | None = None) -> dict[str, object]:
    """One run-CSV row, keyed by column in order; ``runtime_ms`` is empty
    unless ``runtime_s`` is given."""
    return {
        "algorithm": algorithm, "instance": instance,
        "n": g.n, "n_red": c.n_red, "n_blue": c.n_blue, "edges": g.num_edges,
        "sol_size": record.size, "sol_red": record.n_red_in_s,
        "sol_blue": record.n_blue_in_s, "density": record.density,
        "balance": record.balance, "normalized_density": normalized,
        "fair": record.fair, "status": record.status,
        "runtime_ms": None if runtime_s is None else runtime_s * 1000.0,
        "seed": seed,
    }


def _cell(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Enum):
        return value.value
    return "" if value is None else str(value)


def write_csv(out: IO[str], fieldnames: list[str],
              rows: Iterable[Mapping[str, object]],
              manifest: RunManifest | None = None) -> None:
    """The manifest comment, a header and the rows, cells by the module's rule."""
    if manifest is not None:
        out.write(f"# {manifest.to_comment()}\n")
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({name: _cell(value) for name, value in row.items()})


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
