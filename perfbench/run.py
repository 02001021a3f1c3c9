"""Benchmark of the fairdsg command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload run-10k --seed 1 --seconds 10 --trace 0

Every workload runs its CLI commands through ``fairdsg.cli.main(argv)`` in
this one process, with BLAS pinned to one thread. A run sets the workload
up several times and reports as ``setup_s`` the median time a set-up spends
in fairdsg: a fresh interpreter importing the CLI, plus the fairdsg calls
that make the inputs. With ``--trace 0`` it then repeats passes over the
workload's commands for about ``--seconds``, at least once, and reports the
end-to-end metrics. With
``--trace 1`` it traces one more set-up, runs a traced, an untraced and a
traced pass, and reports the per-layer metrics of the first traced pass; the
two traced passes must repeat every work counter exactly.

Every command's exit code and outputs are checked, and a repeated command
must write byte-identical files. The metric names and units are the ones
BENCHMARK.json declares. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
provenance. The full result and the traced spans go to ``perfbench/out``.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy is first imported
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# relative slack for densities that went through 9-significant-digit CSV text
CSV_RTOL = 1e-8


@dataclass
class Command:
    argv: list[str]
    outputs: list[str] = field(default_factory=list)
    code: int | None = None
    error: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle
                                   if not line.startswith("#")))


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = sorted(str(p) for p in Path(path).rglob("*") if p.is_file()) \
            if os.path.isdir(path) else [path]
        for name in files:
            h.update(name.encode())
            with open(name, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


class Harness:
    """Runs CLI commands in-process, capturing their stdout and stderr."""

    def __init__(self):
        import fairdsg.cli
        self.cli = fairdsg.cli

    def run(self, argv: list[str], outputs: list[str]) -> Command:
        cmd = Command(list(argv), list(outputs))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up on every call, so an installed tracer sees it
                cmd.code = self.cli.main(list(argv))
        except Exception:  # a crash is a failed command, not a dead benchmark
            cmd.error = traceback.format_exc()
        else:
            cmd.error = err.getvalue()
        return cmd


def input_of(cmd: Command) -> str:
    return cmd.argv[cmd.argv.index("--input") + 1]


def certify_inputs(cmds: list[Command], optima: dict[str, float]) -> None:
    """Add to ``optima`` the exact optimum of each new input of ``cmds``.

    ``certify.py`` computes them without fairdsg, in a child process so
    that SciPy stays out of this process's peak RSS.
    """
    todo = sorted({input_of(cmd) for cmd in cmds if cmd.code == 0} - optima.keys())
    if todo:
        done = subprocess.run([sys.executable, str(HERE / "certify.py"), *todo],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        optima.update(json.loads(done.stdout))


def check_run_row(cmd: Command, row: dict[str, str],
                  optima: dict[str, float]) -> float:
    """Checks every run row gets; returns its normalized density.

    The exact optimum the CLI normalized by (density over normalized
    density) must be the one in ``optima``, from ``certify_inputs``, so a
    flow solver that returns a worse optimum fails here rather than raising
    every normalized density.
    """
    nd = float(row["normalized_density"])
    expected = optima[input_of(cmd)]
    if nd <= 0.0:
        cmd.problems.append(f"normalized density {nd}: the optimum it was "
                            f"normalized by cannot be checked")
    elif abs(float(row["density"]) / nd - expected) > CSV_RTOL * expected:
        cmd.problems.append(f"exact optimum {float(row['density']) / nd} is not "
                            f"the optimum {expected} computed without fairdsg")
    if row["algorithm"] in ("ps", "fps") and (row["status"] != "Found"
                                              or row["fair"] != "true"):
        cmd.problems.append(f"{row['algorithm']}: status {row['status']}, "
                            f"fair {row['fair']}")
    # padding at most doubles the optimum's size and keeps its edges
    if (row["algorithm"] == "2dfsg" and row["n_red"] == row["n_blue"]
            and (row["fair"] != "true" or nd < 0.5 * (1.0 - CSV_RTOL))):
        cmd.problems.append(f"2dfsg on a balanced graph: fair={row['fair']}, "
                            f"normalized {nd}")
    return nd


# ---------------------------------------------------------------------------
# Workloads. ``prepare`` writes ``inputs`` and returns the seconds it spent
# in fairdsg; ``run_pass`` runs one pass of CLI commands; ``check`` records
# problems on the commands and returns {algorithm: normalized densities of
# its solutions}.
# ---------------------------------------------------------------------------

class RunLarge:
    """run-10k: fss and 2dfsg on one large planted graph.

    Both normalize by the exact optimum, one large flow network with an
    integer optimum, and 2dfsg solves it twice. Set-up needs only the graph,
    so the generator's eigenvalue measurement runs at a loose tolerance; the
    graph itself does not depend on it.
    """

    name = "run-10k"
    params = dict(n=10000, m=400, d=64, eps=0.05, p_bg=0.0005)
    inputs = ["planted.el"]

    def __init__(self):
        self.optima: dict[str, float] = {}

    def prepare(self, seed: int) -> float:
        from fairdsg.ingest import save_edgelist
        from fairdsg.planted import PlantedParams, generate
        t0 = time.perf_counter()
        inst = generate(PlantedParams(seed=seed, **self.params), eig_tol=1e-3)
        save_edgelist(inst.graph, inst.coloring, "planted.el")
        return time.perf_counter() - t0

    def run_pass(self, h: Harness) -> list[Command]:
        return [h.run(["run", "--input", "planted.el", "--algorithm", a, "--out",
                       f"{a}.csv"], [f"{a}.csv"]) for a in ("fss", "2dfsg")]

    def check(self, cmds: list[Command]) -> dict[str, list[float]]:
        certify_inputs(cmds, self.optima)
        nds: dict[str, list[float]] = {}
        for cmd in cmds:
            if cmd.code != 0:
                continue
            row, = read_rows(cmd.outputs[0])
            nd = check_run_row(cmd, row, self.optima)
            if row["status"] != "Found":
                cmd.problems.append(f"status {row['status']}")
            nds.setdefault(row["algorithm"], []).append(nd)
        return nds


class AmazonPipeline:
    """amazon-pipeline: ingest a synthetic product corpus, then run fps and
    2dfsg on every category pair and summarize.

    The shape of the paper's experiments: ingestion, then many small sparse
    flow networks with fractional optima.
    """

    name = "amazon-pipeline"
    inputs = ["meta.jsonl"]

    def __init__(self):
        self.optima: dict[str, float] = {}

    def prepare(self, seed: int) -> float:
        """Writes the corpus; no fairdsg code runs, so none is timed."""
        from corpus import write_corpus
        write_corpus("meta.jsonl", seed)
        os.makedirs("runs", exist_ok=True)
        return 0.0

    def run_pass(self, h: Harness) -> list[Command]:
        shutil.rmtree("pairs", ignore_errors=True)
        cmds = [h.run(["ingest-amazon", "--input", "meta.jsonl", "--out-dir",
                       "pairs", "--min-nodes", "100"], ["pairs"])]
        if cmds[0].code != 0:
            return cmds
        outs = []
        for row in read_rows("pairs/index.csv"):
            stem = row["file"][:-len(".el")]
            for a in ("fps", "2dfsg"):
                out = f"runs/{a}_{stem}.csv"
                cmds.append(h.run(["run", "--input", f"pairs/{row['file']}",
                                   "--algorithm", a, "--out", out], [out]))
                outs.append(out)
        cmds.append(h.run(["summary", "--input", *outs, "--out", "summary.csv"],
                          ["summary.csv"]))
        return cmds

    def check(self, cmds: list[Command]) -> dict[str, list[float]]:
        ingest, runs, summary = cmds[0], cmds[1:-1], cmds[-1]
        if ingest.code != 0:
            return {}
        if not runs:
            ingest.problems.append("no category pair reached --min-nodes")
            return {}
        certify_inputs(runs, self.optima)
        nds: dict[str, list[float]] = {}
        for cmd in runs:
            if cmd.code != 0:
                continue
            row, = read_rows(cmd.outputs[0])
            nds.setdefault(row["algorithm"], []).append(
                check_run_row(cmd, row, self.optima))
        if summary.code == 0:
            counted = sum(int(r["runs"]) for r in read_rows(summary.outputs[0]))
            if counted != len(runs):
                summary.problems.append(f"summary counts {counted} runs, "
                                        f"{len(runs)} were made")
        return nds


WORKLOADS = {w.name: w for w in (RunLarge, AmazonPipeline)}

# layer metrics that only the set-up produces; the traced run reports them
# from one traced set-up, under a "setup." prefix
SETUP_ONLY = ("planted.generate_self_s", "planted.edges", "planted.self_s",
              "spectral.spectral_profile_s", "spectral.second_eigenvalue_s")
SETUP_TRACED = SETUP_ONLY[:2] + SETUP_ONLY[3:] + (
    "spectral.dominant_eigenpair_s", "spectral.iterations", "graph.matvec_calls",
    "graph.matvec_s", "graph.from_edges_s", "ingest.write_edgelist_s")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def installed(tracer):
    """Trace the enclosed calls with ``tracer``, if one is given."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def import_seconds() -> float:
    """Wall time of importing the CLI in a fresh interpreter.

    The child times its own import: timing the child from here would add
    interpreter start-up and round up to the 50 ms steps in which
    ``subprocess`` polls a child that has a timeout.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", "import time; t0 = time.perf_counter(); "
         "import fairdsg.cli; print(time.perf_counter() - t0)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Runner:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.harness = Harness()
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.nd_values: dict[str, list[float]] = {}

    def prepare(self, tracer=None) -> float:
        """Make the inputs once; they must be byte-identical every time.

        Returns the seconds the set-up spent in fairdsg.
        """
        with installed(tracer):
            elapsed = self.workload.prepare(self.seed)
        fingerprint = digest(self.workload.inputs)
        if self.digests.setdefault(("inputs",), fingerprint) != fingerprint:
            self.failures.append("set-up wrote different inputs for the same seed")
        return elapsed

    def setup(self) -> float:
        """Median over set-ups of a fresh import of the CLI plus ``prepare``."""
        return statistics.median(import_seconds() + self.prepare()
                                 for _ in range(SETUP_REPEATS))

    def one_pass(self, tracer=None) -> float:
        """Run, time, fingerprint and check one pass; return its wall time."""
        with installed(tracer):
            t0 = time.perf_counter()
            cmds = self.workload.run_pass(self.harness)
            elapsed = time.perf_counter() - t0
        try:
            nds = self.workload.check(cmds)
        except (OSError, ValueError, KeyError,
                subprocess.SubprocessError) as exc:  # unreadable outputs
            cmds[-1].problems.append(f"outputs could not be checked: {exc!r}")
            nds = {}
        for k, cmd in enumerate(cmds):
            if cmd.code != 0:
                continue
            fingerprint = digest(cmd.outputs)
            if self.digests.setdefault((k, *cmd.argv), fingerprint) != fingerprint:
                cmd.problems.append("outputs differ from the first run of "
                                    "the same command")
        self.attempted += len(cmds)
        for cmd in cmds:
            if not cmd.ok:
                detail = "; ".join(cmd.problems) or cmd.error.strip()[-2000:]
                self.failures.append(f"{' '.join(cmd.argv)}: exit {cmd.code}: {detail}")
        for algorithm, values in nds.items():
            self.nd_values.setdefault(algorithm, []).extend(values)
        return elapsed


def end_to_end(args, runner: Runner) -> tuple[dict, dict]:
    """Timed set-up, then untraced passes for about --seconds.

    Another pass starts only while it is expected to end within --seconds,
    so a run measures whole passes, at least one. ``wall_s`` is their mean:
    on a shared host the CPU speed can switch between levels every few
    seconds, and the median of the passes then jumps between those levels
    where the mean over the run does not.
    """
    setup_s = runner.setup()
    times: list[float] = []
    cpu: list[float] = []
    while not times or sum(times) + statistics.mean(times) <= args.seconds:
        c0 = time.process_time()
        times.append(runner.one_pass())
        cpu.append(time.process_time() - c0)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.mean(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the worst algorithm's median, as `fairdsg summary` computes it
        "nd_median": min((statistics.median(v) for v in runner.nd_values.values()),
                         default=0.0),
    }
    return metrics, {"pass_times": times, "pass_cpu": cpu}


def per_layer(args, runner: Runner) -> tuple[dict, dict]:
    """One traced set-up, then a traced, an untraced and a traced pass.

    The two traced passes must repeat every work counter exactly. The
    per-layer metrics come from the first; the tracing overhead is the mean
    traced pass time minus the untraced one, which sits between them.
    """
    import tracer as tracing
    setup_tracer = tracing.Tracer()
    traced_setup = runner.prepare(setup_tracer)
    first, second = tracing.Tracer(), tracing.Tracer()
    traced = runner.one_pass(first)
    untraced = runner.one_pass()
    traced_again = runner.one_pass(second)
    counts = tracing.counters(first.spans)
    again = tracing.counters(second.spans)
    if counts != again:
        diff = {k: (counts.get(k), again.get(k))
                for k in sorted(counts.keys() | again.keys())
                if counts.get(k) != again.get(k)}
        runner.failures.append(f"work counters differ between two traced "
                               f"passes: {diff}")
    metrics = {k: v for k, v in tracing.layer_metrics(first.spans).items()
               if k not in SETUP_ONLY}
    in_setup = tracing.layer_metrics(setup_tracer.spans)
    metrics.update({f"setup.{k}": in_setup[k] for k in SETUP_TRACED})
    metrics.update({"trace.setup_s": traced_setup, "trace.wall_s": traced,
                    "trace.overhead_s": (traced + traced_again) / 2 - untraced,
                    "trace.spans": float(len(first.spans))})
    stem = OUT / f"spans-{args.workload}-{args.seed}"
    setup_tracer.dump(f"{stem}-setup.jsonl.gz")
    first.dump(f"{stem}-pass.jsonl.gz")
    return metrics, {"untraced_s": untraced, "counters": counts}


def provenance(args) -> dict:
    try:
        # the ceiling keeps git from searching directories above the checkout
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                             ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    import numpy
    return {"git_revision": rev or "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairdsg" / "__init__.py").is_file():
        print(f"perfbench: no fairdsg sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        runner = Runner(WORKLOADS[args.workload](), args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(args, runner)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    prov = provenance(args)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump({"provenance": prov, "result": result, "all_metrics": metrics,
                   "detail": detail, "failures": runner.failures},
                  handle, indent=1, sort_keys=True)
    for failure in runner.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
