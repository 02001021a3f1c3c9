"""Span tracer that wraps fairdsg's public functions from outside the package.

While installed, every public function of each layer module is replaced, at
every fairdsg module attribute that binds it, by a wrapper that records a
span: its name, layer, start, end, the span that called it and the root span
(one CLI command) it belongs to. Internal calls that look the function up as
a module global are traced too, because the global is the patched attribute.
Spans stay in memory and are dumped when the run ends; ``uninstall`` restores
every original binding.

Some spans also carry deterministic work counts taken from the call's
arguments or result (eigensolver iterations, arcs in a flow network,
candidates a sweep scans, ...). They are the counters the benchmark asserts
to repeat exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
import types

LAYERS = ("graph", "spectral", "sweep", "flow", "planted", "ingest", "report",
          "cli")

# LabeledGraph methods traced as graph-layer spans
GRAPH_METHODS = ("matvec", "from_edges")


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _general_sweep(fn, args, kwargs, result):
    g = _arg(fn, args, kwargs, "g")
    return {"candidates": g.n * len(_arg(fn, args, kwargs, "orderings"))}


def _paired_sweep(fn, args, kwargs, result):
    c = _arg(fn, args, kwargs, "c")
    return {"candidates": min(c.n_red, c.n_blue)
            * len(_arg(fn, args, kwargs, "orderings"))}


def _max_flow(fn, args, kwargs, result):
    net = _arg(fn, args, kwargs, "net")
    _, side = result
    inner = sum(1 for u in side if u not in (net.source, net.sink))
    return {"arcs": net.num_arcs, "nonempty": int(inner > 0)}


def _main(fn, args, kwargs, result):
    argv = _arg(fn, args, kwargs, "argv")
    return {"command": argv[0] if argv else ""}


# function name -> f(fn, args, kwargs, result) -> work counts of the span
OBSERVERS = {
    "dominant_eigenpair": lambda fn, a, k, r: {"iterations": r.iterations},
    "second_eigenvalue": lambda fn, a, k, r: {"iterations": r.iterations},
    "exact_densest_subgraph": lambda fn, a, k, r: {"bisection": r.iterations,
                                                   "size": r.node_set.size},
    "max_flow": _max_flow,
    "two_dfsg": lambda fn, a, k, r: {"size": r.size},
    "general_sweep": _general_sweep,
    "paired_sweep": _paired_sweep,
    "generate": lambda fn, a, k, r: {"edges": r.graph.num_edges},
    "parse_amazon_jsonl": lambda fn, a, k, r: {"records": len(r[0]),
                                               "skipped": r[1]},
    "category_pair_subgraphs": lambda fn, a, k, r: {"pairs": len(r)},
    "main": _main,
}


class Tracer:
    """Spans as lists [id, parent, root, name, layer, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][2] if parent >= 0 else sid
            span = [sid, parent, root, name, layer, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[5] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = clock()
                stack.pop()
            if observe is not None:
                span[7] = observe(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module("fairdsg")]
        modules += [importlib.import_module(f"fairdsg.{m}") for m in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(obj, name, layer)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)
        graph_cls = modules[1 + LAYERS.index("graph")].LabeledGraph
        for name in GRAPH_METHODS:
            original = graph_cls.__dict__[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, "graph"))
            else:
                wrapped = self._wrap(original, name, "graph")
            self._patches.append((graph_cls, name, original))
            setattr(graph_cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, parent, root, name, layer, start, end, counts in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "root": root,
                    "name": f"{layer}.{name}", "start": start, "end": end,
                    "counts": counts}) + "\n")


def counters(spans) -> dict[str, int]:
    """Deterministic work counts of a run of spans, summed by kind."""
    out: dict[str, int] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for _, _, _, name, layer, _, _, counts in spans:
        add(f"calls.{layer}.{name}", 1)
        for key, value in (counts or {}).items():
            if key != "command":
                add(f"{name}.{key}", value)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times and work counts of one traced pass.

    A span's self time is its duration minus the durations of its direct
    child spans; spans of one thread nest, so children never overlap.
    """
    child_time: dict[int, float] = {}
    child_flow: dict[int, float] = {}
    child_exact_size: dict[int, int] = {}
    for _, parent, _, name, _, start, end, counts in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            if name == "max_flow":
                child_flow[parent] = child_flow.get(parent, 0.0) + (end - start)
            elif name == "exact_densest_subgraph" and counts:
                child_exact_size[parent] = counts["size"]

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for sid, parent, _, name, layer, start, end, counts in spans:
        dur = end - start
        own = dur - child_time.get(sid, 0.0)
        key = f"{layer}.{name}"
        total[key] = total.get(key, 0.0) + dur
        self_time[key] = self_time.get(key, 0.0) + own
        layer_self[layer] += own
        if name == "main" and counts:
            command = counts["command"].replace("-", "_")
            add(f"cli.{command}_s", dur)
        elif name == "exact_densest_subgraph":
            add("flow.exact_self_s", dur - child_flow.get(sid, 0.0))
        elif name == "two_dfsg" and counts and sid in child_exact_size:
            add("flow.pad_steps", counts["size"] - child_exact_size[sid])
        for count_key, value in (counts or {}).items():
            if count_key != "command":
                add(f"{name}.{count_key}", value)

    calls = sum(1 for s in spans if s[3] == "max_flow")
    records = m.get("parse_amazon_jsonl.records", 0.0)
    skipped = m.get("parse_amazon_jsonl.skipped", 0.0)
    out = {
        "spectral.dominant_eigenpair_s": total.get("spectral.dominant_eigenpair", 0.0),
        "spectral.second_eigenvalue_s": total.get("spectral.second_eigenvalue", 0.0),
        "spectral.spectral_profile_s": total.get("spectral.spectral_profile", 0.0),
        "spectral.iterations": m.get("dominant_eigenpair.iterations", 0.0)
        + m.get("second_eigenvalue.iterations", 0.0),
        "graph.matvec_calls": float(sum(1 for s in spans if s[3] == "matvec")),
        "graph.matvec_s": total.get("graph.matvec", 0.0),
        "graph.from_edges_s": total.get("graph.from_edges", 0.0),
        "flow.exact_s": total.get("flow.exact_densest_subgraph", 0.0),
        "flow.exact_self_s": m.get("flow.exact_self_s", 0.0),
        "flow.max_flow_s": total.get("flow.max_flow", 0.0),
        "flow.max_flow_calls": float(calls),
        "flow.bisection_steps": m.get("exact_densest_subgraph.bisection", 0.0),
        "flow.arcs_per_solve": m.get("max_flow.arcs", 0.0) / calls if calls else 0.0,
        "flow.nonempty_cut_ratio": (m.get("max_flow.nonempty", 0.0) / calls
                                    if calls else 0.0),
        "flow.two_dfsg_self_s": self_time.get("flow.two_dfsg", 0.0),
        "flow.pad_steps": m.get("flow.pad_steps", 0.0),
        "sweep.general_sweep_s": total.get("sweep.general_sweep", 0.0),
        "sweep.paired_sweep_s": total.get("sweep.paired_sweep", 0.0),
        "sweep.candidates": m.get("general_sweep.candidates", 0.0)
        + m.get("paired_sweep.candidates", 0.0),
        "planted.generate_self_s": self_time.get("planted.generate", 0.0),
        "planted.edges": m.get("generate.edges", 0.0),
        "ingest.read_edgelist_s": total.get("ingest.read_edgelist", 0.0),
        "ingest.write_edgelist_s": total.get("ingest.write_edgelist", 0.0),
        "ingest.parse_amazon_jsonl_s": total.get("ingest.parse_amazon_jsonl", 0.0),
        "ingest.records": records,
        "ingest.skipped_ratio": (skipped / (records + skipped)
                                 if records + skipped else 0.0),
        "ingest.build_product_graph_s": total.get("ingest.build_product_graph", 0.0),
        "ingest.category_pair_subgraphs_s":
            total.get("ingest.category_pair_subgraphs", 0.0),
        "ingest.pairs": m.get("category_pair_subgraphs.pairs", 0.0),
        "report.write_csv_s": total.get("report.write_csv", 0.0),
        "report.summarize_s": total.get("report.summarize", 0.0),
    }
    for command in ("ingest_amazon", "run", "summary"):
        out[f"cli.{command}_s"] = m.get(f"cli.{command}_s", 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
