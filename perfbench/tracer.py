"""Outside-in span tracer for one cdrlab subcommand, and the per-layer report.

Run as a script, it stands in for ``python3 -m cdrlab.cli``::

    python3 perfbench/tracer.py SPANS_JSON STEP_ID CDRLAB_ARGS...

Before calling ``cdrlab.cli.main`` it replaces each public function named in
``TRACED`` with a wrapper that records a span (name, start, end, parent, step
id).  A name is replaced wherever a cdrlab module looks it up: on its own
module and on every cdrlab module that imported it by name (``adoption`` and
``spatial`` import ``parallel_map``, ``mlkit`` re-exports ``train``).  Calls
made inside a module through its globals (``load_dataset`` reaching the
parsers) therefore hit the wrapper too.  Spans stay in memory and are written
to SPANS_JSON when the command returns.  No file under ``src/`` changes, and
the command's outputs are the same bytes as an untraced run's.

The parent process reads those files back with ``load`` and turns them into
per-layer metrics with ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

SPAWN_ENV = "PERFBENCH_SPAWN"

# Module -> public functions to wrap.  Per-row helpers (parse_timestamp,
# haversine_km, derive_rng, ...) are left alone on purpose: a wrapper would
# cost more than the call it measures.
TRACED = {
    "cdrlab.cli": ("main",),
    "cdrlab.ingest": ("load_dataset", "parse_cdr_file", "parse_topup_file", "parse_tower_file",
                      "parse_labels_file", "write_rejects_csv", "write_cdr_csv"),
    "cdrlab.features": ("extract_features", "home_tower", "write_features_csv"),
    "cdrlab.parallel": ("parallel_map",),
    "cdrlab.socialgraph": ("build_graph", "eigenvector_centrality", "connected_components"),
    "cdrlab.adoption": ("node_kappa", "link_kappa", "clustering_kappa"),
    "cdrlab.synthgen": ("generate_population", "generate_events", "inject_shock",
                        "simulate_adoption"),
    "cdrlab.anomaly": ("bin_series", "detect_anomalies", "build_flow_network",
                       "detect_flow_anomalies"),
    "cdrlab.spatial": ("idw_interpolate", "write_grid"),
    "cdrlab.mlkit.models": ("train",),
    "cdrlab.mlkit.metrics": ("evaluate",),
}

# Dataset index builders -> the cache attribute they fill.  Only the call that
# fills the cache is a span; later calls are dictionary lookups.
INDEXES = {
    "cdrs_by_caller": "_caller_index",
    "cdrs_by_callee": "_callee_index",
    "topups_by_buyer": "_buyer_index",
    "subscribers": "_subscriber_cache",
}


def span_name(module: str, func: str) -> str:
    """'cdrlab.mlkit.models', 'train' -> 'mlkit.train' (layer = module name)."""
    return f"{module.split('.')[1]}.{func}"


def _counts(name: str, result) -> dict | None:
    """Counts taken from a traced call's return value."""
    if name in ("ingest.parse_cdr_file", "ingest.parse_topup_file"):
        report = result[1]
        return {"rows": report.total_rows, "rejects": len(report.rejects)}
    if name == "socialgraph.build_graph":
        return {"edges": result.edge_count()}
    if name.endswith("_kappa"):
        return {"valid": result.replicates, "excluded": result.excluded_replicates}
    return None


class Tracer:
    """Collects spans of one process; parents are tracked per thread."""

    def __init__(self, step: str):
        self.step = step
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, guard=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if guard is not None and not guard(args):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A worker thread's first span hangs off the span open in the
            # main thread (the parallel_map that started it).
            parent_stack = stack or tracer._main_stack
            parent = parent_stack[-1] if parent_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:  # a call that raises still gets its span, without counts
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "step": tracer.step}
                counts = None if result is None else _counts(name, result)
                if counts:
                    span["counts"] = counts
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        for module_name, funcs in TRACED.items():
            module = importlib.import_module(module_name)
            for func in funcs:
                original = getattr(module, func)
                wrapped = self.wrap(span_name(module_name, func), original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("cdrlab"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        from cdrlab.records import Dataset

        for method, cache in INDEXES.items():
            guard = functools.partial(lambda attr, args: getattr(args[0], attr) is None, cache)
            setattr(Dataset, method, self.wrap("records.index", getattr(Dataset, method), guard))

    def dump(self, path: str, spawn: float | None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"step": self.step, "spawn": spawn, "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    spans_path, step, cli_args = argv[0], argv[1], argv[2:]
    spawn = os.environ.get(SPAWN_ENV)
    tracer = Tracer(step)
    tracer.install()
    from cdrlab import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path, float(spawn) if spawn else None)


# ------------------------------------------------------------ parent side


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that child spans cover.

    Children may overlap (worker threads), so the covered part is the length
    of the union of their intervals, clipped to the span.
    """
    covered = 0.0
    cursor = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(child["start"], cursor)
        hi = min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end"] - span["start"]) - covered


def _children(spans: list[dict]) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def busy(traces: list[dict]) -> dict[str, float]:
    """Summed inclusive seconds per span name over all traces."""
    out: dict[str, float] = {}
    for trace in traces:
        for s in trace["spans"]:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def calls(traces: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for trace in traces:
        for s in trace["spans"]:
            out[s["name"]] = out.get(s["name"], 0) + 1
    return out


def summed_self(traces: list[dict], name: str) -> float:
    total = 0.0
    for trace in traces:
        kids = _children(trace["spans"])
        for s in trace["spans"]:
            if s["name"] == name:
                total += self_time(s, kids.get(s["id"], []))
    return total


def summed_count(traces: list[dict], name: str, key: str) -> int:
    return sum(s["counts"][key] for t in traces for s in t["spans"]
               if s["name"] == name and "counts" in s)


def startup(trace: dict) -> float:
    """Seconds from process spawn to the entry of cdrlab.cli.main."""
    mains = [s for s in trace["spans"] if s["name"] == "cli.main"]
    return mains[0]["start"] - trace["spawn"]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics over every traced step of one workload run."""
    b = busy(traces)
    n = calls(traces)
    m = {f"{name}_s": b.get(name, 0.0) for module, funcs in TRACED.items()
         for name in (span_name(module, f) for f in funcs) if name != "cli.main"}
    m["records.dataset_build_s"] = summed_self(traces, "ingest.load_dataset")
    m["records.index_s"] = b.get("records.index", 0.0)
    m["cli.startup_s"] = sum(startup(t) for t in traces)
    m["cli.self_s"] = summed_self(traces, "cli.main")
    for name in ("features.extract_features", "parallel.parallel_map", "anomaly.bin_series",
                 "anomaly.build_flow_network"):
        m[f"{name}.calls"] = n.get(name, 0)
    rows = summed_count(traces, "ingest.parse_cdr_file", "rows")
    rejects = summed_count(traces, "ingest.parse_cdr_file", "rejects")
    m["ingest.parse_cdr_file.rows"] = rows
    m["ingest.parse_cdr_file.rejects"] = rejects
    m["ingest.accept_ratio"] = (rows - rejects) / rows if rows else 0.0
    m["socialgraph.build_graph.edges"] = summed_count(traces, "socialgraph.build_graph", "edges")
    drawn = 0
    for mode in ("node", "link", "clustering"):
        name = f"adoption.{mode}_kappa"
        drawn += summed_count(traces, name, "valid") + summed_count(traces, name, "excluded")
    m["adoption.replicates"] = drawn
    valid = summed_count(traces, "adoption.clustering_kappa", "valid")
    excluded = summed_count(traces, "adoption.clustering_kappa", "excluded")
    m["adoption.clustering_valid_ratio"] = valid / (valid + excluded) if valid + excluded else 0.0
    return m


def step_breakdown(trace: dict, top: int = 4) -> tuple[float, list[tuple[str, float, int]]]:
    """(cli.main seconds, [(name, summed seconds, calls)] of the span names
    below it with the most summed time)."""
    b = busy([trace])
    n = calls([trace])
    main_s = b.pop("cli.main", 0.0)
    return main_s, [(k, v, n[k]) for k, v in sorted(b.items(), key=lambda kv: -kv[1])[:top]]


def largest_span(trace: dict) -> tuple[str, float]:
    """The single longest span below cli.main ("-", 0 when there is none)."""
    spans = [s for s in trace["spans"] if s["name"] != "cli.main"]
    if not spans:
        return "-", 0.0
    s = max(spans, key=lambda s: s["end"] - s["start"])
    return s["name"], s["end"] - s["start"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
