"""Spans around the public functions of each gracecolor layer.

Tracing is installed from the benchmark's side: every public entry point in
TARGETS is replaced, in each gracecolor module that holds a reference to it,
by a wrapper that records a span.  Spans live in memory and are written as
JSON lines when the run ends.  Nothing under src/ knows about tracing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (layer, module, qualified name) of every wrapped entry point.
TARGETS = (
    ("ap3", "gracecolor.ap3", "Ap3Engine.longest"),
    ("ap3", "gracecolor.ap3", "Ap3Engine.min_span"),
    ("ap3", "gracecolor.ap3", "Ap3Engine.seed"),
    ("solver", "gracecolor.solver", "chi_g"),
    ("solver", "gracecolor.solver", "chromatic_number"),
    ("solver", "gracecolor.solver", "solve_graceful_decision"),
    ("checking", "gracecolor.checking", "verify_graceful"),
    ("checking", "gracecolor.checking", "parse_coloring"),
    ("graphs", "gracecolor.graphs", "parse_graph"),
    ("graphs", "gracecolor.graphs", "serialize_graph"),
    ("graphs", "gracecolor.graphs", "GraphFamily.build"),
    ("tables", "gracecolor.tables", "table_report"),
    ("tables", "gracecolor.tables", "load_cache"),
    ("tables", "gracecolor.tables", "store_cache"),
    ("tables", "gracecolor.tables", "ValueCache.seed_engine"),
    ("tables", "gracecolor.tables", "ValueCache.absorb_engine"),
    ("complete", "gracecolor.complete", "chi_g_complete"),
    ("cli", "gracecolor.cli", "run"),
)


def _attrs(qualname: str, args: tuple, result) -> dict:
    """Counts carried by a call's result, recorded where the work happens."""
    stats = getattr(result, "stats", None)
    if stats is not None:  # Ap3Result
        return {"nodes": stats.nodes, "prunes": stats.prunes_by_bound,
                "outcome": "proven" if result.proven else "exhausted"}
    if hasattr(result, "status") and hasattr(result, "nodes"):  # SolveReport
        return {"nodes": result.nodes, "outcome": result.status}
    if qualname == "store_cache":
        return {"bytes": os.path.getsize(args[1])}
    if qualname == "run":
        return {"exit": result}
    return {}


class Tracer:
    """In-memory span recorder; install() wraps TARGETS, uninstall() restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.task: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, qualname: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                      "task": tracer.task}
            tracer.spans.append(record)
            tracer._stack.append(index)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record["end"] = time.perf_counter()
                record["error"] = type(exc).__name__
                raise
            else:
                record["end"] = time.perf_counter()
                record.update(_attrs(qualname, args, result))
                return result
            finally:
                tracer._stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "gracecolor" or key.startswith("gracecolor.")]
        for layer, module_name, qualname in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.span(f"{layer}.{qualname}", original, attr)
            self._replace(owner, attr, original, wrapper)
            if not outer:  # module-level function: also rebind imported names
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._replace(module, key, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str, rows: list[dict]) -> None:
        """Spans, then per-level rows, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({"kind": "span", "id": index, **record}) + "\n")
            for row in rows:
                handle.write(json.dumps({"kind": "level", **row}) + "\n")


def self_time(spans: list[dict], name: str) -> float:
    """Duration of every span called `name` minus the part its children cover."""
    total = 0.0
    for record in spans:
        if record["name"] == name:
            total += record["end"] - record["start"]
    for record in spans:
        parent = record["parent"]
        if parent is not None and spans[parent]["name"] == name:
            total -= record["end"] - record["start"]
    return total


def total_time(spans: list[dict], *names: str) -> float:
    """Summed duration of the spans called one of `names` (none of them nest)."""
    return sum(r["end"] - r["start"] for r in spans if r["name"] in names)


def matching(spans: list[dict], *names: str) -> list[dict]:
    return [record for record in spans if record["name"] in names]
