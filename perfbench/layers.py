"""Per-layer metrics, computed from the spans of one traced pass and from
per-level rows: the ladder's levels, or the graceful palette probe.

A layer a workload never calls reports 0: `solver`, `graphs` and `checking`
are idle on `ladder`, and `ap3` is idle on `graceful`.  The third field of
each entry names the end-to-end metric, and the workload, that the layer
metric should move.
"""

from __future__ import annotations

from spans import matching, self_time, total_time

METRICS = {
    "ap3.nodes": ("count", "lower", "wall_s on ladder"),
    "ap3.nodes_per_s": ("1/s", "higher", "wall_s on ladder"),
    "ap3.prune_ratio": ("ratio", "higher", "wall_s on ladder"),
    "ap3.max_level_nodes": ("count", "lower", "wall_s on ladder"),
    "ap3.refute_nodes": ("count", "lower", "wall_s on ladder"),
    "ap3.refute_s": ("s", "lower", "wall_s on ladder"),
    "ap3.witness_nodes": ("count", "lower", "wall_s on ladder"),
    "ap3.witness_s": ("s", "lower", "wall_s on ladder"),
    "solver.decide_nodes": ("count", "lower", "wall_s and task_p90_s on graceful"),
    "solver.nodes_per_s": ("1/s", "higher", "wall_s and task_p90_s on graceful"),
    "solver.refute_nodes": ("count", "lower", "wall_s on graceful"),
    "solver.refute_s": ("s", "lower", "wall_s on graceful"),
    "solver.levels_refuted": ("count", "lower", "wall_s on graceful"),
    "solver.chi_nodes": ("count", "lower", "wall_s on graceful"),
    "solver.chi_s": ("s", "lower", "wall_s on graceful"),
    "solver.pool_speedup": ("ratio", "higher", "wall_s on graceful"),
    "budget.exhausted": ("count", "lower", "proven_frac on graceful"),
    "checking.verify_s": ("s", "lower", "wall_s on scripting"),
    "checking.verify_per_s": ("1/s", "higher", "wall_s on scripting"),
    "checking.parse_s": ("s", "lower", "wall_s on scripting"),
    "graphs.parse_s": ("s", "lower", "wall_s on scripting"),
    "graphs.serialize_s": ("s", "lower", "wall_s on scripting"),
    "graphs.build_s": ("s", "lower", "wall_s on scripting"),
    "tables.load_s": ("s", "lower", "wall_s on scripting"),
    "tables.seed_s": ("s", "lower", "wall_s on scripting"),
    "tables.absorb_s": ("s", "lower", "wall_s on scripting"),
    "tables.store_s": ("s", "lower", "wall_s on scripting"),
    "tables.cache_bytes": ("bytes", "lower", "wall_s on scripting"),
    "complete.self_s": ("s", "lower", "wall_s on scripting"),
    "cli.self_s": ("s", "lower", "wall_s on scripting"),
    "trace.overhead_frac": ("ratio", "lower", "none: what tracing costs this workload"),
}

AP3_SEARCH = ("ap3.Ap3Engine.longest", "ap3.Ap3Engine.min_span")
GRACEFUL_SEARCH = ("solver.chi_g", "solver.solve_graceful_decision")
EXHAUSTED = ("exhausted", "budget-exhausted")


def _sum(records, key: str) -> int:
    return sum(record.get(key, 0) for record in records)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def metrics(spans: list[dict], rows: list[dict],
            pool: tuple[float, float] | None) -> dict:
    """Every metric of METRICS except trace.overhead_frac.

    rows are per-level rows: ladder levels (layer "ap3", outcome
    "witness" or "refute") or graceful palettes (layer "solver", outcome
    "solved" or "infeasible-at-k").  pool is (sequential, 2-worker) seconds.
    """
    ap3 = matching(spans, *AP3_SEARCH)
    ap3_nodes = _sum(ap3, "nodes")
    levels = [r for r in rows if r["layer"] == "ap3"]
    refuted = [r for r in levels if r["outcome"] == "refute"]
    found = [r for r in levels if r["outcome"] == "witness"]

    graceful = matching(spans, *GRACEFUL_SEARCH)
    decide_nodes = _sum(graceful, "nodes")
    palettes = [r for r in rows if r["layer"] == "solver"]
    infeasible = [r for r in palettes if r["outcome"] != "solved"]
    chromatic = matching(spans, "solver.chromatic_number")
    proven_chi_g = [r for r in palettes if r["outcome"] == "solved"]

    verify_s = total_time(spans, "checking.verify_graceful")
    stores = matching(spans, "tables.store_cache")
    searches = ap3 + graceful + chromatic
    return {
        "ap3.nodes": ap3_nodes,
        "ap3.nodes_per_s": _rate(ap3_nodes, total_time(spans, *AP3_SEARCH)),
        "ap3.prune_ratio": _rate(_sum(ap3, "prunes"), ap3_nodes),
        "ap3.max_level_nodes": max((r["nodes"] for r in levels), default=0),
        "ap3.refute_nodes": _sum(refuted, "nodes"),
        "ap3.refute_s": _sum(refuted, "seconds"),
        "ap3.witness_nodes": _sum(found, "nodes"),
        "ap3.witness_s": _sum(found, "seconds"),
        "solver.decide_nodes": decide_nodes,
        "solver.nodes_per_s": _rate(decide_nodes, total_time(spans, *GRACEFUL_SEARCH)),
        "solver.refute_nodes": _sum(infeasible, "nodes"),
        "solver.refute_s": _sum(infeasible, "seconds"),
        "solver.levels_refuted": sum(r["k"] - max(2, r["lower_bound"]) for r in proven_chi_g),
        "solver.chi_nodes": _sum(chromatic, "nodes"),
        "solver.chi_s": total_time(spans, "solver.chromatic_number"),
        "solver.pool_speedup": _rate(*pool) if pool else 0.0,
        "budget.exhausted": sum(r.get("outcome") in EXHAUSTED for r in searches),
        "checking.verify_s": verify_s,
        "checking.verify_per_s": _rate(len(matching(spans, "checking.verify_graceful")), verify_s),
        "checking.parse_s": total_time(spans, "checking.parse_coloring"),
        "graphs.parse_s": total_time(spans, "graphs.parse_graph"),
        "graphs.serialize_s": total_time(spans, "graphs.serialize_graph"),
        "graphs.build_s": total_time(spans, "graphs.GraphFamily.build"),
        "tables.load_s": total_time(spans, "tables.load_cache"),
        "tables.seed_s": total_time(spans, "tables.ValueCache.seed_engine"),
        "tables.absorb_s": total_time(spans, "tables.ValueCache.absorb_engine"),
        "tables.store_s": total_time(spans, "tables.store_cache"),
        "tables.cache_bytes": _sum(stores, "bytes"),
        "complete.self_s": self_time(spans, "complete.chi_g_complete"),
        "cli.self_s": self_time(spans, "cli.run"),
    }
