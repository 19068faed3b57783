"""Self-test of the benchmark: pinned answers and exact counts.

Not part of the tier-1 suite (pytest's testpaths is tests/).  Run from the
root of a checkout; it takes about a minute:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import pytest  # noqa: E402

import layers  # noqa: E402
from corpus import PINS, structured  # noqa: E402
from gracecolor.graphs import Graph  # noqa: E402
from gracecolor.tables import CHI_G_COMPLETE_REFERENCE  # noqa: E402
from spans import Tracer  # noqa: E402
from support import brute_force_chi_g  # noqa: E402
from workloads import Graceful, Ladder  # noqa: E402

GRAPHS = dict(structured())
LADDER_NODES_AT_BASELINE = 13_461_295  # ap3.nodes of a cold table_report(20)


def tree_chi_g(g: Graph) -> int:
    """Graceful chromatic number of a tree by dynamic programming.

    Rooting the tree, a vertex colored c under a parent colored p can color
    its children exactly when each child gets its own difference d != |c-p|
    whose color c +- d the child's subtree accepts: a bipartite matching of
    children to differences.
    """
    parent = {0: None}
    order = [0]
    for v in order:
        for u in g.adjacency[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)

    def feasible(k: int) -> bool:
        memo: dict[tuple[int, int, int], bool] = {}

        def children_fit(v: int, c: int, banned: int | None) -> bool:
            options = []
            for child in (u for u in g.adjacency[v] if u != parent[v]):
                options.append([d for d in range(1, k) if d != banned and any(
                    1 <= x <= k and fits(child, x, c) for x in (c + d, c - d))])
            owner: dict[int, int] = {}

            def augment(i: int, seen: set) -> bool:
                for d in options[i]:
                    if d not in seen:
                        seen.add(d)
                        if d not in owner or augment(owner[d], seen):
                            owner[d] = i
                            return True
                return False
            return all(augment(i, set()) for i in range(len(options)))

        def fits(v: int, c: int, p: int) -> bool:
            if (v, c, p) not in memo:
                memo[(v, c, p)] = children_fit(v, c, abs(c - p))
            return memo[(v, c, p)]

        return any(children_fit(0, c, None) for c in range(1, k + 1))

    return next(k for k in itertools.count(2) if feasible(k))


def brute_force_chi(g: Graph) -> int:
    for k in itertools.count(1):
        for colors in itertools.product(range(k), repeat=g.n):
            if all(colors[u] != colors[v] for u, v in g.edges):
                return k


def is_tree(g: Graph) -> bool:
    return len(g.edges) == g.n - 1


def test_every_corpus_graph_is_pinned():
    assert sorted(GRAPHS) == sorted(PINS)
    assert len(GRAPHS) >= 100


@pytest.mark.parametrize("name", [n for n in PINS if n.startswith("K") and "," not in n])
def test_complete_pins_match_reference(name):
    n = GRAPHS[name].n
    assert PINS[name] == (CHI_G_COMPLETE_REFERENCE[n][0], n)


@pytest.mark.parametrize("name", [n for n, g in GRAPHS.items()
                                  if g.n <= 7 and len(g.edges) < g.n * (g.n - 1) // 2])
def test_small_pins_match_brute_force(name):
    g = GRAPHS[name]
    assert PINS[name] == (brute_force_chi_g(g, cap=16), brute_force_chi(g))


@pytest.mark.parametrize("name", [n for n, g in GRAPHS.items() if is_tree(g)])
def test_tree_pins_match_dynamic_program(name):
    assert PINS[name] == (tree_chi_g(GRAPHS[name]), 2)


def traced_counts(workload) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.run_pass(tracer)
    finally:
        tracer.uninstall()
    workload.check(result)
    found = layers.metrics(tracer.spans, [], None)
    return {key: found[key] for key in
            ("ap3.nodes", "solver.decide_nodes", "solver.chi_nodes", "budget.exhausted")}


def test_ladder_counts_repeat_exactly():
    first = traced_counts(Ladder(7, ""))
    assert first == traced_counts(Ladder(7, ""))
    assert first["ap3.nodes"] == LADDER_NODES_AT_BASELINE


def test_graceful_counts_repeat_exactly():
    first = traced_counts(Graceful(7, ""))
    assert first == traced_counts(Graceful(7, ""))
    assert first["solver.decide_nodes"] > 0 and first["solver.chi_nodes"] > 0
