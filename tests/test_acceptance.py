"""Acceptance suite: one test per exit criterion.

Each criterion runs at its stated tolerance (exact integer equality unless
noted) and is summarized as one PASS/FAIL line at the end of the run (see
conftest).  Two criteria are optional tiers, disabled unless requested:

  GRACECOLOR_EXTENDED=1        extended reproduction, 30-minute budget
  GRACECOLOR_STRETCH=<hours>   the long largest-subset computation
"""

import itertools
import math
import os
import random
import time

import pytest

from gracecolor.ap3 import Ap3Engine, is_ap3_free
from gracecolor.budget import SolveBudget
from gracecolor.checking import GracefulColoring, verify_graceful
from gracecolor.graphs import (
    Graph,
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    max_degree,
    parse_graph,
    path,
    random_tree,
    serialize_graph,
    star,
    wheel,
)
from gracecolor.solver import SOLVED, characterize, chi_g, graceful_lower_bound
from gracecolor.tables import (
    CHI_G_COMPLETE_REFERENCE,
    ValueCache,
    load_cache,
    store_cache,
    table_report,
)
from support import (
    LONGEST_REFERENCE,
    all_connected_graphs,
    brute_force_chi_g,
    canonical_form,
    check_complete_equivalence,
    contains_progression,
    graceful_valid_oracle,
    longest_by_enumeration,
    random_connected_graph,
)

TABLE_PAIRS_2_16 = [
    (2, 2), (3, 4), (4, 5), (5, 9), (6, 11), (7, 13), (8, 14), (9, 20),
    (10, 24), (11, 26), (12, 30), (13, 32), (14, 36), (15, 40), (16, 41),
]


def named_instances():
    """Every named family instance on 2 to 8 vertices used by the corpus
    checks (caterpillar shapes and random trees are sampled, the rest are
    enumerated exhaustively).  One vertex has no graceful chromatic number
    that a search reports: see test_solver::test_single_vertex_graph."""
    out = []
    for n in range(2, 9):
        out.append((f"P_{n}", path(n)))
        out.append((f"K_{n}", complete(n)))
    for n in range(2, 9):
        out.append((f"S_{n}", star(n)))
    for n in range(3, 9):
        out.append((f"C_{n}", cycle(n)))
    for n in range(4, 9):
        out.append((f"W_{n}", wheel(n)))
    for p in range(1, 8):
        for q in range(p, 9 - p):
            out.append((f"K_{p},{q}", complete_bipartite(p, q)))
    for spine, legs in [(1, (1,)), (1, (4,)), (2, (1, 1)), (2, (3, 2)),
                        (3, (2, 0, 1)), (3, (1, 1, 1)), (4, (1, 0, 0, 2)),
                        (5, (1, 0, 1, 0, 1))]:
        out.append((f"cat{spine}{legs}", caterpillar(spine, list(legs))))
    for seed in range(4):
        out.append((f"T8_{seed}", random_tree(8, seed)))
    return [(label, g) for label, g in out if g.n <= 8]


@pytest.fixture(scope="module")
def corpus():
    """Named instances plus 200 random connected graphs on <= 7 vertices,
    each with both chromatic numbers computed exactly."""
    rng = random.Random(20260808)
    graphs = named_instances()
    for i in range(200):
        n = rng.randint(2, 7)
        graphs.append((f"R{i}_n{n}", random_connected_graph(rng, n)))
    return [(label, g, characterize(g)) for label, g in graphs]


def is_single_edge(g: Graph) -> bool:
    return g.n == 2 and len(g.edges) == 1


def is_path_graph(g: Graph) -> bool:
    return len(g.edges) == g.n - 1 and max_degree(g) <= 2


def test_criterion_01_reference_table_2_to_16():
    start = time.perf_counter()
    rows = table_report(16)
    elapsed = time.perf_counter() - start
    assert [(row.n, row.computed) for row in rows] == TABLE_PAIRS_2_16
    assert all(row.status == "ok" for row in rows)
    assert elapsed < 120.0


@pytest.mark.skipif(not os.environ.get("GRACECOLOR_EXTENDED"),
                    reason="optional tier: set GRACECOLOR_EXTENDED=1 (30-minute budget)")
def test_criterion_02_extended_table_17_to_26():
    rows = table_report(26, SolveBudget(max_seconds=1800.0))
    for row in rows:
        if row.status == "ok":
            assert row.computed == CHI_G_COMPLETE_REFERENCE[row.n][0]
        else:
            assert row.status == "unproven"
            assert row.computed is None
    # the first extended rows are cheap enough to be proven on any machine
    by_n = {row.n: row for row in rows}
    for n in range(17, 21):
        assert by_n[n].status == "ok", f"n={n} should prove within the budget"


@pytest.mark.skipif(not os.environ.get("GRACECOLOR_STRETCH"),
                    reason="stretch: set GRACECOLOR_STRETCH=<hours> to attempt")
def test_criterion_03_longest_in_122():
    hours = float(os.environ["GRACECOLOR_STRETCH"])
    result = Ap3Engine().longest(122, SolveBudget(max_seconds=hours * 3600.0))
    if not result.proven:
        pytest.skip(f"budget of {hours}h exhausted before the proof completed")
    assert result.value == LONGEST_REFERENCE[122]


def test_criterion_04_complete_equivalence_on_random_subsets():
    rng = random.Random(17320508)
    disagreements = 0
    for _ in range(1000):
        size = rng.randint(3, 8)
        subset = tuple(sorted(rng.sample(range(1, 31), size)))
        graceful, ap3 = check_complete_equivalence(subset)
        if graceful != ap3:
            disagreements += 1
        assert ap3 == (not contains_progression(subset))
    assert disagreements == 0


def test_criterion_05_solver_matches_brute_force_up_to_5_vertices():
    oracle_by_class: dict = {}
    disagreements = []
    for n in range(2, 6):  # one vertex: test_solver::test_single_vertex_graph
        for g in all_connected_graphs(n):
            key = canonical_form(g)
            if key not in oracle_by_class:
                oracle_by_class[key] = brute_force_chi_g(g, cap=12)
            report = chi_g(g)
            assert report.status == SOLVED
            if report.value != oracle_by_class[key]:
                disagreements.append((g.edges, report.value, oracle_by_class[key]))
            assert verify_graceful(g, report.witness).valid
    assert disagreements == []


def test_criterion_06_ap3_oracle_equivalence():
    engine = Ap3Engine()
    for m in range(1, 21):
        expected, _ = longest_by_enumeration(m)
        assert engine.longest(m).value == expected, f"L({m})"
    ladder = Ap3Engine()
    for k in range(1, 13):
        direct = Ap3Engine().min_span(k).value
        m = 1
        while ladder.longest(m).value < k:
            m += 1
        assert direct == m, f"a({k})"


def test_criterion_07_known_small_values():
    assert chi_g(path(3)).value == 3
    assert chi_g(path(4)).value == 3
    for n in range(5, 11):
        assert chi_g(path(n)).value == 4, f"P_{n}"
    for n in (4, 6, 7, 8, 9, 10):
        assert chi_g(cycle(n)).value == 4, f"C_{n}"
    assert chi_g(cycle(5)).value == 5
    for n in (6, 7, 8):
        assert chi_g(wheel(n)).value == n, f"W_{n}"


def test_criterion_08_chromatic_equality_characterizes_the_single_edge(corpus):
    for label, g, result in corpus:
        assert result.equal == is_single_edge(g), (
            f"{label}: chi={result.chi} chi_g={result.chi_g}"
        )


def test_criterion_09_graceful_three_characterizes_short_paths(corpus):
    for label, g, result in corpus:
        expected = is_path_graph(g) and g.n in (3, 4)
        assert result.chi_g_is_3 == expected, (
            f"{label}: chi_g={result.chi_g}"
        )


def test_criterion_10_bound_properties(corpus):
    for label, g, result in corpus:
        assert graceful_lower_bound(g) <= result.chi_g, label

    rng = random.Random(31415926)
    for i in range(50):
        g = random_tree(rng.randint(2, 12), seed=rng.randrange(10 ** 9))
        value = chi_g(g).value
        d = max_degree(g)
        assert value <= math.ceil(5 * d / 3), (g.edges, value)

    checked = 0
    while checked < 20:
        spine = rng.randint(1, 5)
        legs = [rng.randint(0, 3) for _ in range(spine)]
        g = caterpillar(spine, legs)
        if g.n < 2:
            continue
        value = chi_g(g).value
        d = max_degree(g)
        assert value in (d + 1, d + 2), (spine, legs, value)
        checked += 1


def test_criterion_11_module_invariant_suites(tmp_path):
    rng = random.Random(27182818)

    # translation and reflection invariance of progression-freeness
    for _ in range(200):
        m = rng.randint(1, 40)
        size = rng.randint(0, min(8, m))
        s = sorted(rng.sample(range(1, m + 1), size))
        t = rng.randint(1, 30)
        assert is_ap3_free(tuple(s)) == is_ap3_free(tuple(x + t for x in s))
        assert is_ap3_free(tuple(s)) == is_ap3_free(tuple(sorted(m + 1 - x for x in s)))

    # ladder monotonicity with unit steps
    engine = Ap3Engine()
    engine.longest(41)
    lengths = [engine.length(m) for m in range(1, 42)]
    assert all(a <= b <= a + 1 for a, b in zip(lengths, lengths[1:]))

    # cache round-trip
    cache = ValueCache()
    cache.absorb_engine(engine)
    target = tmp_path / "cache.txt"
    store_cache(cache, str(target))
    assert load_cache(str(target)) == cache

    # parse/serialize identity
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(1, 50))
        assert parse_graph(serialize_graph(g)) == g

    # verifier agrees with the definition-level oracle
    for _ in range(1500):
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        palette = rng.randint(2, 6)
        colors = tuple(rng.randint(1, palette) for _ in range(n))
        got = verify_graceful(g, GracefulColoring(colors, palette)).valid
        assert got == graceful_valid_oracle(g, colors, palette)
    for g in (path(4), cycle(4), complete(3)):
        for colors in itertools.product(range(1, 5), repeat=g.n):
            got = verify_graceful(g, GracefulColoring(colors, 4)).valid
            assert got == graceful_valid_oracle(g, colors, 4)
