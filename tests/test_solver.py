"""Exact solver: bounds, decisions, iterative deepening, characterization."""

import dataclasses
import random

import pytest

from gracecolor import solver
from gracecolor.ap3 import Ap3Engine, Ap3Result, SearchStats
from gracecolor.budget import BudgetExhausted, BudgetMeter, SolveBudget
from gracecolor.checking import GracefulColoring, verify_graceful
from gracecolor.graphs import (
    Graph,
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    max_degree,
    path,
    random_tree,
    star,
    wheel,
)
from gracecolor.solver import (
    EXHAUSTED,
    INFEASIBLE,
    SOLVED,
    SolveReport,
    _diameter_at_most_2,
    characterize,
    chi_g,
    chromatic_number,
    graceful_lower_bound,
    solve_graceful_decision,
)
from gracecolor.tables import STATUS_OK, TableRow
from support import (
    all_connected_graphs,
    all_graphs,
    brute_force_chi_g,
    canonical_form,
    clone_vertex,
    cnf_graceful_coloring,
    complete_multipartite,
    diameter,
    graceful_valid_oracle,
    grid,
    groetzsch,
    hypercube,
    pairwise_greedy_clique,
    petersen,
    random_connected_graph,
    reference_graceful_search,
    with_leaves,
)


def test_lower_bound_examples():
    assert graceful_lower_bound(complete(5)) == 6  # max(Delta+1, r+2, n)
    assert graceful_lower_bound(path(5)) == 3
    assert graceful_lower_bound(cycle(7)) == 4


def test_lower_bound_single_edge_is_two():
    # the regular-graph bound does not apply to the single edge
    assert graceful_lower_bound(complete(2)) == 2


def test_lower_bound_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        graceful_lower_bound(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_decision_k3_infeasible_at_3():
    report = solve_graceful_decision(complete(3), 3)
    assert report.status == INFEASIBLE
    assert report.value is None and report.witness is None


def test_decision_k3_solved_at_4():
    report = solve_graceful_decision(complete(3), 4)
    assert report.status == SOLVED
    assert report.value == 4
    assert sorted(report.witness.colors) == [1, 2, 4]
    assert verify_graceful(complete(3), report.witness).valid


def test_decision_c5_infeasible_at_4():
    assert solve_graceful_decision(cycle(5), 4).status == INFEASIBLE


def test_decision_validates_arguments():
    with pytest.raises(ValueError):
        solve_graceful_decision(complete(3), 1)
    with pytest.raises(ValueError, match="connected"):
        solve_graceful_decision(Graph.from_edges(3, [(0, 1)]), 4)


@pytest.mark.parametrize("build,expected", [
    (lambda: path(4), 3),
    (lambda: path(7), 4),
    (lambda: cycle(5), 5),
    (lambda: complete(4), 5),
])
def test_chi_g_known_values(build, expected):
    g = build()
    report = chi_g(g)
    assert report.status == SOLVED
    assert report.value == expected
    assert report.witness.palette == expected
    assert verify_graceful(g, report.witness).valid


def test_chi_g_matches_brute_force_up_to_4_vertices():
    for n in range(2, 5):  # one vertex: test_single_vertex_graph
        for g in all_connected_graphs(n):
            report = chi_g(g)
            assert report.value == brute_force_chi_g(g), g.edges
            assert verify_graceful(g, report.witness).valid, g.edges


def test_decision_witnesses_always_verify():
    """Soundness: whatever the decision search accepts must pass the verifier."""
    rng = random.Random(60901)
    for _ in range(80):
        g = random_connected_graph(rng, rng.randint(2, 7))
        k = rng.randint(2, 9)
        report = solve_graceful_decision(g, k)
        if report.status == SOLVED:
            assert verify_graceful(g, report.witness).valid, (g.edges, k)


def test_decision_refutes_exactly_below_chi_g():
    """Completeness: the decision search proves a palette infeasible exactly
    when it is smaller than the brute-force graceful chromatic number."""
    rng = random.Random(5051)
    graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    graphs += [random_connected_graph(rng, 6) for _ in range(15)]
    oracle: dict = {}
    for g in graphs:
        key = canonical_form(g)
        if key not in oracle:
            oracle[key] = brute_force_chi_g(g)
        for k in range(2, oracle[key] + 1):
            expected = SOLVED if k == oracle[key] else INFEASIBLE
            assert solve_graceful_decision(g, k).status == expected, (g.edges, k)


def _seeded_draw() -> list[Graph]:
    """Graphs with twins, graphs with pendant vertices and complete
    multipartite graphs, the last of diameter 2; and on both sides of the
    kernel's dense test, graphs of diameter 2 with more non-edges than edges,
    with and without leaves, and graphs of diameter exactly 3."""
    rng = random.Random(8808)
    graphs = []
    for _ in range(36):
        n = rng.randint(6, 9)
        graphs.append(random_connected_graph(
            rng, n, density=0.6 if n < 8 else rng.choice((0.2, 0.35))))
    for _ in range(8):
        graphs.append(complete_multipartite(*(rng.randint(1, 3)
                                              for _ in range(rng.randint(2, 3)))))
        g = random_connected_graph(rng, rng.randint(5, 7), density=rng.choice((0.2, 0.5)))
        graphs.append(clone_vertex(g, rng.randrange(g.n)))
    graphs += [complete(2), path(3), star(4), star(6)]
    graphs += [caterpillar(3, (2, 0, 1)), caterpillar(4, (1, 2, 0, 3)), caterpillar(2, (3, 3))]
    for _ in range(8):
        n = rng.randint(4, 7)
        g = random_connected_graph(rng, n, density=rng.choice((0.2, 0.5)))
        graphs.append(with_leaves(g, rng, rng.randint(1, 3)))
    for n in (6, 8):  # a wheel, and the wheel with a pendant vertex at its hub
        rim = wheel(n)
        graphs += [rim, Graph.from_edges(n + 1, [*rim.edges, (0, n)])]
    graphs += [petersen(), complete_multipartite(2, 2, 3), complete_multipartite(1, 3, 3)]
    graphs += [cycle(6), cycle(7), grid(2, 3)]  # diameter 3
    return graphs


def _has_leaf(g: Graph) -> bool:
    return any(len(a) == 1 and len(g.adjacency[a[0]]) > 1 for a in g.adjacency)


def test_seeded_draw_covers_both_sides_of_the_dense_test():
    # the kernel takes rule 2 from masks on diameter 2 where there are no
    # more non-edges than edges, and walks elsewhere
    kinds = {(diameter(g) <= 2, _has_leaf(g), 4 * len(g.edges) >= g.n * (g.n - 1))
             for g in _seeded_draw()}
    assert kinds >= {(True, False, True), (True, True, True), (True, False, False),
                     (True, True, False), (False, False, False), (False, True, False)}
    assert sum(diameter(g) == 3 and not _has_leaf(g) for g in _seeded_draw()) >= 3


def test_decision_matches_reference_search():
    """The propagation rule leaves open exactly the colors the definition
    allows: status, witness and node count equal those of a search that
    recomputes every domain from scratch at every node and colors the same
    leaves after it.  The draws include graphs with twins and graphs with
    pendant vertices, and every status also equals that of the reference
    search with neither the twin order nor the leaves left out, so neither
    loses a palette."""
    for g in _seeded_draw():
        for k in range(max(2, graceful_lower_bound(g)), chi_g(g).value + 1):
            report = solve_graceful_decision(g, k)
            colors, nodes = reference_graceful_search(g, k)
            assert report.status == (SOLVED if colors else INFEASIBLE), (g.edges, k)
            witness = report.witness.colors if report.witness else None
            assert (witness, report.nodes) == (colors, nodes), (g.edges, k)
            unordered, _ = reference_graceful_search(g, k, twins=False, leaves=False)
            assert (colors is None) == (unordered is None), (g.edges, k)


def test_chi_g_matches_reference_deepening():
    """chi_g spends exactly the reference search's nodes summed over every
    palette from the lower bound up, and returns its witness, with the
    palette ends on exactly where the kernel turns them on: on graphs of
    diameter at most 2 without a leaf.  Its node cap is that sum, so a
    kernel that needs more runs out of budget instead of deepening without
    end."""
    for g in _seeded_draw():
        ends = diameter(g) <= 2 and not _has_leaf(g)
        k, total = max(2, graceful_lower_bound(g)), 0
        while True:
            colors, nodes = reference_graceful_search(g, k, ends=ends)
            total += nodes
            if colors:
                break
            k += 1
        report = chi_g(g, SolveBudget(max_nodes=total))
        assert (report.status, report.value, report.nodes) == (SOLVED, k, total), g.edges
        assert report.witness.colors == colors, g.edges


@pytest.mark.parametrize("name,build,value", [
    ("K3,3", lambda: complete_bipartite(3, 3), 6),
    ("Q3", lambda: hypercube(3), 5),
    ("grid3x3", lambda: grid(3, 3), 6),
    ("tree10", lambda: random_tree(10, 3), 5),
    ("gnp8", lambda: random_connected_graph(random.Random(8), 8, density=0.2), 7),
])
def test_refutation_below_chi_g_agrees_with_sat(name, build, value):
    # past brute force's reach: a SAT solver on the definition's clauses
    # must find no graceful coloring one color below the search's value
    pytest.importorskip("sympy")
    g = build()
    assert chi_g(g).value == value
    assert cnf_graceful_coloring(g, value - 1) is None


def test_cnf_oracle_finds_graceful_coloring():
    pytest.importorskip("sympy")
    g = hypercube(3)
    colors = cnf_graceful_coloring(g, 5)
    assert colors is not None and graceful_valid_oracle(g, colors, 5)


def test_trees_solved_within_node_cap():
    # a search that colors vertices in a fixed degree order spends this whole
    # cap refuting k = max degree + 1 on both trees
    budget = SolveBudget(max_nodes=150_000)
    for n, seed, expected in ((40, 2, 5), (39, 39, 6)):
        report = chi_g(random_tree(n, seed), budget)
        assert (report.status, report.value) == (SOLVED, expected), (n, seed)


@pytest.mark.parametrize("g", [star(6), wheel(7), complete(5)], ids=["S6", "W7", "K5"])
def test_palette_up_to_max_degree_is_refuted_before_the_first_node(g):
    # a vertex of maximum degree d needs d distinct edge colors, which no
    # color of a palette k <= d leaves room for
    for k in range(2, max_degree(g) + 1):
        report = solve_graceful_decision(g, k)
        assert (report.status, report.nodes) == (INFEASIBLE, 0), k


@pytest.mark.parametrize("name,build,value,cap", [
    ("tree2000", lambda: random_tree(2000, 1), 7, 2_100),
    ("Q6", lambda: hypercube(6), 10, 2_000),
])
def test_degree_reach_cut_keeps_sparse_graphs_within_node_cap(name, build, value, cap):
    # without the cut on start domains, both run past a million nodes
    g = build()
    report = chi_g(g, SolveBudget(max_nodes=cap))
    assert (report.status, report.value) == (SOLVED, value)
    assert verify_graceful(g, report.witness).valid


def test_chromatic_tree_solved_within_node_cap():
    # a search that colors vertices in a fixed degree order spends this whole
    # cap looking for the 2-coloring; a tree is bipartite, so one 2-coloring
    # pass finds it with no node
    tree = random_tree(200, 1)
    report = chromatic_number(tree, SolveBudget(max_nodes=10_000))
    assert (report.status, report.value, report.nodes) == (SOLVED, 2, 0)
    result = characterize(tree, SolveBudget(max_nodes=10_000))
    assert (result.chi, result.chi_g) == (2, 7)


@pytest.mark.parametrize("build,value,nodes", [
    pytest.param(lambda: complete_bipartite(3, 4), 7, 7, id="K3,4"),
    pytest.param(lambda: complete_bipartite(4, 4), 8, 8, id="K4,4"),
    pytest.param(lambda: complete_bipartite(4, 5), 9, 9, id="K4,5"),
    pytest.param(lambda: complete_bipartite(7, 7), 14, 14, id="K7,7"),
    pytest.param(lambda: complete_multipartite(3, 3, 3), 12, 4053, id="K3,3,3"),
    pytest.param(lambda: complete_multipartite(4, 4, 4), 15, 19978, id="K4,4,4"),
    pytest.param(lambda: wheel(8), 8, 8, id="W8"),
    pytest.param(lambda: cycle(7), 4, 7, id="C7"),
    pytest.param(lambda: complete(6), 11, 3122, id="K6"),
    pytest.param(lambda: random_tree(39, 39), 6, 25, id="tree39s39"),
    pytest.param(lambda: random_tree(40, 2), 5, 26, id="tree40s2"),
    pytest.param(lambda: random_tree(2000, 1), 7, 1313, id="tree2000s1"),
    pytest.param(lambda: complete(7), 13, 19885, id="K7"),
    pytest.param(lambda: complete(8), 14, 57822, id="K8"),
    pytest.param(lambda: complete_multipartite(2, 2, 2, 2, 2), 16, 134239, id="K2,2,2,2,2"),
    pytest.param(lambda: complete_multipartite(3, 3, 3, 3), 17, 141322, id="K3,3,3,3"),
    pytest.param(lambda: random_connected_graph(random.Random(5), 10, density=0.6), 11, 805,
                 id="gnp10p6s5"),
])
def test_chi_g_nodes_are_pinned(build, value, nodes):
    # node counts of the graceful kernel; a change to its order, propagation
    # or symmetry break that moves them must update these pins.  A change
    # that only makes a node cheaper keeps them.  The cap is the pin, so a
    # kernel that needs more nodes runs out instead of searching on.
    report = chi_g(build(), SolveBudget(max_nodes=nodes))
    assert (report.status, report.value, report.nodes) == (SOLVED, value, nodes)


@pytest.mark.parametrize("parts,value", [
    ((2, 2, 2), 7),
    ((2, 2, 2, 2), 10),
    ((3, 3, 3), 12),
    ((4, 4, 4), 15),
    ((2, 2, 2, 2, 2), 16),
], ids=lambda p: "K" + ",".join(map(str, p)) if isinstance(p, tuple) else None)
def test_chi_g_of_complete_multipartite_graphs(parts, value):
    # the values that a set-theoretic search over the parts' colors must match
    g = complete_multipartite(*parts)
    report = chi_g(g)
    assert (report.status, report.value) == (SOLVED, value)
    assert verify_graceful(g, report.witness).valid


def test_ordering_a_pair_that_is_not_twins_changes_chi_g(monkeypatch):
    # vertices 1 and 2 of K4 minus the edge 23 are adjacent, so not twins.
    # At k = 4 the cut leaves the degree-3 vertices 0 and 1 only colors 1
    # and 4, and 0, the first vertex, tries only 1, so 1 takes 4, and
    # ordering the pair leaves vertex 2 no color above 4
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert brute_force_chi_g(g) == chi_g(g).value == 4
    monkeypatch.setattr(solver, "_twin_classes", lambda _: [(1, 2)])
    assert chi_g(g).value == 5


@pytest.mark.parametrize("compute,checks", [(chi_g, 1), (characterize, 2)],
                         ids=["chi_g", "characterize"])
def test_chi_g_checks_connectivity_once(monkeypatch, compute, checks):
    # characterize runs two searches, and each checks once before its first node
    calls = []
    real = solver.is_connected
    monkeypatch.setattr(solver, "is_connected", lambda g: calls.append(g) or real(g))
    compute(cycle(5))
    assert len(calls) == checks


@pytest.mark.parametrize("g,listed", [
    (complete(6), [0] * 6),
    (complete_multipartite(3, 3, 3), [2] * 9),
    (wheel(50), None),  # diameter 2, with 98 edges and 1,127 non-edges
    (path(5), None),  # diameter 4
], ids=["K6", "K3,3,3", "W50", "P5"])
def test_a_core_lists_non_neighbours_only_where_they_are_no_more_than_the_edges(g, listed):
    # so the lists never take more room than the adjacency does
    apart = solver._core(g).apart
    assert (apart if apart is None else [len(a) for a in apart]) == listed


def _neighbourhood_cases():
    """Every graph on up to 5 vertices, the single vertex and disconnected
    graphs among them, then multipartite graphs, stars, wheels and random
    connected graphs of up to 30 vertices, each also with leaves."""
    for n in range(1, 6):
        yield from all_graphs(n)
    rng = random.Random(2024)
    named = [complete_multipartite(*parts)
             for parts in ((1, 1), (2, 3), (1, 4, 4), (3, 3, 3), (5, 6, 7, 8), (1, 26))]
    named += [star(n) for n in (1, 2, 3, 10, 27)] + [wheel(n) for n in (4, 5, 12, 27)]
    densities = (0.1, 0.3, 0.5, 0.7, 0.9)
    named += [random_connected_graph(rng, rng.randint(6, 27), rng.choice(densities))
              for _ in range(40)]
    for g in named:
        yield g
        yield with_leaves(g, rng, rng.randint(1, 3))


def test_diameter_check_matches_diameter():
    for g in _neighbourhood_cases():
        assert _diameter_at_most_2(g) == (diameter(g) <= 2), g.edges


def test_greedy_clique_matches_a_pairwise_scan():
    rng = random.Random(99)
    for g in _neighbourhood_cases():
        by_degree = solver._search_order([len(a) for a in g.adjacency])
        for order in (by_degree, rng.sample(range(g.n), g.n)):
            assert list(solver._greedy_clique(g, order)) == pairwise_greedy_clique(g, order)


def test_diameter_check_boundary_cases():
    for n in range(2, 7):
        assert _diameter_at_most_2(complete(n))
    assert _diameter_at_most_2(wheel(6))
    assert not _diameter_at_most_2(path(5))
    assert not _diameter_at_most_2(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_chi_g_at_least_lower_bound():
    rng = random.Random(1618)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 6))
        report = chi_g(g)
        assert report.value >= graceful_lower_bound(g)


def test_chi_g_monotone_under_subgraphs():
    rng = random.Random(2718)
    from gracecolor.graphs import is_connected

    checked = 0
    while checked < 25:
        g = random_connected_graph(rng, rng.randint(3, 6))
        if len(g.edges) < 2:
            continue
        drop = rng.randrange(len(g.edges))
        edges = [e for i, e in enumerate(g.edges) if i != drop]
        sub = Graph.from_edges(g.n, edges)
        if not is_connected(sub):
            continue
        assert chi_g(sub).value <= chi_g(g).value
        checked += 1


def test_witness_is_deterministic():
    first = chi_g(cycle(6)).witness
    second = chi_g(cycle(6)).witness
    assert first == second


def test_budget_exhaustion_decision(monkeypatch):
    """Every search that runs out of budget stops within it: the nodes spent on
    all meters of the call, and the nodes it reports, are at most max_nodes."""
    spent = []
    spend = BudgetMeter.spend

    def counting_spend(meter, nodes):
        spent.append(nodes)
        spend(meter, nodes)

    monkeypatch.setattr(BudgetMeter, "spend", counting_spend)
    budget = SolveBudget(max_nodes=8)
    searches = (
        lambda: solve_graceful_decision(complete(5), 8, budget),
        lambda: chi_g(complete(6), budget),
        lambda: chromatic_number(wheel(10), budget),  # needs 9 nodes
        lambda: characterize(wheel(8), budget),  # 7 nodes for chi, 8 for chi_g
        lambda: Ap3Engine().longest(40, budget),
    )
    for search in searches:
        spent.clear()
        try:
            report = search()
        except BudgetExhausted:
            pass
        else:
            if hasattr(report, "proven"):  # Ap3Result
                assert not report.proven and report.stats.nodes <= 8
            else:
                assert report.status == EXHAUSTED
                assert report.value is None and report.nodes <= 8
        assert sum(spent) <= 8


def test_zero_seconds_stops_every_kernel():
    # the clock is read at a kernel's first node, so a spent deadline stops
    # even searches far shorter than the time-check interval
    budget = SolveBudget(max_seconds=0)
    result = Ap3Engine().longest(30, budget)
    assert (result.proven, result.stats.nodes) == (False, 0)
    for report in (chi_g(cycle(7), budget), chromatic_number(wheel(10), budget),
                   solve_graceful_decision(complete(5), 8, budget)):
        assert (report.status, report.nodes) == (EXHAUSTED, 0)


@pytest.mark.parametrize("cap", [0, -1, float("nan"), 2.5, True])
def test_budget_rejects_a_node_cap_that_is_not_a_positive_integer(cap):
    # a fractional or NaN cap would never equal a kernel's integer count
    with pytest.raises(ValueError):
        SolveBudget(max_nodes=cap)


def test_budget_accepts_a_node_cap_of_one():
    assert SolveBudget(max_nodes=1).max_nodes == 1


@pytest.mark.parametrize("seconds, ok", [(True, False), ("5", False), (-1, False),
                                         (float("nan"), False), (0, True), (2.5, True),
                                         (float("inf"), True)])
def test_budget_takes_seconds_only_as_a_number_at_least_zero(seconds, ok):
    # True is a bool, not a limit of one second, and "5" a string, not five
    if ok:
        assert SolveBudget(max_seconds=seconds).max_seconds == seconds
    else:
        with pytest.raises(ValueError):
            SolveBudget(max_seconds=seconds)


def test_no_kernel_spends_more_than_its_cap():
    # each call makes one meter, and the count it reports is that meter's
    for cap in (1, 2, 3, 7, 50, 333):
        budget = SolveBudget(max_nodes=cap)
        ladder = Ap3Engine().longest(40, budget)
        runs = [(ladder.proven, ladder.stats.nodes)]
        for report in (chi_g(complete(6), budget), chromatic_number(wheel(10), budget)):
            runs.append((report.status == SOLVED, report.nodes))
        for finished, nodes in runs:
            # a search that runs out has counted exactly its cap
            assert nodes <= cap if finished else nodes == cap


def test_budget_exhaustion_chi_g_reports_no_value():
    report = chi_g(complete(6), SolveBudget(max_nodes=10))
    assert report.status == EXHAUSTED
    assert report.value is None and report.witness is None


def test_chromatic_examples():
    assert chromatic_number(complete(5)).value == 5
    assert chromatic_number(cycle(5)).value == 3
    assert chromatic_number(path(6)).value == 2
    assert chromatic_number(complete_bipartite(3, 4)).value == 2
    assert chromatic_number(wheel(6)).value == 4  # odd rim
    assert chromatic_number(wheel(7)).value == 3  # even rim


def test_chromatic_witness_is_proper():
    rng = random.Random(1729)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8))
        report = chromatic_number(g)
        assert report.status == SOLVED
        colors = report.witness
        assert max(colors) == report.value
        assert all(colors[u] != colors[v] for u, v in g.edges)


def test_chromatic_matches_exhaustive_small():
    """Completeness of the chromatic kernel, whose new colors enter in
    canonical order while the vertex order changes along each branch."""
    import itertools

    def brute_chi(g):
        for k in range(1, g.n + 1):
            for colors in itertools.product(range(1, k + 1), repeat=g.n):
                if all(colors[u] != colors[v] for u, v in g.edges):
                    return k
        return g.n

    def check(g, expected):
        report = chromatic_number(g)
        assert report.value == expected, g.edges
        assert all(report.witness[u] != report.witness[v] for u, v in g.edges)
        return report

    rng = random.Random(7013)
    graphs = [g for n in range(1, 6) for g in all_connected_graphs(n)]
    graphs += [random_connected_graph(rng, n) for n in (6, 7) for _ in range(30)]
    oracle: dict = {}
    for g in graphs:
        key = canonical_form(g)
        if key not in oracle:
            oracle[key] = brute_chi(g)
        check(g, oracle[key])
    # the greedy coloring of these trees uses 3 colors; the 2-coloring pass
    # finds, with no node, the coloring the k = 2 search found
    for n, seed, witness in ((7, 7, (1, 2, 1, 1, 2, 2, 2)), (8, 3, (1, 2, 2, 1, 2, 1, 1, 2)),
                             (9, 2, (2, 1, 1, 1, 2, 2, 2, 1, 1)),
                             (10, 2, (2, 1, 1, 1, 2, 2, 2, 1, 2, 1))):
        tree = random_tree(n, seed)
        report = check(tree, brute_chi(tree))
        assert (report.nodes, report.witness) == (0, witness), (n, seed)


@pytest.mark.parametrize("build,value,palettes,nodes", [
    pytest.param(lambda: cycle(5), 3, [], 0, id="C5"),
    pytest.param(petersen, 3, [], 0, id="petersen"),
    pytest.param(groetzsch, 4, [3], 26, id="groetzsch"),
])
def test_chromatic_search_of_an_odd_cycle_starts_at_3(monkeypatch, build, value, palettes,
                                                     nodes):
    # these graphs have no triangle, so the clique bound is 2; the 2-coloring
    # pass meets an odd cycle, and no palette below 3 is searched
    searched = []
    decide = solver._chi_decide
    monkeypatch.setattr(solver, "_chi_decide",
                        lambda g, order, k, meter: searched.append(k) or decide(g, order, k, meter))
    report = chromatic_number(build())
    assert (report.value, searched, report.nodes) == (value, palettes, nodes)


def _toggled_branch(log):
    """Replay toggle calls on a branch: a call whose (x, c) is on top of the
    branch takes it off, any other puts it on.  Returns the branch left and
    every (x, c) put on, in order."""
    branch, toggled_in = [], []
    for step in log:
        if branch and branch[-1] == step:
            branch.pop()
        else:
            branch.append(step)
            toggled_in.append(step)
    return branch, toggled_in


@pytest.mark.parametrize("refute", [True, False])
def test_search_toggles_each_accepted_node_in_and_out_once(refute):
    # a toy kernel over 4 vertices and colors 1..3 that prunes where 3
    # divides x + c and, when refuting, every node of the last vertex
    n, full = 4, 0b1110
    accepted, log = [], []

    def propagate(x, c, colors, domains, allowed):
        if (x + c) % 3 == 0 or (refute and x == n - 1):
            return None
        accepted.append((x, c))
        return list(domains), full

    meter = BudgetMeter(None)
    found = solver._search(list(range(n)), [full] * n, propagate, meter,
                           lambda x, c: log.append((x, c)))
    branch, toggled_in = _toggled_branch(log)
    # every accepted node is toggled in once, in the order accepted, and a
    # pruned one never
    assert toggled_in == accepted
    assert meter.nodes > len(accepted)
    if refute:  # each is toggled out once, once its subtree is refuted
        assert (found, branch, len(log)) == (None, [], 2 * len(accepted))
    else:  # only the returned coloring's branch is left toggled in
        assert branch == [(v, found[v]) for v in range(n)]


def test_the_chromatic_kernel_passes_no_toggle(monkeypatch):
    toggles = []
    search = solver._search

    def recording(order, domains, propagate, meter, toggle=None):
        toggles.append(toggle)
        return search(order, domains, propagate, meter, toggle)

    monkeypatch.setattr(solver, "_search", recording)
    assert chromatic_number(groetzsch()).value == 4
    assert toggles == [None]  # the one palette searched, k = 3


def test_chromatic_number_of_a_large_tree_takes_no_node():
    report = chromatic_number(random_tree(5000, 1))
    assert (report.status, report.value, report.nodes) == (SOLVED, 2, 0)


@pytest.mark.parametrize("n", range(3, 10))
def test_star_colors_its_leaves_after_a_one_node_search(n):
    # the search keeps only the center, whose reach comes from its n - 1
    # edges in the star: at k = n - 1 its domain is empty, at k = n it is
    # {1, n}, and the first vertex tries only 1
    g = star(n)
    assert solve_graceful_decision(g, n - 1) == SolveReport(INFEASIBLE, None, None, 0)
    report = chi_g(g)
    assert (report.status, report.value, report.nodes) == (SOLVED, n, 1)
    assert report.witness.colors == tuple(range(1, n + 1))
    assert verify_graceful(g, report.witness).valid


def test_single_edge_keeps_both_endpoints():
    # each end of K2 has degree 1, but so has its neighbour: neither is a
    # leaf the search leaves out, so both are searched and colored
    report = chi_g(complete(2))
    assert (report.status, report.value, report.nodes) == (SOLVED, 2, 2)
    assert report.witness.colors == (1, 2)


def test_characterize_examples():
    k2 = characterize(complete(2))
    assert (k2.chi, k2.chi_g, k2.equal, k2.chi_g_is_3) == (2, 2, True, False)
    p3 = characterize(path(3))
    assert (p3.chi, p3.chi_g, p3.equal, p3.chi_g_is_3) == (2, 3, False, True)
    c4 = characterize(cycle(4))
    assert (c4.chi, c4.chi_g, c4.equal, c4.chi_g_is_3) == (2, 4, False, False)


def test_characterize_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        characterize(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_characterize_budget_exhaustion_raises():
    with pytest.raises(BudgetExhausted):
        characterize(complete(6), SolveBudget(max_nodes=5))
    # chi alone takes 7 nodes and chi_g alone 8: together they exceed the budget
    with pytest.raises(BudgetExhausted):
        characterize(wheel(8), SolveBudget(max_nodes=8))


def test_single_vertex_graph():
    # one vertex has a graceful 1-coloring, and a palette has at least two colors
    g = star(1)
    for search in (chi_g, characterize):
        with pytest.raises(ValueError, match="^graph needs at least two vertices$"):
            search(g)
    assert chromatic_number(g).value == 1
    assert solve_graceful_decision(g, 2).status == SOLVED


def test_result_fields():
    # the benchmark reads these fields, and tells an Ap3Result from a
    # SolveReport by whether it has a stats field
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(SearchStats) == ["nodes", "prunes_by_bound"]
    assert names(Ap3Result) == ["value", "witness", "stats", "proven"]
    assert names(SolveReport) == ["status", "value", "witness", "nodes"]


def test_result_records_are_slotted():
    stats = SearchStats()
    report = verify_graceful(path(3), GracefulColoring((2, 2, 3), 3))
    for record in (stats, Ap3Result(0, (), stats, True), SolveReport(SOLVED, 2, (1,), 1),
                   report, report.violation, TableRow(2, 2, 2, (1, 2), STATUS_OK)):
        assert not hasattr(record, "__dict__"), type(record).__name__
