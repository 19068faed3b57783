"""Graph construction, family generators, edge-list I/O, and metrics."""

import itertools
import random

import pytest

from gracecolor import graphs
from gracecolor.graphs import (
    Graph,
    GraphFamily,
    FormatError,
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    is_connected,
    max_degree,
    parse_graph,
    path,
    random_tree,
    serialize_graph,
    star,
    wheel,
)
from support import random_connected_graph


def test_from_edges_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.adjacency == ((1, 2), (0,), (0,))
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_parse_smallest_graphs():
    assert parse_graph("2 1\n0 1") == complete(2)
    assert parse_graph("3 3\n0 1\n1 2\n0 2") == complete(3)
    assert parse_graph("2 1\r0 1\r") == complete(2)
    assert parse_graph("3 2\r\n0 1\r\n\r\n1 2\r\n") == path(3)


def test_parse_reports_self_loop_line():
    with pytest.raises(FormatError, match="line 3"):
        parse_graph("3 2\n0 1\n1 1")
    with pytest.raises(FormatError, match="^line 3: self-loop"):
        parse_graph("3 2\r0 1\r1 1\r")


def test_parse_rejections():
    with pytest.raises(FormatError, match="^line 2: expected an integer, got 'x'$"):
        parse_graph("2 1\n0 x")
    with pytest.raises(FormatError, match="out of range"):
        parse_graph("2 1\n0 5")
    with pytest.raises(FormatError, match="duplicate"):
        parse_graph("3 2\n0 1\n1 0")
    with pytest.raises(FormatError, match="declares m=2"):
        parse_graph("3 2\n0 1")
    with pytest.raises(FormatError, match="empty"):
        parse_graph("# nothing here\n")
    with pytest.raises(FormatError, match="^line 2: header declares m=2 edges, found 1$"):
        parse_graph("# a header after a comment\n3 2\n0 1\n")
    with pytest.raises(FormatError, match="^line 2: expected two integers, got '0 1 2'$"):
        parse_graph("3 1\n0 1 2\n")
    with pytest.raises(FormatError, match="^empty document: missing 'n m' header$"):
        parse_graph("\n# no content line\n\n")
    # an integer is ASCII digits after an optional '-'; int() takes more
    for text, token in (("+1 0\n", "+1"), ("2 1\n0_1 1\n", "0_1"),
                        ("2 1\n0 \u0663\n", "\u0663"), ("2 1\n\uff11 0\n", "\uff11")):
        line = text[:text.index(token)].count("\n") + 1
        with pytest.raises(FormatError) as info:
            parse_graph(text)
        assert str(info.value) == f"line {line}: expected an integer, got {token!r}"
    with pytest.raises(FormatError, match="^line 2: edge \\(0, -2\\) out of range for n=2$"):
        parse_graph("2 1\n0 -2\n")
    assert parse_graph("02 01\n00 01\n") == complete(2)


@pytest.mark.parametrize("separator",
                         ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_lf_crlf_and_cr_end_a_line(separator):
    # str.splitlines also ends a line at these and would name line 5
    with pytest.raises(FormatError, match="^line 4: self-loop on vertex 0$"):
        parse_graph(f"3 2\n0 1{separator}\n1 2\n0 0\n")


def test_parse_accepts_comments_and_blank_lines():
    g = parse_graph("# a triangle\n3 3\n\n0 1\n1 2\n# middle\n0 2\n")
    assert g == complete(3)


def test_parse_checks_each_edge_once(monkeypatch):
    k6 = complete(6)
    calls = []
    real = graphs._edge
    monkeypatch.setattr(graphs, "_edge", lambda n, u, v: calls.append((u, v)) or real(n, u, v))
    assert parse_graph(serialize_graph(k6)) == k6
    assert len(calls) == len(k6.edges)


def test_serialize_canonical():
    assert serialize_graph(complete(2)) == "2 1\n0 1\n"
    assert serialize_graph(path(3)) == "3 2\n0 1\n1 2\n"


def test_round_trip_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(100):
        n = rng.randint(1, 50)
        g = random_connected_graph(rng, n)
        assert parse_graph(serialize_graph(g)) == g
        # every adjacency tuple is ascending
        assert all(list(a) == sorted(a) for a in g.adjacency)


@pytest.mark.parametrize("n", range(2, 8))
def test_family_edge_counts(n):
    assert len(path(n).edges) == n - 1
    assert len(complete(n).edges) == n * (n - 1) // 2
    assert len(star(n).edges) == n - 1
    if n >= 3:
        assert len(cycle(n).edges) == n
    if n >= 4:
        assert len(wheel(n).edges) == 2 * (n - 1)
    assert len(complete_bipartite(n, 3).edges) == 3 * n


def test_complete4_shape():
    g = complete(4)
    assert len(g.edges) == 6
    assert all(len(a) == 3 for a in g.adjacency)


def test_wheel_convention():
    g = wheel(6)
    assert g.n == 6
    assert len(g.adjacency[0]) == 5  # hub adjacent to the whole rim
    assert all(len(g.adjacency[v]) == 3 for v in range(1, 6))


def test_caterpillar_by_construction():
    g = caterpillar(3, [2, 0, 1])
    assert g.n == 6
    assert is_connected(g) and len(g.edges) == g.n - 1  # a tree
    degrees = sorted(len(a) for a in g.adjacency)
    # spine vertex 0 carries two leaves plus one spine edge
    assert max_degree(g) == 3
    assert degrees == [1, 1, 1, 2, 2, 3]


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        wheel(3)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        caterpillar(2, [1])
    with pytest.raises(ValueError):
        GraphFamily("cycle", (4, 4)).build()
    with pytest.raises(ValueError):
        GraphFamily("moebius", (4,)).build()


def test_family_build_error_messages():
    cases = [
        (("cycle", (4, 4)), "cycle takes 1 parameter(s), got 2"),
        (("path", ()), "path takes 1 parameter(s), got 0"),
        (("complete_bipartite", (3,)), "complete_bipartite takes 2 parameter(s), got 1"),
        (("random_tree", (9, 3, 1)), "random_tree takes 2 parameter(s), got 3"),
        (("caterpillar", ()), "caterpillar needs a spine length"),
        (("caterpillar", (2, 1)), "need one leg count per spine vertex, got 1 for spine 2"),
        (("moebius", (4,)), "unknown family tag 'moebius'"),
    ]
    for (tag, params), message in cases:
        with pytest.raises(ValueError) as info:
            GraphFamily(tag, params).build()
        assert str(info.value) == message


def test_family_dispatch_matches_functions():
    assert GraphFamily("wheel", (7,)).build() == wheel(7)
    assert GraphFamily("caterpillar", (3, 2, 0, 1)).build() == caterpillar(3, [2, 0, 1])
    assert GraphFamily("random_tree", (9, 3)).build() == random_tree(9, 3)


def test_random_tree_is_tree():
    for n, seed in itertools.product((2, 12), range(10)):
        g = random_tree(n, seed)
        assert g.n == n
        assert len(g.edges) == n - 1
        assert is_connected(g)


def test_max_degree_examples():
    assert max_degree(complete(4)) == 3
    assert max_degree(path(3)) == 2
    assert max_degree(wheel(7)) == 6


def test_graphs_are_immutable_and_hashable():
    g = path(4)
    with pytest.raises(AttributeError):
        g.n = 5
    assert hash(g) == hash(path(4))
