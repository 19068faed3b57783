"""The verifier against the definition on random graphs of up to 12
vertices, disconnected ones and isolated vertices included.

A coloring that gives distinct vertices distinct colors from a
progression-free set is graceful: two edges at v of one color would need
two neighbours of one color, or v's color midway between two others.  So
each coloring starts from such a set, which makes valid colorings common,
and then at most one vertex is recolored, mostly so that an edge color
repeats, which makes invalid ones common; the palette lies below, at or
above the largest color."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gracecolor.checking import GracefulColoring, verify_graceful  # noqa: E402
from gracecolor.graphs import Graph  # noqa: E402
from support import graceful_valid_oracle  # noqa: E402

MAX_N = 12
# one more than each integer whose base-3 digits are all 0 or 1: 3-AP-free
PROGRESSION_FREE = tuple(1 + sum(3 ** i for i in range(5) if x >> i & 1) for x in range(32))


@st.composite
def _graph(draw):
    """A graph on 1..MAX_N vertices, a spanning tree plus more edges or
    just a few edges."""
    n = draw(st.integers(1, MAX_N))
    edges = set()
    if draw(st.booleans()):
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3 * n)))
    return Graph.from_edges(n, sorted(edges))


@st.composite
def _coloring(draw, g):
    """Colors of g's vertices from a shifted progression-free set, in any
    order, and at most one vertex recolored: to any color, to a neighbour's
    color, or so that an edge color repeats at a vertex u, as a neighbour
    of u at c_u +- |c_u - c_v| for another neighbour v, or as u midway
    between two neighbours."""
    shift = draw(st.integers(0, 3))
    colors = [shift + c for c in draw(st.lists(st.sampled_from(PROGRESSION_FREE),
                                               min_size=g.n, max_size=g.n, unique=True))]
    kind = draw(st.sampled_from(["any", "neighbour", "edge", "midpoint", "none"]))
    if kind == "any":
        colors[draw(st.integers(0, g.n - 1))] = draw(st.integers(1, max(colors) + 2))
    elif kind != "none" and g.edges:
        u, v = draw(st.sampled_from(g.edges))
        if draw(st.booleans()):
            u, v = v, u
        w = draw(st.sampled_from([w for w in g.adjacency[u] if w != v] or [v]))
        if kind == "neighbour":
            colors[v] = colors[u]
        elif kind == "edge" and w != v:
            reflected = 2 * colors[u] - colors[v]
            colors[w] = reflected if reflected >= 1 else colors[v]
        elif kind == "midpoint":
            colors[u] = max(1, (colors[v] + colors[w]) // 2)
    return colors, kind


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_verifier_matches_the_definition_on_graphs_up_to_12_vertices(data):
    g = data.draw(_graph())
    colors, kind = data.draw(_coloring(g))
    top = max(colors)
    palette = max(2, top + data.draw(st.sampled_from([0, 1, 3, -1, -2])))
    valid = verify_graceful(g, GracefulColoring(tuple(colors), palette)).valid
    assert valid == graceful_valid_oracle(g, colors, palette)
    if kind == "none" and palette >= top:
        assert valid
