"""Shared test helpers: exhaustive graph corpora and independent oracles.

The oracles here deliberately re-derive everything from definitions (edge
pairs, full enumeration, triple scans) so they stay independent of the
production code paths they are used to check.  check_complete_equivalence
is the exception: it puts two of the package's own checks side by side.
"""

from __future__ import annotations

import itertools
import math
import random

from gracecolor.ap3 import is_ap3_free
from gracecolor.checking import (
    ADJACENT_EQUAL,
    COLOR_OUT_OF_RANGE,
    DUPLICATE_INCIDENT_DIFFERENCE,
    GracefulColoring,
    verify_graceful,
)
from gracecolor.graphs import Graph, complete, is_connected

# Published largest-subset size of [1..122], for the stretch check of L(122).
LONGEST_REFERENCE: dict[int, int] = {122: 32}


def all_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield Graph.from_edges(n, edges)


def all_connected_graphs(n: int):
    for g in all_graphs(n):
        if is_connected(g):
            yield g


def random_connected_graph(rng: random.Random, n: int, density: float = 0.35) -> Graph:
    """Random spanning tree plus each remaining pair with probability density."""
    if n == 1:
        return Graph.from_edges(1, [])
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < density:
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def complete_multipartite(*parts: int) -> Graph:
    """Parts of the given sizes, numbered in turn; two vertices are adjacent
    iff they lie in different parts."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    return Graph.from_edges(len(part), [(u, v) for u, v in itertools.combinations(
        range(len(part)), 2) if part[u] != part[v]])


def clone_vertex(g: Graph, v: int) -> Graph:
    """g plus a new vertex g.n with v's neighbours, a false twin of v."""
    return Graph.from_edges(g.n + 1, [*g.edges, *((u, g.n) for u in g.adjacency[v])])


def with_leaves(g: Graph, rng: random.Random, count: int) -> Graph:
    """g plus count new vertices g.n, g.n + 1, ..., each joined to one
    vertex drawn from those before it, which may be an earlier new one."""
    edges = [*g.edges, *((rng.randrange(v), v) for v in range(g.n, g.n + count))]
    return Graph.from_edges(g.n + count, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + [(i, i + 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def groetzsch() -> Graph:
    """The Mycielskian of C5: triangle-free, with chromatic number 4."""
    rim = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    return Graph.from_edges(11, rim + shadows + [(5 + i, 10) for i in range(5)])


def grid(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c
    edges = [(vid(r, c), vid(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(vid(r, c), vid(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def hypercube(d: int) -> Graph:
    n = 1 << d
    return Graph.from_edges(n, [(v, v | 1 << b) for v in range(n) for b in range(d)
                                if not v >> b & 1])


def diameter(g: Graph) -> int | float:
    """Longest shortest-path distance by Floyd-Warshall; math.inf if g is
    disconnected."""
    n = g.n
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return max(max(row) for row in dist)


def canonical_form(g: Graph) -> tuple:
    """Isomorphism-invariant key: least relabeled edge set over all vertex
    permutations.  Only viable for small n."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        relabeled = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in g.edges
        ))
        if best is None or relabeled < best:
            best = relabeled
    return (g.n, best)


def graceful_valid_oracle(g: Graph, colors, palette: int) -> bool:
    """Definition-level check: proper vertex coloring into [1..palette] whose
    induced edge colors differ on every pair of edges sharing an endpoint.
    Written against edge pairs, unlike the per-vertex production verifier."""
    if any(not (1 <= c <= palette) for c in colors):
        return False
    return _graceful_on(g.edges, colors)


def first_violation(g: Graph, colors, palette: int) -> tuple[str, tuple[int, ...]] | None:
    """The kind and vertices of the violation verify_graceful reports, or
    None, from its docstring's scan order with plain pair loops: a color
    outside [1, palette] by vertex, then equal endpoint colors by edge, then
    equal edge colors at a vertex, by vertex and then by neighbour pair in
    lexicographic order."""
    for v in range(g.n):
        if not 1 <= colors[v] <= palette:
            return COLOR_OUT_OF_RANGE, (v,)
    for u, v in g.edges:
        if colors[u] == colors[v]:
            return ADJACENT_EQUAL, (u, v)
    for u in range(g.n):
        for i, j in itertools.combinations(g.adjacency[u], 2):
            if abs(colors[u] - colors[i]) == abs(colors[u] - colors[j]):
                return DUPLICATE_INCIDENT_DIFFERENCE, (u, i, j)
    return None


def pairwise_greedy_clique(g: Graph, order) -> list[int]:
    """Each vertex in order that is adjacent to every one taken before it,
    each membership asked of the edge set."""
    edges = set(g.edges)
    clique: list[int] = []
    for v in order:
        if all((min(u, v), max(u, v)) in edges for u in clique):
            clique.append(v)
    return clique


def _graceful_on(edges, colors) -> bool:
    for u, v in edges:
        if colors[u] == colors[v]:
            return False
    edge_color = {e: abs(colors[e[0]] - colors[e[1]]) for e in edges}
    for e, f in itertools.combinations(edges, 2):
        if (set(e) & set(f)) and edge_color[e] == edge_color[f]:
            return False
    return True


def reference_graceful_search(g: Graph, k: int, twins: bool = True, leaves: bool = True,
                              ends: bool = False) -> tuple[tuple[int, ...] | None, int]:
    """The graceful decision search with every domain recomputed from the
    definition at every node: y is open at an uncolored v iff the colored
    vertices plus v = y are gracefully colored on the edges among them, and
    the palette holds as many distinct nonzero differences |y - z| as v has
    edges, which must all get distinct colors.  With twins, the colors of
    every set of vertices with one neighbour set also ascend with the index:
    y is closed at v when a colored w < v of v's class has a color >= y, or
    a colored w > v has a color <= y.  With leaves, every vertex of degree 1
    whose neighbour has degree 2 or more is left out of the search; after a
    success each of them, in index order, takes the least color that keeps
    the coloring graceful on the colored edges.  With ends, a node is also
    pruned when color 1 or color k is held by no colored vertex and open at
    no uncolored one: when g has no graceful (k-1)-coloring, every graceful
    k-coloring uses k, or it would be a (k-1)-coloring, and uses 1, or
    shifting every color down by one would give a (k-1)-coloring.  A vertex
    left out with the leaves may hold an end, so ends fits only a search
    that keeps every vertex.  Same order as the solver:
    the next vertex has the fewest open colors, ties to the higher degree
    and then the lower index; the first one tries its open colors up to
    ceil(k/2); colors ascend; a node is one color tried at one vertex.  A
    vertex with no open color before the first node gives (None, 0).
    Returns (colors or None, nodes)."""
    neighbours = [{w for e in g.edges if v in e for w in e if w != v} for v in range(g.n)]
    left_out = [v for v in range(g.n) if leaves and len(neighbours[v]) == 1
                and len(neighbours[next(iter(neighbours[v]))]) > 1]
    order = sorted((v for v in range(g.n) if v not in left_out),
                   key=lambda v: (-len(g.adjacency[v]), v))
    rank = {v: i for i, v in enumerate(order)}
    colors = [0] * g.n
    nodes = 0
    mates = [[w for w in range(g.n) if twins and w != v and neighbours[w] == neighbours[v]]
             for v in range(g.n)]

    def reaches(v, y):
        return len({abs(y - z) for z in range(1, k + 1) if z != y}) >= len(g.adjacency[v])

    def ordered(v, y):
        return all(not colors[w] or (colors[w] < y if w < v else colors[w] > y)
                   for w in mates[v])

    def graceful_with(v, y):
        colors[v] = y
        found = _graceful_on([e for e in g.edges if colors[e[0]] and colors[e[1]]], colors)
        colors[v] = 0
        return found

    def open_colors(v):
        return [y for y in range(1, k + 1)
                if reaches(v, y) and ordered(v, y) and graceful_with(v, y)]

    def extend(x, choices) -> bool:
        nonlocal nodes
        for y in choices:
            nodes += 1
            colors[x] = y
            domains = {v: open_colors(v) for v in order if not colors[v]}
            if ends and not {1, k} <= {*colors, *(z for zs in domains.values() for z in zs)}:
                continue
            if not domains:
                return True
            if all(domains.values()):
                nxt = min(domains, key=lambda v: (len(domains[v]), rank[v]))
                if extend(nxt, domains[nxt]):
                    return True
        colors[x] = 0
        return False

    start = {v: open_colors(v) for v in order}
    if not all(start.values()):
        return None, 0
    if not extend(order[0], [y for y in start[order[0]] if y <= (k + 1) // 2]):
        return None, nodes
    for v in left_out:
        colors[v] = next(y for y in range(1, k + 1) if graceful_with(v, y))
    return tuple(colors), nodes


def cnf_graceful_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """A graceful k-coloring found by sympy's SAT solver, or None when the
    formula is unsatisfiable.  The clauses restate the definition: each
    vertex takes exactly one color, adjacent vertices differ, and no two
    neighbors of a vertex lie at the same distance from its color."""
    from sympy import symbols
    from sympy.logic.boolalg import And, Not, Or
    from sympy.logic.inference import satisfiable

    palette = range(1, k + 1)
    var = {(v, y): symbols(f"x_{v}_{y}") for v in range(g.n) for y in palette}
    clauses = []
    for v in range(g.n):
        clauses.append(Or(*(var[v, y] for y in palette)))
        clauses += [Or(Not(var[v, y]), Not(var[v, z]))
                    for y, z in itertools.combinations(palette, 2)]
    for u, v in g.edges:
        clauses += [Or(Not(var[u, y]), Not(var[v, y])) for y in palette]
    for w in range(g.n):
        for u, v in itertools.combinations(sorted(g.adjacency[w]), 2):
            for y, a, b in itertools.product(palette, repeat=3):
                if abs(a - y) == abs(b - y):
                    clauses.append(Or(Not(var[w, y]), Not(var[u, a]), Not(var[v, b])))
    model = satisfiable(And(*clauses))
    if not model:
        return None
    return tuple(next(y for y in palette if model[var[v, y]]) for v in range(g.n))


def brute_force_chi_g(g: Graph, cap: int = 12) -> int | None:
    """Smallest palette 2..cap admitting a graceful coloring, by enumerating
    all palette**n colorings."""
    for k in range(2, cap + 1):
        for colors in itertools.product(range(1, k + 1), repeat=g.n):
            if graceful_valid_oracle(g, colors, k):
                return k
    return None


def check_complete_equivalence(colors) -> tuple[bool, bool]:
    """(graceful on the complete graph, 3-AP-free) for a set of n >= 2 colors,
    each side decided by the package's own check."""
    values = tuple(sorted(set(colors)))
    if len(values) < 2:
        raise ValueError("need at least two distinct colors")
    coloring = GracefulColoring(values, max(values[-1], 2))
    return verify_graceful(complete(len(values)), coloring).valid, is_ap3_free(values)


def contains_progression(values) -> bool:
    """Triple scan: does the set contain a 3-term arithmetic progression?"""
    xs = sorted(values)
    for i, j, k in itertools.combinations(range(len(xs)), 3):
        if xs[j] - xs[i] == xs[k] - xs[j]:
            return True
    return False


def longest_by_enumeration(m: int) -> tuple[int, tuple[int, ...]]:
    """Independent largest-subset oracle: grow the subset size until no
    combination of that size avoids a progression.  Subsets of
    progression-free sets are progression-free, so the first size level with
    no witness is conclusive."""
    best = 0
    best_set: tuple[int, ...] = ()
    for size in range(1, m + 1):
        found = None
        for combo in itertools.combinations(range(1, m + 1), size):
            if not contains_progression(combo):
                found = combo
                break
        if found is None:
            break
        best, best_set = size, found
    return best, best_set


def ended_progression_free_sets(m: int):
    """Every progression-free subset of [1..m] that holds both 1 and m, as a
    sorted tuple: depth-first extension in increasing order, where a new
    largest member c is refused when some a < b in the set has a + c = 2b."""
    def extend(chosen):
        if chosen[-1] == m:
            yield tuple(chosen)
            return
        for c in range(chosen[-1] + 1, m + 1):
            if not any((a + c) % 2 == 0 and (a + c) // 2 in chosen for a in chosen):
                chosen.append(c)
                yield from extend(chosen)
                chosen.pop()
    yield from extend([1])


def spans_exactly(m: int, size: int) -> bool:
    """Does some progression-free set of `size` >= 2 members hold both 1 and
    m?  Depth-first extension in increasing order with m reserved: a new
    member c is refused when some chosen a has its midpoint with c chosen,
    or has c as its midpoint with m; and c leaves room below m for the
    members still to come."""
    def extend(chosen, left):
        if not left:
            return True
        for c in range(chosen[-1] + 1, m - left + 1):
            if not any((a + c) % 2 == 0 and (a + c) // 2 in chosen or a + m == 2 * c
                       for a in chosen):
                chosen.append(c)
                if extend(chosen, left - 1):
                    return True
                chosen.pop()
        return False
    return extend([1], size - 2)


def is_lower_heavy(values, m: int) -> bool:
    """No more members x with 2x > m + 1 (the upper half of [1..m]) than
    with 2x < m + 1 (the lower half); the middle of an odd m is in neither."""
    upper = sum(2 * x > m + 1 for x in values)
    lower = sum(2 * x < m + 1 for x in values)
    return upper <= lower
