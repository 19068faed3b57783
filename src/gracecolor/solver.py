"""Exact graceful chromatic numbers and chromatic numbers for small graphs.

Both numbers come from one search, _search, which decides one palette size
k at a time.  It keeps, for every uncolored vertex, the set of colors still
open there, and colors next the uncolored vertex with the fewest colors left
(fail-first, as in Brelaz's DSATUR), ties going to the higher degree and
then the lower index.  It walks the tree on an explicit stack, so a graph
may have more vertices than Python allows frames, and it holds the only
per-node cap/count/time check of this module.  A kernel supplies only its
propagation rule: after vertex x gets color c, the rule returns the child's
domains and the colors worth trying next, or None when a domain empties.

Graceful rule.  A domain holds the colors y for which the colored vertices
plus v = y still form a graceful partial coloring, and that v's degree can
reach.  The second part is the degree-reach cut, applied once, to the
start domains: in a graceful k-coloring a vertex v of color c and degree d
has d neighbors of d distinct colors, none of them c, since two neighbors
of one color would give two edges at v one color.  So the d edge colors
|c - cu| at v are distinct values in 1..max(c - 1, k - c), and d <=
max(c - 1, k - c): c is open at v only if c <= k - d or c >= d + 1.  At k
<= max degree this empties the domain of a vertex of maximum degree, and
the palette is refuted before the first node.  After x gets color c, only
the constraints that involve x are new, and each is applied once per node:
  1. Every uncolored neighbor of x loses {c} and {cw, 2c - cw} for each
     colored neighbor w of x: y = c repeats x's color, and y = cw or
     2c - cw gives edge xv the color |c - cw| of edge xw.  The set does not
     depend on v, so it is built once.
  2. For each colored neighbor u of x, every uncolored neighbor v of u
     loses {c, 2cu - c}: these are cu +- |cu - c|, the colors that give uv
     the color of ux, and one of the two is always c.
  3. An uncolored neighbor v of x loses the midpoint (c + cz)/2 of each
     colored neighbor z of v, which gives vx and vz one color; a z of color
     c leaves v no color at all, so the node is pruned.  The colors of v's
     colored neighbors sit in two per-vertex masks, one per color parity,
     which the search toggles: x's color goes in when the rules accept x =
     c and out when the search returns to x.  Only a cz of c's parity
     gives an integer midpoint, so the rule shifts the mask of c's parity
     instead of scanning v's neighbors.
Rule 2, and the color set of rule 1, come from one pass over x's colored
neighbors; rules 1 and 3 are then applied in one pass over its uncolored
neighbors.  On graphs of diameter at most 2 with no more non-edges than
edges both come from masks instead (see "Dense graphs").  Domains are
only ANDed, so this order changes no child and no prune.
These are all the ways a graceful coloring can fail around a new vertex:
its color is proper, the edge colors at a colored neighbor differ, and the
edge colors at the uncolored vertex differ.
Every open color is worth trying.  The first vertex, the highest-degree
one, starts with only colors up to ceil(k/2) in its domain: reflecting
every color x to k+1-x preserves gracefulness, and it maps the colors the
cut leaves open at v onto themselves, so half the palette suffices there,
and a nonempty cut domain keeps a color in that half.
The graceful chromatic number is found by iterative deepening, k =
lower_bound, lower_bound+1, ..., and the first success is exact because
every smaller k was refuted exhaustively.

Twins.  Vertices with one neighbour tuple are false twins, and no two of
them are adjacent, since v is not in N(v).  Swapping two twins u and v maps
every edge to an edge, so it is an automorphism, and it maps every graceful
coloring to a graceful coloring.  Twins always get distinct colors: a
connected graph with two or more vertices has no isolated vertex, so u and
v share a neighbour w, and wu and wv must differ in color.  So within each
twin class the colors may be required to ascend with the vertex index:
after x gets color c, every uncolored later class-mate of x keeps only the
colors above c, and every earlier one only the colors below c.  The
reflection break stays sound with this order.  The first vertex is the
lowest-index vertex of maximum degree, and twins share a degree, so it
comes first in its class.  Take any graceful k-coloring and sort every
class.  If the first vertex's color is above ceil(k/2), reflect, which
reverses every class, and sort again: the first vertex then holds its
class's least color, which is at most k + 1 minus its old color, at most
ceil(k/2).  Both moves keep the degree-reach cut, since twins share a
degree.  Adjacent twins, such as the vertices of K_n, are left unordered;
ordering them turns K_n into a sorted-set search, which is the ladder
kernel's job.  The chromatic kernel uses no twin order, since false twins
may share a proper color.

Leaves.  A leaf is a vertex of degree 1 whose neighbour p has degree 2 or
more.  It constrains only p: its color y must differ from p's color c, and
|y - c| from the colors of p's other edges.  So the graceful kernel
searches g without its leaves, and each kept vertex keeps the start domain
its degree in g gives and its twin classes in g; a class shares one degree
and one neighbour tuple, so it is all kept or all leaves.  The search is
exact.  Every graceful k-coloring of g colors the kept vertices within
those domains, and the twin and reflection moves above act on g, so some
coloring the search accepts extends to g whenever g has one.  The first
vertex is unchanged: a vertex of maximum degree is kept unless g is K2.
Conversely, let the search give p color c.  The differences p can reach
are 1..max(c - 1, k - c), each as c - d or c + d, and the cut gave p a c
with max(c - 1, k - c) >= deg_g(p).  p's edges to kept vertices take
distinct differences, so at least as many differences as p has leaves are
still free.  After a success each leaf, in index order, takes the least
color whose difference at p is still free, which colors g gracefully;
leaves of one parent are twins, and their colors ascend with the index.
When p has degree 1 too, g is K2, and both ends are kept.  When every
neighbour of p is a leaf, g is a star, and the search colors p alone.
Removing leaves keeps g connected.  The kept vertices, their order, twin
classes and the leaves of each parent are found once per public call, and
every palette of the deepening searches them.

Palette ends.  The deepening searches palette k only when g has no
graceful (k-1)-coloring: k - 1 is below the lower bound or was refuted.
Then every graceful k-coloring uses color k, or truncating the palette to
1..k-1 would give a (k-1)-coloring, and uses color 1, or shifting every
color down by one, which keeps every difference, would give one.  So a
node is pruned when one of the two ends is held by no colored vertex and
open at no uncolored one.  The symmetry breaks above keep a coloring that
uses both ends: reflection maps {1, k} onto itself, and sorting a twin
class permutes colors among its vertices, so neither changes the set of
colors used.  The rule holds only for colorings of all of g: when g has
leaves, a leaf may be the one vertex that holds an end, so the core's
colors need not contain it.  solve_graceful_decision takes k from its
caller and knows nothing of k - 1, so it never prunes by the ends.  The
check is made only on graphs of diameter at most 2, where all colors
differ.  Where colors repeat, an end is seldom missing from every domain:
on 38 random graphs of 6 to 9 vertices, diameter 3 or more and no leaf,
the check saved 1 of 2,079 nodes, and it costs a pass over the domains at
every node.  It runs last, on the child's domains.  It first sets x's own
domain in the child to c, so every colored vertex's domain is exactly its
color, and one OR over the child's domains gives every color held or
open.

Dense graphs.  When g has diameter at most 2, the colored vertices of a
live branch have pairwise distinct colors.  Let u and w be colored, w
after u.  If they are adjacent, rule 1 took u's color from w's domain.
Otherwise they share a neighbour z, which has degree 2 or more, so it is
no leaf and is searched.  If z was colored before u, rule 2 took cu from
w's domain when u got it; if z was colored after u and before w, rule 1
did, as cu is on a colored neighbour of z; if z was uncolored when w got
cu, rule 3 pruned that node, as z then had two neighbours of color cu.
So a color names its vertex, and rule 2 needs no walk: the colored
common neighbours of x and v are the colors both have on colored
neighbours.  Every vertex v keeps named[v], with bit 2cu for each colored
neighbour u, toggled beside the parity masks, and v loses c and every
2cu - c, which is (named[x] & named[v]) >> c.  Rule 1's set comes from two
more masks, bit cu and bit 2k - cu for each colored neighbour u: the first
is the colors cu, and the second shifted right by 2k - 2c is the colors
2c - cu.  The masks of v are read only while v is uncolored, and since no
color repeats, v's mask is the mask over every colored vertex XOR the mask
over v's colored non-neighbours.  So the masks track the non-neighbours,
and coloring a vertex of K_n toggles no vertex's masks.  This is done when
g also has no more non-edges than edges, as K_n and complete multipartite
graphs have; then each vertex's list of non-neighbours takes no more room
than its neighbours.  On a sparser graph of diameter 2, such as a wheel,
the walk below is shorter than the passes the masks need: with masks that
track the neighbours, wheels and random graphs of diameter 2 ran 5 to 25 %
slower.  On diameter 3 or more a color may repeat, so a shared color no
longer names a shared neighbour, and rule 2 walks each colored
neighbour's adjacency.

Chromatic rule.  c is dropped from every uncolored neighbor's domain, and
the colors worth trying are 1..min(k, u+1), where u is the largest color on
the branch, so new colors enter in canonical order; the first vertex's
start domain is {1}.  This break stays complete under the dynamic vertex
order.  Take any proper k-coloring phi and
follow it down the search: when the vertex picked next has a phi color not
yet met on the branch, label that color u+1; otherwise reuse its label.
Distinct phi colors get distinct labels, so completing the labelling to a
bijection of 1..k turns phi into a proper k-coloring psi that agrees with
the branch.  Every uncolored vertex keeps its psi color in its domain, so
no domain empties, and the label the picked vertex needs is open there and
at most u+1.  By induction the search reaches psi unless it returns another
coloring first.  No palette below 3 is searched.  chi <= 2 exactly when g
is bipartite (Koenig), and a connected bipartite graph has exactly one
proper 2-coloring that gives the first vertex of the search order color 1:
the one a breadth-first pass from it builds, in linear time and with no
node.  It is the coloring the k = 2 search returned, since that search
tries only color 1 first.  When the pass meets an odd cycle, chi >= 3, and
the search starts at the larger of 3 and the greedy clique.

Every search runs sequentially in the calling process.  Each public call
makes one BudgetMeter from its budget, and every level of its deepening run
draws on it, so a node limit bounds the work actually done and a reported
node count is that work.  Only characterize() runs two searches, and they
share its one meter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterator, Sequence

from .budget import BudgetExhausted, BudgetMeter, SolveBudget
from .checking import GracefulColoring
from .graphs import Graph, is_connected, max_degree

SOLVED = "solved"
INFEASIBLE = "infeasible-at-k"
EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Result of one exact computation.

    witness is a GracefulColoring for graceful solves and a plain color tuple
    for chromatic-number solves; it is present exactly when status is solved.
    """

    status: str
    value: int | None
    witness: GracefulColoring | tuple[int, ...] | None
    nodes: int


@dataclass(frozen=True)
class Characterization:
    chi: int
    chi_g: int
    equal: bool
    chi_g_is_3: bool


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValueError("graph must be connected")


def graceful_lower_bound(g: Graph) -> int:
    """Largest applicable structural lower bound for the graceful chromatic number.

    Bounds: max degree + 1 for any connected graph; r + 2 for r-regular
    graphs with r >= 2 (the only 1-regular connected graph is the single
    edge, which needs just 2 colors); the vertex count when the diameter is
    at most 2, since all colors must then be distinct.
    """
    _require_connected(g)
    return _lower_bound(g, _diameter_at_most_2(g))


def _lower_bound(g: Graph, dense: bool) -> int:
    """graceful_lower_bound of connected g, told whether its diameter is at
    most 2."""
    bound = max_degree(g) + 1
    if bound > 2 and all(len(a) == bound - 1 for a in g.adjacency):
        bound += 1  # (bound - 1)-regular
    return max(bound, g.n) if dense else bound


def _diameter_at_most_2(g: Graph) -> bool:
    """Whether diameter(g) <= 2: whether every vertex's radius-2 ball is all
    of g.

    A vertex of degree n - 1 joins every pair within two steps, which
    settles the single vertex, stars, wheels and K_n at once.  Otherwise
    n >= 2, and the ball of a vertex v is N(v) | N(N(v)): v lies in N(u)
    for each neighbour u, and an isolated v, whose union is empty, fails as
    it should.  So the ball depends on N(v) alone, and each distinct
    neighbour tuple is tested once, stopping at the first ball that misses
    a vertex."""
    adj = g.adjacency
    return any(len(nb) == g.n - 1 for nb in adj) or all(
        len(set(nb).union(*(adj[u] for u in nb))) == g.n for nb in set(adj))


def _search_order(degree: Sequence[int]) -> list[int]:
    """Every vertex, by degree from the highest, then by index."""
    return sorted(range(len(degree)), key=lambda v: (-degree[v], v))


def _twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Every class of two or more vertices with one neighbour tuple, each in
    ascending index order.  These are false twins: v is not in N(v), so no
    two of them are adjacent."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, nb in enumerate(g.adjacency):
        classes.setdefault(nb, []).append(v)
    return [tuple(cls) for cls in classes.values() if len(cls) > 1]


_Rule = Callable[[int, int, list[int], list[int], int], "tuple[list[int], int] | None"]
_Toggle = Callable[[int, int], None]


def _search(order: list[int], domains: list[int], propagate: _Rule,
            meter: BudgetMeter, toggle: _Toggle | None = None) -> tuple[int, ...] | None:
    """Color every vertex as propagate allows, or prove it cannot be done.
    Returns per-vertex colors or None.

    order holds every vertex, the first one first, and breaks fail-first
    ties.  domains holds each vertex's start domain, a bitmask of colors
    from 1 up; if one is empty, the search returns None before its first
    node.  The first vertex tries the colors of its start domain, which are
    also the colors allowed at its node, so a kernel that tries fewer
    colors there restricts that domain: the graceful kernel to the half
    palette 1..ceil(k/2), the chromatic kernel to color 1.  The half
    palette moves no exit: a nonempty degree-reach domain holds k + 1 - c
    with each c, so it meets 1..ceil(k/2).  After colors[x] = c,
    propagate(x, c, colors, domains, allowed) returns the child domains and
    the colors worth trying next, or None to prune.  If toggle is given,
    the search calls toggle(x, c) once when propagate accepts x = c, and
    once more when it comes back up to x, still colored c, from that child,
    so a rule may keep state along the branch; a returned coloring leaves
    its branch toggled in.  A pruned node is never toggled, so propagate
    may prune anywhere.  The frame being searched lives in locals and a
    tuple is pushed only on descent: reading and writing stack[-1] at every
    node made the graceful corpus about 10 % slower.
    """
    if not all(domains):
        return None
    nodes = stop = 0
    colors = [0] * len(domains)
    x = order[0]
    todo = allowed = domains[x]
    stack: list[tuple[int, int, list[int], int]] = []
    try:
        while True:
            if not todo:
                colors[x] = 0
                if not stack:
                    return None
                x, todo, domains, allowed = stack.pop()
                if toggle is not None:
                    toggle(x, colors[x])
                continue
            bit = todo & -todo
            todo ^= bit
            if nodes == stop:
                stop = meter.next_stop(nodes)
            nodes += 1
            c = bit.bit_length() - 1
            colors[x] = c
            child = propagate(x, c, colors, domains, allowed)
            if child is None:
                continue
            if toggle is not None:
                toggle(x, c)
            # fail-first: fewest live colors, ties to the earliest in order;
            # propagate pruned every empty domain, so one color is the least.
            # No uncolored vertex is left when nxt stays -1.
            nd, next_allowed = child
            nxt, fewest = -1, 1 << 30  # more live colors than any domain holds
            for v in order:
                if not colors[v]:
                    live = nd[v].bit_count()
                    if live < fewest:
                        nxt, fewest = v, live
                        if live == 1:
                            break
            if nxt < 0:
                return tuple(colors)
            stack.append((x, todo, domains, allowed))
            x, domains, allowed = nxt, nd, next_allowed
            todo = domains[x] & allowed
    finally:
        meter.spend(nodes)


@dataclass(frozen=True, slots=True)
class _Core:
    """What the graceful kernel searches for one graph g, built once per
    public call and shared by every palette: g without its leaves (see
    "Leaves"), the kept vertices renumbered 0..m-1 in index order."""

    n: int  # vertices of g
    kept: tuple[int, ...]  # g's index of each core vertex
    adjacency: tuple[tuple[int, ...], ...]  # core neighbours
    degree: tuple[int, ...]  # degree in g, which the reach cut reads
    order: list[int]  # by degree in g, then index
    # mates[v] is None, or v's earlier and later class-mates (see "Twins")
    mates: tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, ...]
    leaves: tuple[tuple[int, tuple[int, ...]], ...]  # (core parent, its leaves in g)
    dense: bool  # g has diameter at most 2 (see "Dense graphs")
    # apart[v]: the core vertices other than v not adjacent to v, when g is
    # dense and has no more non-edges than edges (see "Dense graphs")
    apart: tuple[tuple[int, ...], ...] | None


def _core(g: Graph) -> _Core:
    adj = g.adjacency
    degree = tuple(len(a) for a in adj)
    leaf = [d == 1 and degree[a[0]] > 1 for d, a in zip(degree, adj)]
    classes = _twin_classes(g)
    kept = tuple(v for v in range(g.n) if not leaf[v])
    index = [-1] * g.n
    for i, v in enumerate(kept):
        index[v] = i
    parents: dict[int, list[int]] = {}
    for v in range(g.n):
        if leaf[v]:
            parents.setdefault(index[adj[v][0]], []).append(v)
    # a twin class shares one degree and one neighbour, so it is all kept or all leaves
    classes = [tuple(index[v] for v in cls) for cls in classes if not leaf[cls[0]]]
    adj = tuple(tuple(index[u] for u in adj[v] if not leaf[u]) for v in kept)
    degree = tuple(degree[v] for v in kept)
    mates: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None] * len(kept)
    for cls in classes:
        for i, v in enumerate(cls):
            mates[v] = cls[:i], cls[i + 1:]
    dense = _diameter_at_most_2(g)
    m = len(kept)
    apart = None
    if dense and m * (m - 1) <= 2 * sum(map(len, adj)):
        apart = tuple(tuple(sorted(set(range(m)).difference(a, (v,)))) for v, a in enumerate(adj))
    return _Core(g.n, kept, adj, degree, _search_order(degree), tuple(mates),
                 tuple((p, tuple(vs)) for p, vs in parents.items()), dense, apart)


def _decide(core: _Core, k: int, meter: BudgetMeter, ends: bool) -> tuple[int, ...] | None:
    """Find a graceful k-coloring, or prove none exists.  Returns per-vertex
    colors of g or None.  With ends, only colorings that use colors 1 and k
    are searched, which is exact only past a refuted k - 1 and when the core
    is all of g (see "Palette ends")."""
    adj, mates, apart = core.adjacency, core.mates, core.apart
    m = len(adj)
    full = (1 << (k + 1)) - 2  # colors 1..k
    both = 2 | 1 << k if ends else 0  # colors 1 and k
    # Masks of the colors on v's colored neighbors, which _search toggles:
    # x's color goes in when propagate accepts x = c and out when it backs
    # up to x.  No two colored neighbors of a vertex share a color on a live
    # branch, so a toggle sets and clears a color exactly.  nbr[p][v] holds
    # those of parity p, color c as bit c >> 1: only colors of c's parity
    # have an integer midpoint with c, and those midpoints are nbr[c & 1][v]
    # shifted left by (c + 1) >> 1.  With apart, named[v] also holds each
    # as bit 2c, plain[v] as bit c and mirror[v] as bit 2k - c; all five
    # then hold v's colored non-neighbors instead, and held holds the same
    # masks over every colored vertex, so held XOR v's mask gives its
    # colored neighbors (see "Dense graphs").
    nbr = [0] * m, [0] * m
    named, plain, mirror = [0] * m, [0] * m, [0] * m
    held = [0] * 5  # nbr[0], nbr[1], named, plain, mirror; all 0 without apart
    top = k + k  # mirror's bit for color c is top - c

    def toggle(x, c):
        same, own = nbr[c & 1], 1 << (c >> 1)
        for v in adj[x]:
            same[v] ^= own

    def toggle_apart(x, c):
        same, own, bit = nbr[c & 1], 1 << (c >> 1), 1 << c
        name, image = 1 << (c + c), 1 << (top - c)
        held[c & 1] ^= own
        held[2] ^= name
        held[3] ^= bit
        held[4] ^= image
        for v in apart[x]:
            same[v] ^= own
            named[v] ^= name
            plain[v] ^= bit
            mirror[v] ^= image

    def propagate(x, c, colors, domains, allowed):
        bit = 1 << c
        near = bit
        nd = list(domains)
        base, names = held[c & 1], held[2]
        common = names ^ named[x]  # x's colored neighbors by name; 0 without apart
        if apart is not None:  # rule 1's set: every cu, and every 2c - cu from top - cu
            near |= held[3] ^ plain[x] | (held[4] ^ mirror[x]) >> (top - c - c)
        else:
            for u in adj[x]:  # rule 2 here, and rule 1's set, in one pass
                cu = colors[u]
                if not cu:
                    continue
                near |= 1 << cu
                if cu < c + c:
                    near |= 1 << (c + c - cu)
                far = ~(bit | 1 << (cu + cu - c)) if cu + cu > c else ~bit
                for v in adj[u]:
                    if not colors[v]:
                        mask = nd[v] & far
                        if not mask:
                            return None
                        nd[v] = mask
        same, own, left = nbr[c & 1], 1 << (c >> 1), (c + 1) >> 1
        for v in adj[x]:  # rules 1 and 3, and with apart rule 2
            if colors[v]:
                continue
            nb = base ^ same[v]
            if nb & own:
                return None  # every color clashes between x and a neighbor of v
            mask = nd[v] & ~(near | nb << left | ((names ^ named[v]) & common) >> c)
            if not mask:
                return None
            nd[v] = mask
        if common:  # rule 2 at the vertices apart from x
            for v in apart[x]:
                if colors[v]:
                    continue
                shared = (names ^ named[v]) & common
                if shared:
                    mask = nd[v] & ~(bit | shared >> c)
                    if not mask:
                        return None
                    nd[v] = mask
        if mates[x] is not None:  # the twin order
            earlier, later = mates[x]
            for vs, keep in ((earlier, bit - 1), (later, -bit << 1)):
                for v in vs:
                    if not colors[v]:
                        mask = nd[v] & keep
                        if not mask:
                            return None
                        nd[v] = mask
        if both:  # the palette ends
            nd[x] = bit
            if both & ~reduce(or_, nd):
                return None
        return nd, full

    # the degree-reach cut: at a vertex of degree d in g, colors 1..k-d and d+1..k
    start = [full & ((1 << max(k - d, 0) + 1) - 2 | -2 << d) for d in core.degree]
    start[core.order[0]] &= (1 << ((k + 1) // 2 + 1)) - 2  # colors 1..ceil(k/2)
    found = _search(core.order, start, propagate, meter,
                    toggle if apart is None else toggle_apart)
    if found is None:
        return None
    colors = [0] * core.n
    for v, c in zip(core.kept, found):
        colors[v] = c
    for p, leaves in core.leaves:  # each leaf the least color free at p
        c = found[p]
        used = {0, *(abs(c - found[u]) for u in adj[p])}
        y = 0
        for v in leaves:
            y += 1
            while abs(y - c) in used:
                y += 1
            used.add(abs(y - c))
            colors[v] = y
    return tuple(colors)


def solve_graceful_decision(g: Graph, k: int,
                            budget: SolveBudget | None = None) -> SolveReport:
    """Decide whether g admits a graceful k-coloring.

    Returns a solved report with a witness, an infeasible report when the
    exhaustive search proves none exists, or budget-exhausted.
    """
    if k < 2:
        raise ValueError(f"palette size must be >= 2, got {k}")
    _require_connected(g)
    meter = BudgetMeter(budget)
    try:
        witness = _decide(_core(g), k, meter, ends=False)  # k - 1 may be feasible
    except BudgetExhausted:
        return SolveReport(EXHAUSTED, None, None, meter.nodes)
    if witness is None:
        return SolveReport(INFEASIBLE, None, None, meter.nodes)
    return SolveReport(SOLVED, k, GracefulColoring(witness, k), meter.nodes)


def _chi_g(g: Graph, meter: BudgetMeter) -> tuple[int, tuple[int, ...]]:
    """Least k with a graceful k-coloring, and its colors; raises
    BudgetExhausted when the meter runs out first.  One vertex has a
    graceful 1-coloring, which no palette of size >= 2 can report, so it
    raises ValueError."""
    if g.n < 2:
        raise ValueError("graph needs at least two vertices")
    _require_connected(g)
    core = _core(g)
    k = _lower_bound(g, core.dense)  # >= 2, as g has an edge
    # every k-1 below is refuted; a leaf may hold an end (see "Palette ends")
    ends = core.dense and not core.leaves
    while (witness := _decide(core, k, meter, ends)) is None:
        k += 1
    return k, witness


def chi_g(g: Graph, budget: SolveBudget | None = None) -> SolveReport:
    """Exact graceful chromatic number by iterative deepening on k.

    The budget spans the whole deepening run, on one meter made for this
    call.  Running out of budget at any level makes the whole computation
    budget-exhausted; no unproven minimum is ever reported.  Raises
    ValueError unless g is connected and has at least two vertices.
    """
    meter = BudgetMeter(budget)
    try:
        k, witness = _chi_g(g, meter)
    except BudgetExhausted:
        return SolveReport(EXHAUSTED, None, None, meter.nodes)
    return SolveReport(SOLVED, k, GracefulColoring(witness, k), meter.nodes)


# -- plain chromatic number ---------------------------------------------------


def _two_coloring(g: Graph, first: int) -> tuple[int, ...] | None:
    """The proper 2-coloring of connected g that gives first color 1, or
    None when a breadth-first pass from first meets an odd cycle."""
    colors = [0] * g.n
    colors[first] = 1
    queue = [first]
    for v in queue:  # the loop reaches what it appends
        other = 3 - colors[v]
        for u in g.adjacency[v]:
            if not colors[u]:
                colors[u] = other
                queue.append(u)
            elif colors[u] != other:
                return None
    return tuple(colors)


def _greedy_clique(g: Graph, order: list[int]) -> Iterator[int]:
    """Each vertex in order that is adjacent to every one yielded before it."""
    common = set(order)  # the vertices adjacent to every one yielded so far
    for v in order:
        if v in common:
            yield v
            common.intersection_update(g.adjacency[v])


def _greedy_coloring(g: Graph, order: list[int]) -> tuple[int, ...]:
    colors = [0] * g.n
    for v in order:
        taken = {colors[u] for u in g.adjacency[v] if colors[u]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return tuple(colors)


def _chi_decide(g: Graph, order: list[int], k: int,
                meter: BudgetMeter) -> tuple[int, ...] | None:
    """Proper k-coloring, or None; new colors enter in canonical order."""
    adj = g.adjacency
    full = (1 << (k + 1)) - 2  # colors 1..k

    def propagate(x, c, colors, domains, allowed):
        keep = ~(1 << c)
        nd = list(domains)
        for v in adj[x]:
            if not colors[v]:
                mask = nd[v] & keep
                if not mask:
                    return None
                nd[v] = mask
        return nd, (allowed | 2 << c) & full

    start = [full] * g.n
    start[order[0]] = 0b10  # color 1 first
    return _search(order, start, propagate, meter)


def _chromatic(g: Graph, meter: BudgetMeter) -> tuple[int, tuple[int, ...]]:
    """Chromatic number and a coloring attaining it; raises BudgetExhausted
    when the meter runs out first."""
    _require_connected(g)
    order = _search_order([len(a) for a in g.adjacency])
    two = _two_coloring(g, order[0])
    if two is not None:
        return max(two), two
    lower = max(3, len(list(_greedy_clique(g, order))))  # an odd cycle needs 3 colors
    greedy = _greedy_coloring(g, order)
    upper = max(greedy)
    for k in range(lower, upper):
        found = _chi_decide(g, order, k, meter)
        if found is not None:
            return k, found
    return upper, greedy


def chromatic_number(g: Graph, budget: SolveBudget | None = None) -> SolveReport:
    """Exact chromatic number: a 2-coloring pass when g is bipartite;
    otherwise the greedy clique lower bound (at least 3), the greedy
    coloring upper bound and backtracking decisions in between, all on one
    meter made for this call."""
    meter = BudgetMeter(budget)
    try:
        value, witness = _chromatic(g, meter)
    except BudgetExhausted:
        return SolveReport(EXHAUSTED, None, None, meter.nodes)
    return SolveReport(SOLVED, value, witness, meter.nodes)


def characterize(g: Graph, budget: SolveBudget | None = None) -> Characterization:
    """Both chromatic numbers plus the two characterization predicates.

    The two searches share one meter, so the budget bounds them together.
    Raises BudgetExhausted when it runs out before both are exact, and
    ValueError, before the first node, unless g is connected and has at
    least two vertices.
    """
    meter = BudgetMeter(budget)
    search = "chromatic number"
    try:
        chi, _ = _chromatic(g, meter)
        search = "graceful chromatic number"
        graceful, _ = _chi_g(g, meter)
    except BudgetExhausted:
        raise BudgetExhausted(f"{search} computation ran out of budget") from None
    return Characterization(chi=chi, chi_g=graceful, equal=chi == graceful,
                            chi_g_is_3=graceful == 3)
