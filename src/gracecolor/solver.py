"""Exact graceful chromatic numbers and chromatic numbers for small graphs.

The graceful chromatic number is computed by iterative deepening: a decision
search proves or refutes the existence of a graceful k-coloring for k =
lower_bound, lower_bound+1, ... and the first success is exact because every
smaller k was refuted exhaustively.

The decision search keeps, for every uncolored vertex, the set of colors not
yet forbidden.  A color c is forbidden at v when a colored neighbor u has
color c, or |c - color(u)| collides with an incident edge color at u, or two
colored neighbors of v would both induce the same edge color |c - color(u)|.
It colors next the uncolored vertex with the fewest colors left (fail-first,
as in Brelaz's DSATUR), ties going to the higher degree and then the lower
index, so a vertex whose neighborhood is mostly colored is settled before
far-apart hubs are.  The first vertex is the highest-degree one and only
tries colors up to ceil(k/2): reflecting every color x to k+1-x preserves
gracefulness, so half the palette suffices there.

Every search runs sequentially in the calling process.  All levels of a
deepening run, and both searches of characterize(), draw on one BudgetMeter,
so a node limit bounds the work actually done and a reported node count is
that work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import TIME_CHECK_INTERVAL, BudgetExhausted, BudgetMeter, SolveBudget
from .checking import GracefulColoring
from .graphs import Graph, diameter, is_connected, max_degree, regularity

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
    bound = max_degree(g) + 1
    r = regularity(g)
    if r is not None and r >= 2:
        bound = max(bound, r + 2)
    if diameter(g) <= 2:
        bound = max(bound, g.n)
    return bound


def _search_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-len(g.adjacency[v]), v))


def _decide(g: Graph, k: int, meter: BudgetMeter) -> tuple[int, ...] | None:
    """Find a graceful k-coloring, or prove none exists.  Returns per-vertex
    colors or None."""
    n = g.n
    adj = g.adjacency
    order = _search_order(g)
    full = (1 << (k + 1)) - 2  # colors 1..k
    node_cap, timed = meter.limits()
    counters = [0]
    colors = [0] * n
    initial = [full] * n
    initial[order[0]] = (1 << ((k + 1) // 2 + 1)) - 2  # colors 1..ceil(k/2)

    def dfs(x: int, domains: list[int]) -> bool:
        dom = domains[x]
        while dom:
            bit = dom & -dom
            dom ^= bit
            if counters[0] >= node_cap:
                raise BudgetExhausted("node limit reached")
            counters[0] += 1
            if timed and counters[0] % TIME_CHECK_INTERVAL == 0:
                meter.check_time()
            c = bit.bit_length() - 1
            colors[x] = c
            nd = list(domains)
            alive = True
            for v in adj[x]:
                if colors[v]:
                    continue
                mask = nd[v] & ~bit
                for w in adj[x]:
                    cw = colors[w]
                    if cw and w != v:
                        d = c - cw if c > cw else cw - c
                        if c - d >= 1:
                            mask &= ~(1 << (c - d))
                        if c + d <= k:
                            mask &= ~(1 << (c + d))
                for u2 in adj[v]:
                    c2 = colors[u2]
                    if c2 and u2 != x:
                        if c2 == c:
                            mask = 0  # every color clashes between x and u2 at v
                        elif (c + c2) % 2 == 0:
                            mask &= ~(1 << ((c + c2) // 2))
                nd[v] = mask
                if not mask:
                    alive = False
                    break
            if alive:
                for u in adj[x]:
                    cu = colors[u]
                    if not cu:
                        continue
                    d = cu - c if cu > c else c - cu
                    for v in adj[u]:
                        if colors[v] or v == x:
                            continue
                        mask = nd[v]
                        if cu - d >= 1:
                            mask &= ~(1 << (cu - d))
                        if cu + d <= k:
                            mask &= ~(1 << (cu + d))
                        nd[v] = mask
                        if not mask:
                            alive = False
                            break
                    if not alive:
                        break
            if alive:
                # fail-first: fewest live colors, ties to the earliest in order;
                # an empty domain was pruned above, so one color is the least.
                # No uncolored vertex is left when nxt stays -1.
                nxt, fewest = -1, k + 1
                for v in order:
                    if not colors[v]:
                        live = nd[v].bit_count()
                        if live < fewest:
                            nxt, fewest = v, live
                            if live == 1:
                                break
                if nxt < 0 or dfs(nxt, nd):
                    return True
        colors[x] = 0
        return False

    try:
        if dfs(order[0], initial):
            return tuple(colors)
        return None
    finally:
        meter.spend(counters[0])


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
        witness = _decide(g, k, meter)
    except BudgetExhausted:
        return SolveReport(EXHAUSTED, None, None, meter.nodes)
    if witness is None:
        return SolveReport(INFEASIBLE, None, None, meter.nodes)
    return SolveReport(SOLVED, k, GracefulColoring(witness, k), meter.nodes)


def chi_g(g: Graph, budget: SolveBudget | None = None,
          meter: BudgetMeter | None = None) -> SolveReport:
    """Exact graceful chromatic number by iterative deepening on k.

    The budget spans the whole deepening run; a given meter (which overrides
    budget) may be shared with other searches, and the report counts only
    the nodes of this run.  Running out of budget at any level makes the
    whole computation budget-exhausted; no unproven minimum is ever reported.
    """
    _require_connected(g)
    meter = meter or BudgetMeter(budget)
    before = meter.nodes
    k = max(2, graceful_lower_bound(g))
    try:
        while (witness := _decide(g, k, meter)) is None:
            k += 1
    except BudgetExhausted:
        return SolveReport(EXHAUSTED, None, None, meter.nodes - before)
    return SolveReport(SOLVED, k, GracefulColoring(witness, k), meter.nodes - before)


# -- plain chromatic number ---------------------------------------------------


def _greedy_clique(g: Graph) -> list[int]:
    order = _search_order(g)
    clique: list[int] = []
    for v in order:
        if all(u in g.adjacency[v] for u in clique):
            clique.append(v)
    return clique


def _greedy_coloring(g: Graph) -> tuple[int, ...]:
    colors = [0] * g.n
    for v in _search_order(g):
        taken = {colors[u] for u in g.adjacency[v] if colors[u]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return tuple(colors)


def _chi_decide(g: Graph, k: int, meter: BudgetMeter) -> tuple[int, ...] | None:
    """Proper k-coloring by backtracking, or None; new colors introduced in
    canonical order to break color-permutation symmetry."""
    n = g.n
    adj = g.adjacency
    order = _search_order(g)
    node_cap, timed = meter.limits()
    counters = [0]
    colors = [0] * n

    def dfs(i: int, used: int) -> bool:
        x = order[i]
        forbid = 0
        for u in adj[x]:
            forbid |= 1 << colors[u]
        for c in range(1, min(k, used + 1) + 1):
            if forbid >> c & 1:
                continue
            if counters[0] >= node_cap:
                raise BudgetExhausted("node limit reached")
            counters[0] += 1
            if timed and counters[0] % TIME_CHECK_INTERVAL == 0:
                meter.check_time()
            colors[x] = c
            if i + 1 == n or dfs(i + 1, max(used, c)):
                return True
        colors[x] = 0
        return False

    try:
        if dfs(0, 0):
            return tuple(colors)
        return None
    finally:
        meter.spend(counters[0])


def chromatic_number(g: Graph, budget: SolveBudget | None = None,
                     meter: BudgetMeter | None = None) -> SolveReport:
    """Exact chromatic number: greedy clique lower bound, greedy coloring
    upper bound, backtracking decisions in between.  budget and meter work
    as in chi_g."""
    _require_connected(g)
    meter = meter or BudgetMeter(budget)
    before = meter.nodes
    lower = len(_greedy_clique(g))
    greedy = _greedy_coloring(g)
    upper = max(greedy)
    value, witness = upper, greedy
    for k in range(lower, upper):
        try:
            found = _chi_decide(g, k, meter)
        except BudgetExhausted:
            return SolveReport(EXHAUSTED, None, None, meter.nodes - before)
        if found is not None:
            value, witness = k, found
            break
    return SolveReport(SOLVED, value, witness, meter.nodes - before)


def characterize(g: Graph, budget: SolveBudget | None = None) -> Characterization:
    """Both chromatic numbers plus the two characterization predicates.

    The two searches share the budget.  Raises BudgetExhausted when it runs
    out before both are exact.
    """
    _require_connected(g)
    meter = BudgetMeter(budget)
    chi_report = chromatic_number(g, meter=meter)
    if chi_report.status != SOLVED:
        raise BudgetExhausted("chromatic number computation ran out of budget")
    graceful_report = chi_g(g, meter=meter)
    if graceful_report.status != SOLVED:
        raise BudgetExhausted("graceful chromatic number computation ran out of budget")
    return Characterization(
        chi=chi_report.value,
        chi_g=graceful_report.value,
        equal=chi_report.value == graceful_report.value,
        chi_g_is_3=graceful_report.value == 3,
    )
