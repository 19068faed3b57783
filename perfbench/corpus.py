"""The graph corpus of the `graceful` workload, with pinned answers.

The corpus is fixed data: structured families plus random trees and random
connected graphs drawn from fixed generator seeds.  Every graph carries its
pinned graceful chromatic number and chromatic number, so any value the
solver proves can be checked against an answer known in advance.

The benchmark's --seed only shuffles the task order.  New random graphs
would have unknown answers, and relabeling vertices moves the solver's node
counts by about a fifth from seed to seed (its vertex order breaks ties by
index), which would drown the differences the benchmark exists to measure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from gracecolor.graphs import (
    Graph,
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    path,
    random_tree,
    star,
    wheel,
)


@dataclass(frozen=True)
class Entry:
    name: str
    graph: Graph
    chi_g: int  # pinned graceful chromatic number
    chi: int  # pinned chromatic number


def grid(rows: int, cols: int) -> Graph:
    def vid(r, c):
        return r * cols + c
    edges = [(vid(r, c), vid(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(vid(r, c), vid(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def hypercube(d: int) -> Graph:
    n = 1 << d
    return Graph.from_edges(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d)
                                if v < v ^ (1 << b)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def random_connected(n: int, density: float, seed: int) -> Graph:
    """Random spanning tree plus each remaining pair with probability density."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < density:
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


CATERPILLARS = ((3, (1, 2, 1)), (4, (2, 0, 2, 1)), (5, (1, 1, 1, 1, 1)),
                (6, (2, 1, 0, 1, 2, 3)))
BIPARTITE = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5))
# Random trees: one per order n = 15..40 (generator seed n), plus two trees
# known to exhaust the node cap at the time the benchmark was written.
TREES = tuple((n, n) for n in range(15, 41)) + ((40, 2), (30, 3))
# Random connected graphs: orders 8..12 at a sparse and a dense setting.
RANDOM_GRAPHS = tuple((n, density, 100 * n + i)
                      for n in range(8, 13) for density in (0.2, 0.5) for i in range(2))


def structured() -> list[tuple[str, Graph]]:
    graphs = [(f"K{n}", complete(n)) for n in range(5, 9)]
    graphs += [(f"W{n}", wheel(n)) for n in range(5, 15)]
    graphs += [(f"C{n}", cycle(n)) for n in range(4, 14)]
    graphs += [(f"P{n}", path(n)) for n in range(4, 14)]
    graphs += [(f"S{n}", star(n)) for n in range(4, 12)]
    graphs += [(f"K{p},{q}", complete_bipartite(p, q)) for p, q in BIPARTITE]
    graphs += [(f"cat{s}-{''.join(map(str, legs))}", caterpillar(s, legs))
               for s, legs in CATERPILLARS]
    graphs += [("grid5x5", grid(5, 5)), ("Q4", hypercube(4)), ("petersen", petersen())]
    graphs += [(f"tree{n}s{s}", random_tree(n, s)) for n, s in TREES]
    graphs += [(f"gnp{n}p{int(d * 10)}s{s}", random_connected(n, d, s))
               for n, d, s in RANDOM_GRAPHS]
    return graphs


# name -> (chi_g, chi).  The self-test cross-checks these: K_n against the
# reference table, graphs on at most 7 vertices by brute force, and trees
# (including those the solver cannot finish under the node cap) by an
# independent dynamic program over the tree.
PINS: dict[str, tuple[int, int]] = {
    "K5": (9, 5), "K6": (11, 6), "K7": (13, 7), "K8": (14, 8),
    "W5": (6, 3), "W6": (6, 4), "W7": (7, 3), "W8": (8, 4), "W9": (9, 3),
    "W10": (10, 4), "W11": (11, 3), "W12": (12, 4), "W13": (13, 3), "W14": (14, 4),
    "C4": (4, 2), "C5": (5, 3), "C6": (4, 2), "C7": (4, 3), "C8": (4, 2), "C9": (4, 3),
    "C10": (4, 2), "C11": (4, 3), "C12": (4, 2), "C13": (4, 3), "P4": (3, 2),
    "P5": (4, 2), "P6": (4, 2), "P7": (4, 2), "P8": (4, 2), "P9": (4, 2), "P10": (4, 2),
    "P11": (4, 2), "P12": (4, 2), "P13": (4, 2), "S4": (4, 2), "S5": (5, 2),
    "S6": (6, 2), "S7": (7, 2), "S8": (8, 2), "S9": (9, 2), "S10": (10, 2),
    "S11": (11, 2), "K2,2": (4, 2), "K2,3": (5, 2), "K2,4": (6, 2), "K3,3": (6, 2),
    "K3,4": (7, 2), "K3,5": (8, 2), "K4,4": (8, 2), "K4,5": (9, 2), "cat3-121": (5, 2),
    "cat4-2021": (5, 2), "cat5-11111": (5, 2), "cat6-210123": (5, 2), "grid5x5": (7, 2),
    "Q4": (8, 2), "petersen": (10, 3), "tree15s15": (6, 2), "tree16s16": (5, 2),
    "tree17s17": (5, 2), "tree18s18": (5, 2), "tree19s19": (5, 2), "tree20s20": (5, 2),
    "tree21s21": (5, 2), "tree22s22": (4, 2), "tree23s23": (5, 2), "tree24s24": (5, 2),
    "tree25s25": (5, 2), "tree26s26": (5, 2), "tree27s27": (6, 2), "tree28s28": (6, 2),
    "tree29s29": (5, 2), "tree30s30": (5, 2), "tree31s31": (7, 2), "tree32s32": (5, 2),
    "tree33s33": (6, 2), "tree34s34": (5, 2), "tree35s35": (6, 2), "tree36s36": (5, 2),
    "tree37s37": (6, 2), "tree38s38": (5, 2), "tree39s39": (6, 2), "tree40s40": (6, 2),
    "tree40s2": (5, 2), "tree30s3": (6, 2), "gnp8p2s800": (7, 4), "gnp8p2s801": (6, 3),
    "gnp8p5s800": (9, 5), "gnp8p5s801": (6, 3), "gnp9p2s900": (7, 3),
    "gnp9p2s901": (6, 3), "gnp9p5s900": (10, 5), "gnp9p5s901": (9, 4),
    "gnp10p2s1000": (6, 3), "gnp10p2s1001": (8, 3), "gnp10p5s1000": (10, 4),
    "gnp10p5s1001": (10, 5), "gnp11p2s1100": (8, 3), "gnp11p2s1101": (8, 4),
    "gnp11p5s1100": (10, 4), "gnp11p5s1101": (12, 5), "gnp12p2s1200": (8, 3),
    "gnp12p2s1201": (7, 3), "gnp12p5s1200": (12, 4), "gnp12p5s1201": (12, 5),
}


def corpus(seed: int) -> list[Entry]:
    """Every corpus graph with its pins, in seeded order."""
    entries = [Entry(name, g, *PINS[name]) for name, g in structured()]
    random.Random(seed).shuffle(entries)
    return entries
