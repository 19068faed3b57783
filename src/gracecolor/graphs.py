"""Simple undirected graphs: construction, named families, edge-list I/O,
and the reader, line grammar, integer rule and error type that every input
file shares.  One edge rule serves Graph.from_edges and parse_graph, and
each checks an edge once.

Vertices are the integers 0..n-1.  Graph values are immutable after
construction and safe to share between searches.
"""

from __future__ import annotations

import heapq
import random
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class FormatError(ValueError):
    """Malformed input text: a graph, a coloring or a cache file.  A 1-based
    line number, when given, prefixes the message."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_text(path: str) -> str:
    """The UTF-8 text of a file, its line ends as the file has them, since
    document_lines splits at each of LF, CRLF and CR.  Bytes that do not
    decode raise FormatError naming the file, which the decoder's own
    message does not."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from None


def document_lines(text: str) -> Iterator[tuple[int, str]]:
    """The line grammar of every input document: (line number, stripped line)
    for each line that is neither blank nor a '#' comment.  Lines end only at
    LF, CRLF and CR, as in a file read in text mode; str.splitlines would also
    end them at \\f, \\v, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_ints(tokens: list[str], line: int | None = None) -> list[int]:
    """The integers of the tokens of one line or field of a document,
    numbered `line`, or of one command-line argument, which has no line.
    Each token must be ASCII digits after an optional '-'; int() alone would
    also take '+', '_', surrounding whitespace and non-ASCII digits.
    Unsigned tokens are tested all at once, since a test per token costs a
    few times what int() does, and a cache file is read on every cached CLI
    call.  A token of more digits than the interpreter converts
    (sys.get_int_max_str_digits, 4300 by default) is refused too, by a
    message that does not echo it."""
    joined = "".join(tokens)
    if "" in tokens or not (joined.isascii() and joined.isdigit()):
        for tok in tokens:
            if not (tok.isascii() and tok[tok[:1] == "-":].isdigit()):
                raise FormatError(f"expected an integer, got {tok!r}", line)
    try:
        return list(map(int, tokens))
    except ValueError:  # the digit limit: every token is digits by now
        raise FormatError(f"integer of more than {sys.get_int_max_str_digits()} digits",
                          line) from None


def _edge(n: int, u: int, v: int) -> tuple[int, int]:
    """The edge uv of a graph on n vertices as (min, max); raises ValueError
    for a self-loop or an endpoint outside 0..n-1."""
    if u == v:
        raise ValueError(f"self-loop on vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    edges holds normalized pairs (u, v) with u < v, sorted; adjacency is the
    per-vertex sorted neighbor tuple derived from edges.  Build instances via
    Graph.from_edges, which validates the invariants.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        g = cls._build(n, [_edge(n, u, v) for u, v in edges])
        for prev, cur in zip(g.edges, g.edges[1:]):
            if prev == cur:
                raise ValueError(f"duplicate edge {cur}")
        return g

    @classmethod
    def _build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on n >= 1 vertices with these edges, which the caller has
        checked: each is (min, max) as _edge returns it, and none repeats.
        Sorts them."""
        normalized = sorted(edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        # each list is ascending already: every edge (u, x), u < x, precedes
        # every edge (x, v), x < v, and each group comes in ascending order
        return cls(n, tuple(normalized), tuple(map(tuple, adj)))


def max_degree(g: Graph) -> int:
    """Largest vertex degree of g."""
    return max(len(a) for a in g.adjacency)


def is_connected(g: Graph) -> bool:
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == g.n


# ---------------------------------------------------------------------------
# Edge-list text format.
#
# First line "n m"; then m lines "u v" with u < v, sorted, LF-terminated.
# serialize_graph emits this canonical form.  parse_graph reads document_lines
# and read_ints, accepts unordered endpoints, and rejects what _edge rejects,
# and duplicates, naming the line.
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document; raises FormatError with line numbers."""
    header: tuple[int, int, int] | None = None  # (n, m, line)
    edges: set[tuple[int, int]] = set()  # checked here; Graph._build sorts them
    for lineno, line in document_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(f"expected two integers, got {line!r}", lineno)
        a, b = read_ints(tokens, lineno)
        if header is None:
            if a < 1 or b < 0:
                raise FormatError(f"invalid header n={a} m={b}", lineno)
            header = (a, b, lineno)
            continue
        try:
            e = _edge(header[0], a, b)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
        if e in edges:
            raise FormatError(f"duplicate edge {e}", lineno)
        edges.add(e)
    if header is None:
        raise FormatError("empty document: missing 'n m' header")
    if len(edges) != header[1]:
        raise FormatError(f"header declares m={header[1]} edges, found {len(edges)}", header[2])
    return Graph._build(header[0], edges)


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list document: sorted edges, single spaces, LF endings."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Named families.  Canonical vertex numbering per family:
#   path/cycle: vertices in path/cycle order;
#   wheel: n total vertices, hub = 0, rim 1..n-1 forms a cycle;
#   complete_bipartite(p, q): left side 0..p-1, right side p..p+q-1;
#   star: center 0;
#   caterpillar: spine 0..s-1 in path order, then leaves in spine order;
#   random_tree: decoded from a seeded random Pruefer sequence.
# ---------------------------------------------------------------------------


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def wheel(n: int) -> Graph:
    """Wheel on n total vertices: hub 0 joined to every vertex of the (n-1)-cycle."""
    if n < 4:
        raise ValueError("wheel needs n >= 4 (hub plus a cycle of length >= 3)")
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    spokes = [(0, i) for i in range(1, n)]
    return Graph.from_edges(n, spokes + rim)


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ValueError("complete bipartite graph needs p, q >= 1")
    return Graph.from_edges(p + q, [(u, p + v) for u in range(p) for v in range(q)])


def star(n: int) -> Graph:
    """Star on n vertices: center 0 with n-1 leaves."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def caterpillar(spine: int, legs: Sequence[int]) -> Graph:
    """Spine path of `spine` vertices with legs[i] leaves hanging off spine vertex i."""
    if spine < 1:
        raise ValueError("caterpillar needs spine >= 1")
    if len(legs) != spine:
        raise ValueError(f"need one leg count per spine vertex, got {len(legs)} for spine {spine}")
    if any(x < 0 for x in legs):
        raise ValueError("leg counts must be nonnegative")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i, count in enumerate(legs):
        for _ in range(count):
            edges.append((i, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices (Pruefer decode, seeded)."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph.from_edges(1, [])
    rng = random.Random(seed)
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def _caterpillar(*params: int) -> Graph:
    if len(params) < 1:
        raise ValueError("caterpillar needs a spine length")
    return caterpillar(params[0], list(params[1:]))


# tag -> (builder, parameter count); None means the builder checks its own.
_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "wheel": (wheel, 1),
    "star": (star, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "caterpillar": (_caterpillar, None),
    "random_tree": (random_tree, 2),
}

FAMILY_TAGS = tuple(_FAMILIES)


@dataclass(frozen=True)
class GraphFamily:
    """A named family instance: tag plus integer parameters.

    Tags and parameter shapes:
      path n | cycle n | complete n | wheel n | star n
      complete_bipartite p q
      caterpillar spine leg0 leg1 ... (one leg count per spine vertex)
      random_tree n seed
    """

    tag: str
    params: tuple[int, ...]

    def build(self) -> Graph:
        if self.tag not in _FAMILIES:
            raise ValueError(f"unknown family tag {self.tag!r}")
        builder, arity = _FAMILIES[self.tag]
        if arity is not None and len(self.params) != arity:
            raise ValueError(f"{self.tag} takes {arity} parameter(s), got {len(self.params)}")
        return builder(*self.params)
