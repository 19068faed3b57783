"""Graceful colorings: the coloring value, its text format and the verifier.

A coloring of a graph is graceful for palette size l when it is a proper
vertex coloring into [1, l] and the induced edge coloring, which gives edge
uv the color |c(u) - c(v)|, is itself proper.  Two edges are adjacent exactly
when they share an endpoint, so properness of the induced coloring is
equivalent to: at every vertex, the absolute differences to its neighbors
are pairwise distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import FormatError, Graph, document_lines, read_ints

ADJACENT_EQUAL = "adjacent-equal"
DUPLICATE_INCIDENT_DIFFERENCE = "duplicate-incident-difference"
COLOR_OUT_OF_RANGE = "color-out-of-range"


@dataclass(frozen=True, slots=True)
class GracefulColoring:
    """Vertex colors (1-indexed values) with a palette size l >= 2.

    Entries may exceed the palette; the verifier reports that as a
    color-out-of-range violation rather than refusing to represent it.
    """

    colors: tuple[int, ...]
    palette: int

    def __post_init__(self):
        if self.palette < 2:
            raise ValueError(f"palette size must be >= 2, got {self.palette}")
        if len(self.colors) == 0:
            raise ValueError("coloring needs at least one vertex")
        if any(c < 1 for c in self.colors):
            raise ValueError("colors are positive integers")
        object.__setattr__(self, "colors", tuple(self.colors))


def parse_coloring(text: str, palette: int | None = None) -> GracefulColoring:
    """Parse the coloring text format: positive integers, separated by spaces
    or line ends.  The palette defaults to the largest color used (at least 2)."""
    colors: list[int] = []
    for lineno, line in document_lines(text):
        for color in read_ints(line.split(), lineno):
            if color < 1:
                raise FormatError(f"colors must be positive, got {color}", lineno)
            colors.append(color)
    if not colors:
        raise FormatError("empty coloring document")
    size = palette if palette is not None else max(max(colors), 2)
    return GracefulColoring(colors, size)


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str
    vertices: tuple[int, ...]

    def __str__(self) -> str:
        if self.kind == ADJACENT_EQUAL:
            u, v = self.vertices
            return f"adjacent-equal at edge ({u}, {v})"
        if self.kind == DUPLICATE_INCIDENT_DIFFERENCE:
            u, v1, v2 = self.vertices
            return f"duplicate-incident-difference at vertex {u} (neighbors {v1}, {v2})"
        v, = self.vertices
        return f"color-out-of-range at vertex {v}"


@dataclass(frozen=True, slots=True)
class VerificationReport:
    valid: bool
    violation: Violation | None = None


def verify_graceful(g: Graph, coloring: GracefulColoring) -> VerificationReport:
    """Check the three graceful conditions, reporting the first violation.

    Scan order is fixed so failures are reproducible: color range by vertex,
    then equal endpoints by edge, then incident-difference clashes by vertex
    and ascending neighbor pair.  An edge with equal endpoint colors is
    always reported as adjacent-equal, never as a zero edge color.  A
    coloring whose length differs from the vertex count raises
    FormatError: the two documents disagree.
    """
    colors = coloring.colors
    if len(colors) != g.n:
        raise FormatError(
            f"coloring has {len(colors)} entries for a graph on {g.n} vertices")
    for v in range(g.n):
        if not (1 <= colors[v] <= coloring.palette):
            return VerificationReport(False, Violation(COLOR_OUT_OF_RANGE, (v,)))
    for u, v in g.edges:
        if colors[u] == colors[v]:
            return VerificationReport(False, Violation(ADJACENT_EQUAL, (u, v)))
    for u in range(g.n):
        neighbors = g.adjacency[u]
        for i in range(len(neighbors)):
            di = abs(colors[u] - colors[neighbors[i]])
            for j in range(i + 1, len(neighbors)):
                if di == abs(colors[u] - colors[neighbors[j]]):
                    violation = Violation(
                        DUPLICATE_INCIDENT_DIFFERENCE, (u, neighbors[i], neighbors[j])
                    )
                    return VerificationReport(False, violation)
    return VerificationReport(True)
