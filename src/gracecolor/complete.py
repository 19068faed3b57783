"""Graceful colorings of complete graphs via 3-AP-free sets.

On a complete graph every pair of vertices is adjacent, so a coloring is
graceful exactly when the set of vertex colors is 3-AP-free: a repeated
incident difference |b-a| = |c-b| is precisely a 3-term progression among
the colors.  The graceful chromatic number of the complete graph on n
vertices is therefore the minimal possible largest element of an n-element
3-AP-free set of positive integers.
"""

from __future__ import annotations

from .ap3 import Ap3Engine
from .budget import BudgetExhausted, SolveBudget
from .checking import GracefulColoring


def chi_g_complete(n: int, budget: SolveBudget | None = None,
                   engine: Ap3Engine | None = None) -> GracefulColoring:
    """A graceful coloring of the complete graph on n vertices with the least
    palette: its palette is the graceful chromatic number, and its colors,
    assigned to vertices 0..n-1, are an ascending 3-AP-free set.  Raises
    BudgetExhausted if the span search cannot finish."""
    if n < 2:
        raise ValueError("need n >= 2")
    result = (engine or Ap3Engine()).min_span(n, budget)
    if not result.proven:
        raise BudgetExhausted(f"minimal-span search for n={n} ran out of budget")
    return GracefulColoring(result.witness, result.value)
