"""Graceful colorings of complete graphs via 3-AP-free sets.

On a complete graph every pair of vertices is adjacent, so a coloring is
graceful exactly when the set of vertex colors is 3-AP-free: a repeated
incident difference |b-a| = |c-b| is precisely a 3-term progression among
the colors.  The graceful chromatic number of the complete graph on n
vertices is therefore the minimal possible largest element of an n-element
3-AP-free set of positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .ap3 import Ap3Engine, is_ap3_free
from .budget import BudgetExhausted, SolveBudget
from .checking import GracefulColoring, verify_graceful
from .graphs import complete


@dataclass(frozen=True)
class CompleteGracefulResult:
    """Exact graceful chromatic number of the complete graph on n vertices.

    color_set lists the witness colors ascending; coloring assigns them to
    vertices 0..n-1 in that order.  chi_g equals max(color_set).
    """

    n: int
    chi_g: int
    color_set: tuple[int, ...]
    coloring: GracefulColoring


def chi_g_complete(n: int, budget: SolveBudget | None = None,
                   engine: Ap3Engine | None = None) -> CompleteGracefulResult:
    """Graceful chromatic number of the complete graph on n vertices, with a
    witness coloring.  Raises BudgetExhausted if the span search cannot finish."""
    if n < 2:
        raise ValueError("need n >= 2")
    result = (engine or Ap3Engine()).min_span(n, budget)
    if not result.proven:
        raise BudgetExhausted(f"minimal-span search for n={n} ran out of budget")
    witness = result.witness
    return CompleteGracefulResult(
        n=n,
        chi_g=result.value,
        color_set=witness,
        coloring=GracefulColoring(witness, result.value),
    )


def check_complete_equivalence(colors: Iterable[int]) -> tuple[bool, bool]:
    """(graceful on the complete graph, 3-AP-free) for a set of n >= 2 colors."""
    values = tuple(sorted(set(colors)))
    if len(values) < 2:
        raise ValueError("need at least two distinct colors")
    coloring = GracefulColoring(values, max(values[-1], 2))
    return verify_graceful(complete(len(values)), coloring).valid, is_ap3_free(values)
