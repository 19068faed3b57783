"""Node and wall-clock limits shared by the exact search engines."""

from __future__ import annotations

import time
from dataclasses import dataclass

TIME_CHECK_INTERVAL = 4096  # nodes between wall-clock checks
_UNCAPPED = 1 << 62  # node cap of an unlimited budget; no search gets near it


class BudgetExhausted(Exception):
    """Raised inside a search when the node or time limit is hit."""


@dataclass(frozen=True)
class SolveBudget:
    """Limits for one exact computation; None means unlimited.

    Node counts are checked on every search node; the wall clock is checked
    every TIME_CHECK_INTERVAL nodes.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")


UNLIMITED = SolveBudget()


class BudgetMeter:
    """Mutable node counter plus deadline for one logical solve.

    A single meter may span several searches (iterative deepening, or both
    searches of a characterization, share one budget); kernels take their
    limits from limits() once per run, count nodes locally in their hot loops,
    and call spend() with the total when they return or raise.
    """

    __slots__ = ("budget", "nodes", "deadline")

    def __init__(self, budget: SolveBudget | None):
        self.budget = budget or UNLIMITED
        self.nodes = 0
        self.deadline = (
            time.monotonic() + self.budget.max_seconds
            if self.budget.max_seconds is not None
            else None
        )

    def limits(self) -> tuple[int, bool]:
        """(node cap, timed) for one kernel run.

        The kernel raises BudgetExhausted once it has counted node cap nodes,
        and calls check_time() every TIME_CHECK_INTERVAL nodes when timed.
        """
        max_nodes = self.budget.max_nodes
        cap = _UNCAPPED if max_nodes is None else max_nodes - self.nodes
        return cap, self.deadline is not None

    def spend(self, nodes: int) -> None:
        self.nodes += nodes

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExhausted("wall-clock limit reached")
