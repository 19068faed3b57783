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

    Node counts are checked on every search node; the wall clock at a
    kernel's first node and then every TIME_CHECK_INTERVAL nodes.  A limit
    of 0 seconds stops every search at its first node.
    """

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        # a kernel's integer count never equals a fractional or NaN cap; and
        # type() rather than isinstance() so that True is not a cap of 1
        if self.max_nodes is not None and not (
                type(self.max_nodes) is int and self.max_nodes >= 1):
            raise ValueError("max_nodes must be an integer >= 1")
        # the same rule for seconds, an int or a float; and written so that
        # NaN, which compares False with everything, fails too
        if self.max_seconds is not None and not (
                type(self.max_seconds) in (int, float) and self.max_seconds >= 0):
            raise ValueError("max_seconds must be a number >= 0")


class BudgetMeter:
    """Mutable node counter plus deadline for one public search call.

    A meter may span several kernel runs of that call (the levels of a
    deepening run or of a ladder climb, or both searches of a
    characterization), which then share one budget.  A kernel counts its
    nodes in a local, starts with stop = 0, and before counting each node
    compares the count with stop once:

        if nodes == stop:
            stop = meter.next_stop(nodes)
        nodes += 1

    It calls spend() with its total when it returns or raises.
    """

    __slots__ = ("nodes", "deadline", "_cap")

    def __init__(self, budget: SolveBudget | None):
        budget = budget or SolveBudget()
        self.nodes = 0
        self.deadline = (None if budget.max_seconds is None
                         else time.monotonic() + budget.max_seconds)
        self._cap = _UNCAPPED if budget.max_nodes is None else budget.max_nodes

    def next_stop(self, counted: int) -> int:
        """Check a kernel that has counted `counted` nodes not yet spent.

        Raises BudgetExhausted when one more node would pass the node cap,
        or when the deadline has passed.  Otherwise returns the count at
        which the kernel calls again: the cap or the next time check,
        whichever comes first.
        """
        left = self._cap - self.nodes
        if counted >= left:
            raise BudgetExhausted("node limit reached")
        if self.deadline is None:
            return left
        if time.monotonic() >= self.deadline:
            raise BudgetExhausted("wall-clock limit reached")
        return min(left, counted + TIME_CHECK_INTERVAL)

    def spend(self, nodes: int) -> None:
        self.nodes += nodes
