"""Exact search over 3-AP-free integer sets.

A set is 3-AP-free when no three distinct members a < b < c satisfy
a + c = 2b.  This module computes, with witnesses:

  L(m)  - the size of the largest 3-AP-free subset of [1..m];
  a(k)  - the least m with L(m) >= k, i.e. the minimal span of a k-element
          3-AP-free set of positive integers.

L is computed as an incremental ladder: L(m) is L(m-1) or L(m-1)+1, so each
level is a single decision search seeded with the previous level's answer,
and every proven L value sharpens the pruning bound for later levels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .budget import TIME_CHECK_INTERVAL, BudgetExhausted, BudgetMeter, SolveBudget


def is_ap3_free(elements: Sequence[int]) -> bool:
    """True iff no pair a < c in the set has its midpoint in the set.

    Input must be strictly increasing.  Pairs with odd a+c have no integer
    midpoint and are skipped.
    """
    xs = list(elements)
    for prev, cur in zip(xs, xs[1:]):
        if prev >= cur:
            raise ValueError("input must be strictly increasing without duplicates")
    members = set(xs)
    for i, a in enumerate(xs):
        for c in xs[i + 1:]:
            if (a + c) % 2 == 0 and (a + c) // 2 in members:
                return False
    return True


@dataclass
class SearchStats:
    nodes: int = 0
    prunes_by_bound: int = 0


@dataclass(frozen=True, slots=True)
class Ap3Result:
    """Outcome of one exact computation.

    For longest-subset queries value is L(m); for minimal-span queries value
    is a(k).  When proven is False the budget ran out: for longest queries
    value/witness are the best proven lower bound, for span queries value is
    the largest span proven insufficient and the witness is empty.  Unproven
    results are never written to any cache.
    """

    value: int
    witness: tuple[int, ...]
    stats: SearchStats
    proven: bool


class Ap3Engine:
    """Incremental L(m) ladder with witnesses, reusable across queries.

    All stored levels are exact.  An engine may be seeded from a persistent
    cache of previously proven values (see gracecolor.tables); seeded entries
    are validated for witness correctness and unit steps, then trusted.
    """

    def __init__(self):
        self._lengths: list[int] = [0]
        self._witnesses: list[tuple[int, ...]] = [()]

    @property
    def frontier(self) -> int:
        """Largest m with a proven L(m)."""
        return len(self._lengths) - 1

    def length(self, m: int) -> int | None:
        """Proven L(m), or None if the ladder has not reached m."""
        if 0 <= m <= self.frontier:
            return self._lengths[m]
        return None

    def proven_levels(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """Yield (m, L(m), witness) for every proven level, m ascending."""
        for m in range(1, len(self._lengths)):
            yield m, self._lengths[m], self._witnesses[m]

    def seed(self, entries: Mapping[int, tuple[int, tuple[int, ...]]]) -> int:
        """Adopt proven (m -> (L, witness)) entries contiguous with the frontier.

        Entries beyond the first gap are ignored (bounds need every smaller
        level).  Inconsistent entries raise ValueError.
        """
        applied = 0
        m = self.frontier + 1
        while m in entries:
            value, witness = entries[m]
            prev = self._lengths[m - 1]
            if value not in (prev, prev + 1):
                raise ValueError(f"L({m})={value} inconsistent with L({m-1})={prev}")
            witness = tuple(witness)
            if len(witness) != value or not witness or witness[-1] > m or witness[0] < 1:
                raise ValueError(f"witness for L({m})={value} does not fit [1..{m}]")
            if not is_ap3_free(witness):
                raise ValueError(f"witness for L({m}) contains a 3-term progression")
            self._lengths.append(value)
            self._witnesses.append(witness)
            applied += 1
            m += 1
        return applied

    # -- queries ------------------------------------------------------------

    def longest(self, m: int, budget: SolveBudget | None = None,
                meter: BudgetMeter | None = None) -> Ap3Result:
        """L(m) with an attaining witness; exact unless the budget runs out."""
        if m < 1:
            raise ValueError("m must be >= 1")
        stats, proven = self._climb(lambda: self.frontier < m, budget, meter)
        level = min(m, self.frontier)
        return Ap3Result(self._lengths[level], self._witnesses[level], stats, proven)

    def min_span(self, k: int, budget: SolveBudget | None = None,
                 meter: BudgetMeter | None = None) -> Ap3Result:
        """Least m with L(m) >= k, plus a k-element witness spanning exactly [1..m]."""
        if k < 1:
            raise ValueError("k must be >= 1")
        stats, proven = self._climb(lambda: self._lengths[-1] < k, budget, meter)
        if not proven:
            return Ap3Result(self.frontier, (), stats, False)
        m = bisect_left(self._lengths, k)
        return Ap3Result(m, self._witnesses[m], stats, True)

    def _climb(self, unfinished: Callable[[], bool], budget: SolveBudget | None,
               meter: BudgetMeter | None) -> tuple[SearchStats, bool]:
        """Prove the next level while unfinished(): L(m) = L(m-1) + 1 if
        attainable, else L(m-1).  Returns the stats and whether the climb
        finished before the budget ran out."""
        meter = meter or BudgetMeter(budget)
        stats = SearchStats()
        try:
            while unfinished():
                m = len(self._lengths)
                target = self._lengths[m - 1] + 1
                found = _find_of_size(m, target, self._lengths, meter, stats)
                if found is None:
                    target, found = target - 1, self._witnesses[m - 1]
                self._lengths.append(target)
                self._witnesses.append(found)
        except BudgetExhausted:
            return stats, False
        return stats, True


def _find_of_size(m: int, target: int, lengths: Sequence[int],
                  meter: BudgetMeter, stats: SearchStats) -> tuple[int, ...] | None:
    """Find the lexicographically first 3-AP-free subset of [1..m] with
    exactly `target` = L(m-1) + 1 elements, or prove that none exists.

    Endpoints.  Every such set S contains both 1 and m: without 1 it lies in
    [2..m], without m in [1..m-1], and either window is a translate of
    [1..m-1], which holds at most L(m-1) < target progression-free elements.
    So the search starts from {1} with m reserved and runs only over the
    interior [2..m-1].  A progression through m is (a, (a+m)/2, m), so each
    chosen a, 1 included, blocks its midpoint with m; a progression through 1
    ends in 2b-1 and is blocked like any other forward completion.

    Reflection.  x -> m+1-x maps such sets onto such sets.  If the largest
    interior element of S exceeds m+1-s2, where s2 is the second element,
    then the reflection of S has a smaller second element, so S is not the
    lexicographically first witness.  Hence the search may keep every later
    interior element <= m+1-s2 without losing that witness, and refutes a
    level exactly when the unrestricted search would.

    Depth-first over interior candidates in increasing order.  State per
    branch: a bitmask of the candidates still open (above the last choice,
    within the cap, and completing no progression: after choosing a then
    b > a, the value 2b-a is dropped) and a mirrored copy of the chosen set,
    so the values dropped by candidate v are one shift of the mirror.

    With `need` interior elements still to place after candidate v, the
    branch is abandoned unless need + 2 <= L(m-v+1) (v, they and m lie in
    [v..m]), need + 1 <= L(m+2-s2-v) (v and they lie in [v..m+1-s2]) and
    need <= the unblocked candidates left; all three shrink as v grows, so
    the whole candidate loop ends at the first failure.

    Requires lengths[t] = L(t) for all t < m.  Counts one node per candidate
    tried, and one for a level with target <= 2, whose answer is {1, m}.
    """
    node_cap, timed = meter.limits()
    if target <= 2:
        if node_cap < 1:
            raise BudgetExhausted("node limit reached")
        meter.spend(1)
        stats.nodes += 1
        return (1,) if m == 1 else (1, m)

    counters = [0, 0]  # nodes, bound prunes
    chosen = [1]

    def extend(need: int, mirror: int, free: int, cap: int) -> bool:
        # Choose the next interior element from `free`; every element placed
        # from here on is <= cap, the reflection bound m+1-s2.
        while free:
            bit = free & -free
            free ^= bit
            if counters[0] >= node_cap:
                raise BudgetExhausted("node limit reached")
            counters[0] += 1
            if timed and counters[0] % TIME_CHECK_INTERVAL == 0:
                meter.check_time()
            v = bit.bit_length() - 1
            if (need + 1 >= lengths[m - v + 1] or need >= lengths[cap - v + 1]
                    or need > free.bit_count()):
                counters[1] += 1
                return False
            chosen.append(v)
            if need == 0:
                return True
            shift = 2 * v - m
            blocks = mirror << shift if shift >= 0 else mirror >> -shift
            if (v + m) & 1 == 0:
                blocks |= 1 << ((v + m) >> 1)
            if extend(need - 1, mirror | (1 << (m - v)), free & ~blocks, cap):
                return True
            chosen.pop()
        return False

    # The second element s2 fixes the reflection cap m+1-s2 of its branch.
    need = target - 3  # interior elements still to place after s2
    free = (1 << m) - 4  # interior bits 2..m-1
    if m & 1:
        free &= ~(1 << ((1 + m) >> 1))
    try:
        while free:
            bit = free & -free
            free ^= bit
            if counters[0] >= node_cap:
                raise BudgetExhausted("node limit reached")
            counters[0] += 1
            if timed and counters[0] % TIME_CHECK_INTERVAL == 0:
                meter.check_time()
            s2 = bit.bit_length() - 1
            cap = m + 1 - s2
            if s2 > cap or need + 1 >= lengths[m - s2 + 1] or need >= lengths[cap - s2 + 1]:
                counters[1] += 1
                return None
            chosen.append(s2)
            if need == 0:
                return (*chosen, m)
            blocks = 1 << (2 * s2 - 1)  # completes 1, s2, 2*s2-1
            if (s2 + m) & 1 == 0:
                blocks |= 1 << ((s2 + m) >> 1)
            if extend(need - 1, (1 << (m - 1)) | (1 << (m - s2)),
                      free & ~blocks & ((1 << (cap + 1)) - 1), cap):
                return (*chosen, m)
            chosen.pop()
        return None
    finally:
        meter.spend(counters[0])
        stats.nodes += counters[0]
        stats.prunes_by_bound += counters[1]
