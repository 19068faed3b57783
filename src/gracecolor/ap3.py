"""Exact search over 3-AP-free integer sets.

A set is 3-AP-free when no three distinct members a < b < c satisfy
a + c = 2b.  This module computes, with witnesses:

  L(m)  - the size of the largest 3-AP-free subset of [1..m];
  a(k)  - the least m with L(m) >= k, i.e. the minimal span of a k-element
          3-AP-free set of positive integers.

L is computed as an incremental ladder: L(m) is L(m-1) or L(m-1)+1, so each
level is a decision seeded with the previous level's answer, and every
proven L value sharpens the pruning bound for later levels.

One map, built once at import, certifies levels where L grows: m -> a
witness of L(m) = L(m-1)+1.  It holds {1} and {1, 2}, which give L(1) = 1
and L(2) = 2 by definition, and each reference table entry a(t) = m whose
witness passes check_level, the same rule a seeded level passes, as
L(m) = t over L(m-1) = t-1.  A level whose map witness has t = L(m-1)+1
members is certified rather than searched, and that proves L(m) = t: the
witness gives L(m) >= t; and L(m) <= L(m-1)+1 = t, since removing m from a
subset of [1..m] leaves a subset of [1..m-1].  A wrong table cannot make a
value wrong: a witness that fails check_level never enters the map, and
its level is searched; a table that puts a(t) too late is overtaken, as
the search at the true level finds a set first; and it cannot put a(t)
too early, as its witness would have to be a valid t-set within [1..m].
Every flat level, where L(m) = L(m-1), is refuted by a search of its own,
and past the table, beyond m = 122, every level is searched; so the search
only ever sees t >= 3, as L(m-1) >= 2 for m >= 3.  One search at the top
of a flat run cannot stand in for the run: a search at m rules out only
the t-sets that span exactly [1..m], which are all the t-sets of [1..m]
only once L(m-1) < t is proven, and the spans of t-sets have gaps.  A
13-set spans [1..32] and one spans [1..34], but none spans [1..33]; so a
table entry a(13) = 34, with a valid 13-set spanning [1..34], passes
check_level, and a search at its top, 33, finds nothing, while
L(32) = 13.

A searched level is decided by a search over lower-heavy sets only, those
with no more members above the middle of [1..m] than below it: each set or
its reflection x -> m+1-x is one of these, and the search refutes in fewer
nodes.  It holds each candidate to the lower-count window.  A lower-heavy
t-set has at least t - t//2 members in the lower half [1..m//2].  A
candidate v with `need` interior members still to follow it comes after
t-2-need chosen members, so v and the members after it must supply at
least r = need+2 - t//2 lower members, all in [v..m//2].  When r >= 1
that needs r <= L(m//2+1-v), that is v <= m//2+1-a(r).  They must also
be open candidates: a frame whose picks owe r lower members ends as soon
as fewer than r of its open candidates are lower, and a child is refused
before push on the same count.  The set that
search finds is the level's witness, the lexicographically first
lower-heavy set; so a certified level carries the table's witness, and a
searched level where L grows the first lower-heavy set.  The two differ
where the table's set is not that one; up to a(27) = 100 they do at a(11),
a(13), a(14), a(17), a(19), a(21), a(25), a(26) and a(27).  Either passes
check_level.

A level that comes from outside the ladder, from a caller of
Ap3Engine.seed or from a cache file, is not proven here, so it must pass
the one level rule, check_level: its witness fits, it steps by 0 or 1 from
the level below, and it agrees with the reference table of published
graceful chromatic numbers of complete graphs, which fixes L(1..122).  It
is checked once: seed checks every entry handed to it, and a cache file's
levels are checked as tables.load_cache reads them, after which
ValueCache.seed_engine adopts those still untouched into a fresh engine
without a second check.  The table's witnesses are embedded verbatim as
fixture data so that transcription slips are caught by the
internal-consistency test instead of being trusted silently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import lt
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .budget import BudgetExhausted, BudgetMeter, SolveBudget


# Reference results: n -> (chi_g of the complete graph on n vertices, witness).
CHI_G_COMPLETE_REFERENCE: dict[int, tuple[int, tuple[int, ...]]] = {
    2: (2, (1, 2)),
    3: (4, (1, 2, 4)),
    4: (5, (1, 2, 4, 5)),
    5: (9, (1, 2, 4, 8, 9)),
    6: (11, (1, 2, 4, 5, 10, 11)),
    7: (13, (1, 2, 4, 5, 10, 11, 13)),
    8: (14, (1, 2, 4, 5, 10, 11, 13, 14)),
    9: (20, (1, 2, 6, 7, 9, 14, 15, 18, 20)),
    10: (24, (1, 2, 5, 7, 11, 16, 18, 19, 23, 24)),
    11: (26, (1, 2, 5, 7, 11, 16, 18, 19, 23, 24, 26)),
    12: (30, (1, 3, 4, 8, 9, 11, 20, 22, 23, 27, 28, 30)),
    13: (32, (1, 2, 4, 8, 9, 11, 19, 22, 23, 26, 28, 31, 32)),
    14: (36, (1, 2, 4, 8, 9, 13, 21, 23, 26, 27, 30, 32, 35, 36)),
    15: (40, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40)),
    16: (41, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41)),
    17: (51, (1, 2, 4, 5, 10, 13, 14, 17, 31, 35, 37, 38, 40, 46, 47, 50, 51)),
    18: (54, (1, 2, 5, 6, 12, 14, 15, 17, 21, 31, 38, 39, 42, 43, 49, 51, 52, 54)),
    19: (58, (1, 2, 5, 6, 12, 14, 15, 17, 21, 31, 38, 39, 42, 43, 49, 51, 52, 54, 58)),
    20: (63, (1, 2, 5, 7, 11, 16, 18, 19, 24, 26, 38, 39, 42, 44, 48, 53, 55, 56, 61,
              63)),
    21: (71, (1, 2, 5, 7, 10, 17, 20, 22, 26, 31, 41, 46, 48, 49, 53, 54, 63, 64, 68,
              69, 71)),
    22: (74, (1, 2, 7, 9, 10, 14, 20, 22, 23, 25, 29, 46, 50, 52, 53, 55, 61, 65, 66,
              68, 73, 74)),
    23: (82, (1, 2, 4, 8, 9, 11, 19, 22, 23, 26, 28, 31, 49, 57, 59, 62, 63, 66, 68,
              71, 78, 81, 82)),
    24: (84, (1, 3, 4, 8, 9, 16, 18, 21, 22, 25, 30, 37, 48, 55, 60, 63, 64, 67, 69,
              76, 77, 81, 82, 84)),
    25: (92, (1, 2, 6, 8, 9, 13, 19, 21, 22, 27, 28, 39, 58, 62, 64, 67, 68, 71, 73,
              81, 83, 86, 87, 90, 92)),
    26: (95, (1, 2, 4, 5, 10, 11, 22, 23, 25, 26, 31, 32, 55, 56, 64, 65, 67, 68, 76,
              77, 82, 83, 91, 92, 94, 95)),
    27: (100, (1, 3, 6, 7, 10, 12, 20, 22, 25, 26, 29, 31, 35, 62, 66, 68, 71, 72, 75,
               77, 85, 87, 90, 91, 94, 96, 100)),
    28: (104, (1, 5, 7, 10, 11, 14, 16, 24, 26, 29, 30, 33, 35, 39, 66, 70, 72, 75, 76,
               79, 81, 89, 91, 94, 95, 98, 100, 104)),
    29: (111, (1, 2, 5, 6, 13, 15, 19, 26, 27, 30, 31, 38, 42, 44, 66, 68, 72, 77, 80,
               81, 84, 89, 93, 95, 99, 104, 107, 108, 111)),
    30: (114, (1, 2, 4, 9, 12, 13, 18, 19, 28, 30, 31, 33, 40, 45, 46, 69, 70, 75, 82,
               84, 85, 87, 96, 97, 102, 103, 106, 111, 113, 114)),
    31: (121, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41, 82, 83, 85,
               86, 91, 92, 94, 95, 109, 110, 112, 113, 118, 119, 121)),
    32: (122, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41, 82, 83, 85,
               86, 91, 92, 94, 95, 109, 110, 112, 113, 118, 119, 121, 122)),
}

# L(m) = #{n : a(n) <= m} for m = 0..122, as the reference table fixes it
# ((m >= 1) counts a(1) = 1; a is strictly increasing and a(32) = 122, so
# a(33) > 122).  check_level holds every level to it.
_FIXED_LENGTHS: tuple[int, ...] = tuple(
    (m >= 1) + sum(span <= m for span, _ in CHI_G_COMPLETE_REFERENCE.values())
    for m in range(max(span for span, _ in CHI_G_COMPLETE_REFERENCE.values()) + 1))


# Past this span per member, is_ap3_free tests pairs: its masks would cost
# O(span) per step, and memory that grows with the values it is given.
_MASK_SPAN_PER_ELEMENT = 1024


def is_ap3_free(elements: Sequence[int]) -> bool:
    """True iff no three members a < b < c satisfy a + c = 2b.

    Input must be strictly increasing, which is tested first, so an input
    that is not raises ValueError even where it holds a progression; zero
    and negative members are allowed.  One pass takes the members in order,
    at offsets p = x - min, and keeps two masks of the members before x:
    seen, with bit q for each member at offset q, and twice, with bit 2q.
    x closes a progression a < b < x exactly when 2b - a = p for members
    a and b before it, that is when twice >> p & seen is not zero: O(n)
    big-int steps in all.  A set sparser than _MASK_SPAN_PER_ELEMENT per
    member has its pairs tested instead, in O(n^2) steps.
    """
    xs = tuple(elements)
    if not all(map(lt, xs, xs[1:])):
        raise ValueError("input must be strictly increasing without duplicates")
    if len(xs) < 3:
        return True
    low = xs[0]
    if xs[-1] - low > _MASK_SPAN_PER_ELEMENT * len(xs):
        members = set(xs)
        for i, a in enumerate(xs):
            for c in xs[i + 1:]:
                if (a + c) % 2 == 0 and (a + c) // 2 in members:
                    return False
        return True
    seen = twice = 0
    for x in xs:
        p = x - low
        if twice >> p & seen:
            return False
        seen |= 1 << p
        twice |= 1 << p + p
    return True


def check_level(m: int, value: int, witness: Sequence[int],
                prev: int | None = None) -> None:
    """Raise ValueError unless (value, witness) is a valid record of L(m):
    the witness is a strictly increasing, 3-AP-free subset of [1..m] with
    `value` elements, value agrees with the reference table where it fixes
    L(m), and, when L(m-1) = prev is known, value is prev or prev + 1.  The
    O(1) tests run before the O(n) progression test, and the table last, so
    a record whose witness is at fault is told so."""
    if prev is not None and value not in (prev, prev + 1):
        raise ValueError(f"L({m})={value} inconsistent with L({m-1})={prev}")
    if len(witness) != value:
        raise ValueError(f"witness size {len(witness)} != L({m})={value}")
    if not witness or witness[0] < 1 or witness[-1] > m:
        raise ValueError(f"witness for L({m})={value} does not fit [1..{m}]")
    if not is_ap3_free(witness):  # raises first unless strictly increasing
        raise ValueError(f"witness for L({m}) contains a 3-term progression")
    if m < len(_FIXED_LENGTHS) and value != _FIXED_LENGTHS[m]:
        raise ValueError(f"L {m} {value} contradicts the reference table, "
                         f"which gives {_FIXED_LENGTHS[m]}")


def _certificates(table: Mapping[int, tuple[int, tuple[int, ...]]]) -> dict[int, tuple[int, ...]]:
    """m -> a witness of L(m) = L(m-1) + 1, for the climb to record at one
    node where its size is L(m-1) + 1: {1} and {1, 2}, which hold by
    definition, and the witness of each entry t -> (m, w) of `table` that
    passes check_level as L(m) = t over L(m-1) = t - 1."""
    certified = {1: (1,), 2: (1, 2)}
    for t, (m, witness) in table.items():
        try:
            check_level(m, t, witness, t - 1)
        except ValueError:
            continue
        certified[m] = witness
    return certified


_CERTIFIED = _certificates(CHI_G_COMPLETE_REFERENCE)


@dataclass(slots=True)
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
    pass check_level, then are trusted: up to m = 122 the reference table
    fixes them, beyond it their refutations are taken on trust.  Levels 1
    and 2, and a level where L grows to a value the reference table places
    there, are certified by the certificate map, whose table witnesses pass
    the same check_level; every other level is searched.
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
        level).  Each adopted entry must pass check_level against the level
        below it; an inconsistent entry, or one that contradicts the
        reference table, raises ValueError.
        """
        applied = 0
        m = self.frontier + 1
        while m in entries:
            value, witness = entries[m]
            witness = tuple(witness)
            check_level(m, value, witness, self._lengths[m - 1])
            self._lengths.append(value)
            self._witnesses.append(witness)
            applied += 1
            m += 1
        return applied

    def _adopt(self, levels: Iterable[tuple[int, tuple[int, ...]]]) -> None:
        """Append (L, witness) levels from frontier + 1 on as they are.  Only
        for levels that have already passed check_level, each against the
        level below it here: ValueCache.seed_engine adopts the levels that
        load_cache checked, into an engine with frontier 0."""
        for value, witness in levels:
            self._lengths.append(value)
            self._witnesses.append(witness)

    # -- queries ------------------------------------------------------------

    def longest(self, m: int, budget: SolveBudget | None = None) -> Ap3Result:
        """L(m) with an attaining witness; exact unless the budget runs out."""
        if m < 1:
            raise ValueError("m must be >= 1")
        stats, proven = self._climb(lambda: self.frontier < m, budget)
        level = min(m, self.frontier)
        return Ap3Result(self._lengths[level], self._witnesses[level], stats, proven)

    def min_span(self, k: int, budget: SolveBudget | None = None) -> Ap3Result:
        """Least m with L(m) >= k, plus a k-element witness spanning exactly [1..m]."""
        if k < 1:
            raise ValueError("k must be >= 1")
        stats, proven = self._climb(lambda: self._lengths[-1] < k, budget)
        if not proven:
            return Ap3Result(self.frontier, (), stats, False)
        m = bisect_left(self._lengths, k)
        return Ap3Result(m, self._witnesses[m], stats, True)

    def _climb(self, unfinished: Callable[[], bool],
               budget: SolveBudget | None) -> tuple[SearchStats, bool]:
        """Prove the next level while unfinished(): L(m) = L(m-1) + 1 if
        attainable, else L(m-1).  Where the certificate map _CERTIFIED holds
        a witness of L(m-1) + 1 members at m (at m = 1 and 2, and where the
        reference table puts a(L(m-1) + 1) with a witness that passed
        check_level at import), that witness proves L(m) = L(m-1) + 1 (see
        the module docstring) for one node.
        Otherwise the halves search decides the level: it looks only at
        lower-heavy sets, and holds each candidate to the lower-count window,
        which leaves room below the middle of [1..m] for the lower members
        the set still owes, and each frame to its open lower candidates,
        which must number at least as many.  The set it finds, the
        lexicographically first lower-heavy one, is the level's witness.
        Each level is decided on its own, flat levels too: a search at m
        rules out only the sets that span exactly [1..m], which are all the
        sets of its size in [1..m] because the level below, already proven,
        holds fewer; and the spans of a size have gaps (see the module
        docstring), so no one search refutes a whole flat run.  A level the
        budget stops in its search, or at its certifying node, is not
        recorded.  Every level draws on one meter, and stats.nodes is that
        meter's count.  Returns the stats and whether the climb finished
        before the budget ran out."""
        meter = BudgetMeter(budget)
        stats = SearchStats()
        proven = True
        try:
            while unfinished():
                m = len(self._lengths)
                target = self._lengths[m - 1] + 1
                found = _CERTIFIED.get(m, ())
                if len(found) == target:
                    meter.next_stop(0)
                    meter.spend(1)
                else:
                    found = _find_of_size(m, target, self._lengths, meter, stats)
                    if found is None:
                        target, found = target - 1, self._witnesses[m - 1]
                self._lengths.append(target)
                self._witnesses.append(found)
        except BudgetExhausted:
            proven = False
        stats.nodes = meter.nodes
        return stats, proven


def _upto(x: int) -> int:
    """Bitmask of 0..x, or of nothing when x < 0."""
    return (2 << x) - 1 if x >= 0 else 0


def _lower_limit(m: int, size: int, need: int, span: Sequence[int]) -> int:
    """Largest candidate v, with `need` interior members still to follow it,
    that a lower-heavy `size`-element set with endpoints 1 and m can hold,
    given span[r] = a(r).  v and the members after it owe the set
    r = need + 2 - size // 2 lower members, all in [v..m//2], so for r >= 1
    v <= m//2 + 1 - a(r); the proof is under "Halves" in _find_of_size."""
    r = need + 2 - size // 2
    return m if r <= 0 else m // 2 + 1 - span[r]


def _find_of_size(m: int, target: int, lengths: Sequence[int], meter: BudgetMeter,
                  stats: SearchStats) -> tuple[int, ...] | None:
    """Find a 3-AP-free subset of [1..m] with exactly `target` = L(m-1) + 1
    elements, or prove that none exists.  The set found is the
    lexicographically first lower-heavy one; None is returned exactly when
    no set exists.

    Endpoints.  Every such set S contains both 1 and m: without 1 it lies in
    [2..m], without m in [1..m-1], and either window is a translate of
    [1..m-1], which holds at most L(m-1) < target progression-free elements.
    So the search starts from {1} with m reserved and runs only over the
    interior [2..m-1].  A progression through m is (a, (a+m)/2, m), so each
    chosen a, 1 included, blocks its midpoint with m; a progression through 1
    ends in 2b-1 and is blocked like any other forward completion.

    Reflection.  x -> m+1-x maps such sets onto such sets, so the search
    need keep only one member of every pair {S, reflection of S}: a
    lower-heavy one.

    Halves.  A member x is lower when 2x < m+1, that is x <= m//2, and
    upper when 2x > m+1.  The middle (m+1)/2 of an odd m would be neither,
    but it is the midpoint of 1 and m, so S never holds it.  Reflection
    swaps the halves, so S or its reflection is lower-heavy: it has no more
    upper than lower members, hence at least target - target//2 lower
    members.  A candidate v comes after target-2-need chosen members, so at
    most that many lower ones; v and the `need` elements after it must
    supply the other r = need+2 - target//2, all in [v..m//2].  When r >= 1
    that needs r <= L(m//2+1-v), that is v <= m//2+1-a(r), the lower-count
    window of _lower_limit; at r = 1 it closes the upper half, and when
    r <= 0 it leaves every candidate open.
    Conversely every set the window admits is lower-heavy: the interior
    members with need >= target//2 - 1 have r >= 1, so lie in [2..m//2], and
    with 1 they number target - target//2.  So the search meets the
    lower-heavy sets, and only them, in lexicographic order.

    Search.  Depth first over interior candidates in increasing order, in
    one loop on an explicit stack; the frame being searched lives in locals.
    A frame holds `need`, the interior elements still to place after its
    next choice; `free`, the bitmask of candidates still open (above the
    last choice, completing no progression); and `mirror`, the chosen set
    with bit 2m-a for each chosen a.  Choosing v drops the values 2v-a,
    which are mirror >> 2(m-v), and its midpoint with m.  The witness is read
    back from the mirror on success.

    Window masks.  A candidate v followed by `need` more elements must leave
    room for them: v, they and m lie in [v..m], so need+2 <= L(m+1-v); and
    the lower members still owed need r <= L(m//2+1-v).  Each bound falls as
    v grows, so each admits a prefix of the candidates, v <= m+1-a(need+2)
    and v <= m//2+1-a(r), with a(n) found in `lengths` by bisection.
    window[need] masks the prefix both admit, computed once per level.
    Candidates are taken lowest first, so a frame ends as soon as its lowest
    open candidate leaves its window.  A candidate also needs `need` open
    candidates above it (the popcount test); that count only falls, so a
    failure ends the frame.

    Open lower candidates.  The r = need+2 - target//2 lower members that a
    frame's pick and the `need` after it owe are open candidates of that
    frame: each later member is open in the frame it is picked from, whose
    candidates are open in its parent.  So once a pick is taken, a frame
    whose remaining open candidates hold fewer than r lower ones can take no
    further pick and ends; and a child with fewer than r-1, what its own
    picks owe, is refused before push.  Neither cuts a lower-heavy set.

    Check before push.  A child frame is pushed only if it has an open
    candidate in window[need-1] (a prefix, so its lowest one is in it), at
    least `need` open candidates and enough open lower ones: otherwise its
    first candidate would fail the window or the popcount test and end it at
    once, or it could not find the lower members it owes.

    Counts.  A node is a candidate taken off a frame inside its window, and
    the budget is charged per node; the meter holds the count.  A prune is
    a frame the window ends with candidates left, a candidate failing the
    popcount test, a frame ended with candidates left for want of open lower
    ones, or a child refused before push; stats holds the prunes.
    Levels 1 and 2, the only ones with a target below 3, are not searched:
    the climb certifies them for one node each from _CERTIFIED.

    Requires target >= 3, so m >= 3, and target = L(m-1) + 1, which the
    endpoint argument uses.  Of `lengths` the search reads only a(n) for
    n < target, as bisect_left(lengths, n), the least i with lengths[i] >= n;
    so lengths must be L(0..x) for some x with L(x) >= target - 1, as the
    ladder's levels below m are: L is non-decreasing, so the least such i
    is the least i with L(i) >= n, which is a(n).
    """
    span = [bisect_left(lengths, n) for n in range(target)]  # a(n) for n < target
    m2 = 2 * m
    mids = [0 if (v + m) & 1 else 1 << ((v + m) >> 1) for v in range(m)]
    top = target - 3  # interior elements still to place after s2
    window = [_upto(min(m + 1 - span[n + 2], _lower_limit(m, target, n, span)))
              for n in range(top + 1)]
    lower = _upto(m // 2)
    owed = 2 - target // 2  # a frame's picks owe need + owed lower members
    need, free, mirror = top, ((1 << m) - 4) & ~mids[1], 1 << (m2 - 1)
    w = window[top]
    stack: list[tuple[int, int, int]] = []
    nodes = stop = prunes = 0
    try:
        while True:
            b = free & -free
            if not b & w:
                if free:
                    prunes += 1
                if not stack:
                    return None
                need, free, mirror = stack.pop()
                w = window[need]
                continue
            free ^= b
            if nodes == stop:
                stop = meter.next_stop(nodes)
            nodes += 1
            if need > free.bit_count():
                prunes += 1
                free = 0
                continue
            v = b.bit_length() - 1
            if not need:
                return (*(m2 - i for i in range(m2 - 1, m, -1) if mirror >> i & 1), v, m)
            child = free & ~(mirror >> (m2 - 2 * v) | mids[v])
            if free and need + owed > (free & lower).bit_count():
                prunes += 1
                free = 0
            if (child & window[need - 1] and child.bit_count() >= need
                    and (child & lower).bit_count() >= need - 1 + owed):
                stack.append((need, free, mirror))
                need -= 1
                free, mirror, w = child, mirror | 1 << (m2 - v), window[need]
            else:
                prunes += 1
    finally:
        meter.spend(nodes)
        stats.prunes_by_bound += prunes
