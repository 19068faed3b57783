"""3-AP-free engine: membership, longest subsets, minimal spans, witnesses."""

import hashlib
import os
import random

import pytest

from gracecolor import ap3
from gracecolor.ap3 import (Ap3Engine, SearchStats, _find_of_size, _lower_limit,
                            check_level, is_ap3_free)
from gracecolor.budget import BudgetMeter, SolveBudget
from gracecolor.tables import CHI_G_COMPLETE_REFERENCE, table_report
from support import (contains_progression, ended_progression_free_sets, is_lower_heavy,
                     longest_by_enumeration, spans_exactly)

# -- membership ----------------------------------------------------------------


def test_is_ap3_free_examples():
    assert is_ap3_free((1, 2, 4, 5, 10))
    assert not is_ap3_free((1, 2, 3))
    assert is_ap3_free(())
    assert is_ap3_free((7,))
    assert is_ap3_free((3, 9))
    assert not is_ap3_free((-4, 0, 4))
    assert is_ap3_free((-3, -2, 0))


def test_is_ap3_free_requires_strictly_increasing():
    with pytest.raises(ValueError):
        is_ap3_free((2, 1))
    with pytest.raises(ValueError):
        is_ap3_free((1, 1, 2))
    # the order is tested first, so a progression ahead of the fault is not
    # reported as one
    with pytest.raises(ValueError, match="increasing"):
        is_ap3_free((1, 2, 3, 2))


def test_is_ap3_free_matches_triple_scan():
    # random sets over -20..260 of sizes 0..32, every reference witness, and
    # each witness with one element moved; each set is tested as given, where
    # the masks decide, and stretched by 2048, where the pairs do
    rng = random.Random(555)
    sets = [tuple(sorted(rng.sample(range(-20, 261), rng.randint(0, 32))))
            for _ in range(600)]
    for _, witness in CHI_G_COMPLETE_REFERENCE.values():
        sets.append(witness)
        for x in witness:
            moved = rng.choice([y for y in range(-20, 261) if y not in witness])
            sets.append(tuple(sorted({*witness, moved} - {x})))
    for s in sets:
        free = not contains_progression(s)
        assert is_ap3_free(s) == free, s
        assert is_ap3_free(tuple(2048 * x - 7 for x in s)) == free, s


def test_is_ap3_free_takes_sparse_sets_of_any_span():
    # masks over these spans would need 10**18 bits
    assert is_ap3_free((0, 1, 10 ** 18))
    assert not is_ap3_free((-10 ** 18, 0, 10 ** 18))


# -- longest subsets -------------------------------------------------------------


def test_longest_small_derived_values():
    r4 = Ap3Engine().longest(4)
    assert (r4.value, r4.witness) == (3, (1, 2, 4))
    r8 = Ap3Engine().longest(8)
    assert r8.value == 4
    assert len(r8.witness) == 4 and is_ap3_free(r8.witness)
    assert max(r8.witness) <= 8


def test_longest_matches_enumeration_oracle_up_to_20():
    engine = Ap3Engine()
    for m in range(1, 21):
        want, first = longest_by_enumeration(m)
        got = engine.longest(m)
        assert got.value == want, f"L({m})"
        assert got.proven
        assert len(got.witness) == want
        assert is_ap3_free(got.witness)
        assert got.witness[-1] <= m and got.witness[0] >= 1
        if m == 1 or want > engine.length(m - 1):
            # a new level's witness is the reference table's, certified, and
            # up to 20 that is the lexicographically first maximum set, which
            # spans [1..m]; a level with L(m) = L(m-1) keeps the previous
            # level's witness, which the oracle does not predict
            assert got.witness == first, f"L({m})"
            assert got.witness[0] == 1 and got.witness[-1] == m


# Where L grows, the searched ladder's witnesses up to L(63), as pinned from
# a run of the kernel; those of a(11), a(13), a(14), a(17) and a(19) differ
# from the reference table's, whose sets there are upper-heavy
_SEARCHED_NEW_LEVEL_WITNESSES = (
    (1,),
    (1, 2),
    (1, 2, 4),
    (1, 2, 4, 5),
    (1, 2, 4, 8, 9),
    (1, 2, 4, 5, 10, 11),
    (1, 2, 4, 5, 10, 11, 13),
    (1, 2, 4, 5, 10, 11, 13, 14),
    (1, 2, 6, 7, 9, 14, 15, 18, 20),
    (1, 2, 5, 7, 11, 16, 18, 19, 23, 24),
    (1, 3, 4, 8, 9, 11, 16, 20, 22, 25, 26),
    (1, 3, 4, 8, 9, 11, 20, 22, 23, 27, 28, 30),
    (1, 2, 5, 7, 10, 11, 14, 22, 24, 25, 29, 31, 32),
    (1, 2, 5, 7, 10, 11, 14, 16, 24, 28, 29, 33, 35, 36),
    (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40),
    (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41),
    (1, 2, 5, 6, 12, 14, 15, 17, 21, 35, 38, 39, 42, 44, 47, 48, 51),
    (1, 2, 5, 6, 12, 14, 15, 17, 21, 31, 38, 39, 42, 43, 49, 51, 52, 54),
    (1, 5, 7, 8, 10, 16, 17, 20, 21, 28, 38, 42, 44, 45, 47, 53, 54, 57, 58),
    (1, 2, 5, 7, 11, 16, 18, 19, 24, 26, 38, 39, 42, 44, 48, 53, 55, 56, 61, 63),
)


def test_new_level_witnesses_are_pinned_up_to_63(searched_ladder):
    # where L grows, the searched ladder's witness is the lexicographically
    # first lower-heavy maximum set, which the enumeration oracle finds up
    # to m = 26, and it spans [1..m]
    engine = Ap3Engine()
    engine.longest(63)
    previous = 0
    new_levels = []
    for m, value, witness in engine.proven_levels():
        if value > previous:
            assert (witness[0], witness[-1]) == (1, m), f"L({m})"
            if m <= 26:
                want = next(s for s in ended_progression_free_sets(m)
                            if len(s) == value and is_lower_heavy(s, m))
                assert witness == want, f"L({m})"
            new_levels.append(witness)
        previous = value
    assert tuple(new_levels) == _SEARCHED_NEW_LEVEL_WITNESSES


@pytest.mark.skipif(not os.environ.get("GRACECOLOR_EXTENDED"),
                    reason="optional tier: set GRACECOLOR_EXTENDED=1 (about a minute)")
@pytest.mark.parametrize("climb, digest", [
    ("certified", "1213af38720b33f75433c099ffa67f03593ce917009161476dfdb93c5b351136"),
    ("searched", "4ed34ee49d55ceeed7db184bbd17c454a4f96b9f01a69d64d5bc94753338a702"),
], ids=["certified", "searched"])
def test_ladder_digest_up_to_84(request, climb, digest):
    # lines "m L(m) witness" for m = 1..84, hashed, as pinned from a run of
    # the kernel: any change to a value or a witness moves the digest.  The
    # certified climb records the table's witnesses where L grows; the
    # searched climb records the first lower-heavy sets, and is a check of
    # the kernel's own values and witnesses past L(63)
    if climb == "searched":
        request.getfixturevalue("searched_ladder")
    engine = Ap3Engine()
    assert engine.longest(84).proven
    text = "".join(f"{m} {value} {','.join(map(str, witness))}\n"
                   for m, value, witness in engine.proven_levels())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.skipif(not os.environ.get("GRACECOLOR_EXTENDED"),
                    reason="optional tier: set GRACECOLOR_EXTENDED=1 (about a minute)")
def test_searched_ladder_levels_check_up_to_100(searched_ladder):
    # the only check of the kernel's own witnesses past L(84), a(27) = 100
    # among them: each level passes check_level against the one below, which
    # holds its value to the reference table, and where L grows its witness
    # spans [1..m] and is lower-heavy
    engine = Ap3Engine()
    assert engine.longest(100).proven
    previous = 0
    for m, value, witness in engine.proven_levels():
        check_level(m, value, witness, previous)
        if value > previous:
            assert (witness[0], witness[-1]) == (1, m) and is_lower_heavy(witness, m), m
        previous = value
    assert previous == 27


def test_cold_ladder_nodes_are_pinned_at_63(searched_ladder):
    # a looser window or lower-candidate count keeps every value and
    # witness; only the count shows it
    assert Ap3Engine().longest(63).stats.nodes == 198_169


def test_certified_ladder_nodes_are_pinned_at_63():
    # 158,615 nodes refute the flat levels; each of the 20 levels where L
    # grows costs one: m = 1, whose only set is {1}, and the certified
    # a(2..20)
    assert Ap3Engine().longest(63).stats.nodes == 158_635


def test_ladder_nodes_do_not_depend_on_how_it_is_queried():
    # one level per call, one call to L(63), and a table to a(20) = 63 each
    # decide the same levels once: the table stops one node short of them
    engine = Ap3Engine()
    stepped = sum(engine.longest(m).stats.nodes for m in range(1, 64))
    assert stepped == Ap3Engine().longest(63).stats.nodes == 158_635
    assert all(row.status == "ok" for row in table_report(20, SolveBudget(max_nodes=stepped)))
    assert table_report(20, SolveBudget(max_nodes=stepped - 1))[-1].status == "unproven"


def climbed_levels(m):
    engine = Ap3Engine()
    result = engine.longest(m)
    return list(engine.proven_levels()), result.stats.nodes


def test_certified_and_searched_climbs_agree_up_to_63(request):
    # the same values; the witnesses may differ where L grows, since a
    # certified level carries the table's set, but each searched one passes
    # check_level against the level below
    certified, _ = climbed_levels(63)
    request.getfixturevalue("searched_ladder")
    searched, _ = climbed_levels(63)
    assert [value for _, value, _ in searched] == [value for _, value, _ in certified]
    previous = 0
    for m, value, witness in searched:
        check_level(m, value, witness, previous)
        previous = value


# Valid sets spanning one and three levels past a(9) = 20, and two past
# a(13) = 32, where no 13-set spans [1..33]
_NINE_SPANNING_21 = (1, 2, 4, 5, 12, 14, 15, 17, 21)
_NINE_SPANNING_23 = (1, 2, 4, 5, 11, 15, 16, 22, 23)
_THIRTEEN_SPANNING_34 = (1, 3, 4, 6, 10, 12, 13, 24, 26, 27, 31, 32, 34)


@pytest.mark.parametrize("n, entry", [
    (9, (20, (1, 2, 6, 7, 9, 14, 16, 18, 20))),  # holds 14, 16, 18
    (9, (20, (2, 3, 7, 8, 10, 15, 16, 19, 21))),  # misses 20: a(9)'s set shifted up
    (9, (21, _NINE_SPANNING_21)),  # a(9) placed one level late
    (9, (23, _NINE_SPANNING_23)),  # a(9) placed three levels late
    (9, (21, CHI_G_COMPLETE_REFERENCE[9][1])),  # a true witness under a wrong span
    (13, (34, _THIRTEEN_SPANNING_34)),  # a(13) placed late, its top on a gap
], ids=["progression", "misses-m", "late", "three-late", "span-not-its-witness",
        "late-over-a-gap"])
def test_a_faulty_reference_entry_is_searched_past(monkeypatch, n, entry):
    # a(9) = 20 and a(13) = 32.  A table entry enters the certificate map
    # only through check_level, and the climb uses it only at the level it
    # names and only where its size is L(m-1) + 1, so a faulty a(n) climbs
    # to 40 exactly as a table without a(n) does: the true values, and the
    # same witnesses and nodes.  The last entry also passes check_level, and
    # a search at its top, m = 33, finds no 13-set, so a climb that refuted
    # L(32..33) there would record L(32) = 12
    assert all(is_ap3_free(s) for s in (_NINE_SPANNING_21, _NINE_SPANNING_23,
                                         _THIRTEEN_SPANNING_34))
    want, _ = climbed_levels(40)
    without = {k: e for k, e in CHI_G_COMPLETE_REFERENCE.items() if k != n}
    monkeypatch.setattr(ap3, "_CERTIFIED", ap3._certificates(without))
    searched = climbed_levels(40)
    assert [value for _, value, _ in searched[0]] == [value for _, value, _ in want]
    monkeypatch.setattr(ap3, "_CERTIFIED", ap3._certificates({**without, n: entry}))
    assert climbed_levels(40) == searched


def test_the_spans_of_a_size_have_gaps():
    # why each flat level is refuted on its own: a 13-set spans [1..32] =
    # [1..a(13)] and one spans [1..34], but none spans [1..33], so a search
    # that finds no 13-set spanning the top of a run says nothing of the
    # levels below it
    assert [spans_exactly(m, 13) for m in (31, 32, 33, 34)] == [False, True, False, True]
    assert (_THIRTEEN_SPANNING_34[0], _THIRTEEN_SPANNING_34[-1]) == (1, 34)
    check_level(34, 13, _THIRTEEN_SPANNING_34, 12)


# -- the search of a level ------------------------------------------------------


def test_lower_limit_admits_the_lower_heavy_sets_of_every_reflection_pair():
    # the lemma by enumeration: of each ended set S and its reflection
    # x -> m+1-x, at least one has no more upper than lower members, and in
    # each such set every interior member v, followed by `need` interior
    # members, lies within the limit the lower count gives that need.  No
    # set holds the middle (m+1)/2, the midpoint of 1 and m, which the limit
    # closes with the upper half
    span = [0, 1] + [CHI_G_COMPLETE_REFERENCE[n][0] for n in range(2, 12)]
    for m in range(1, 23):
        for s in ended_progression_free_sets(m):
            assert m < 3 or m % 2 == 0 or (m + 1) // 2 not in s, (m, s)
            pair = {s, tuple(sorted(m + 1 - x for x in s))}
            heavy = [r for r in pair if is_lower_heavy(r, m)]
            assert heavy, (m, s)
            for r in heavy:
                for i, v in enumerate(r[1:-1], start=1):
                    assert v <= _lower_limit(m, len(r), len(r) - 2 - i, span), (m, r, v)


def test_search_decides_every_level_up_to_50():
    # at each level, on the proven ladder below it, the search finds a set
    # exactly where L grows, and that set is a lower-heavy target-set
    # spanning [1..m] with no progression
    engine = Ap3Engine()
    engine.longest(50)
    lengths = [0] + [engine.length(m) for m in range(1, 50)]
    for m in range(3, 51):
        target = lengths[m - 1] + 1
        found = _find_of_size(m, target, lengths[:m], BudgetMeter(None), SearchStats())
        assert (found is None) == (engine.length(m) < target), m
        if found is not None:
            assert len(found) == target and (found[0], found[-1]) == (1, m)
            assert not contains_progression(found) and is_lower_heavy(found, m)


def test_budget_spent_inside_a_searched_new_level_records_no_level(searched_ladder):
    # L(20) = 9 > L(19) = 8.  The climb's last node is the one that completes
    # the witness of m = 20 in its search, so one node less stops the climb
    # in that search, before it has found a set
    full = Ap3Engine().longest(20)
    below = Ap3Engine().longest(19)
    assert full.stats.nodes > below.stats.nodes + 1  # m = 20 is searched, not certified
    engine = Ap3Engine()
    result = engine.longest(20, SolveBudget(max_nodes=full.stats.nodes - 1))
    assert (result.proven, result.value, result.witness) == (False, 8, below.witness)
    assert engine.frontier == 19
    assert engine.longest(20).witness == full.witness == CHI_G_COMPLETE_REFERENCE[9][1]


def test_budget_spent_at_a_certified_level_records_no_level():
    # the certified level m = 20 costs one node, the climb's last
    full = Ap3Engine().longest(20)
    below = Ap3Engine().longest(19)
    assert full.stats.nodes == below.stats.nodes + 1
    engine = Ap3Engine()
    result = engine.longest(20, SolveBudget(max_nodes=below.stats.nodes))
    assert (result.proven, result.value, result.witness) == (False, 8, below.witness)
    assert engine.frontier == 19
    assert engine.longest(20).witness == full.witness == CHI_G_COMPLETE_REFERENCE[9][1]


def test_longest_monotone_with_unit_steps():
    engine = Ap3Engine()
    engine.longest(45)
    lengths = [engine.length(m) for m in range(1, 46)]
    for prev, cur in zip(lengths, lengths[1:]):
        assert prev <= cur <= prev + 1


def test_longest_witness_valid_at_every_level():
    engine = Ap3Engine()
    engine.longest(30)
    for m, value, witness in engine.proven_levels():
        assert len(witness) == value
        assert witness[-1] <= m
        assert is_ap3_free(witness)


# -- minimal spans ----------------------------------------------------------------


def test_min_span_examples():
    r = Ap3Engine().min_span(4)
    assert (r.value, r.witness) == (5, (1, 2, 4, 5))
    r = Ap3Engine().min_span(5)
    assert (r.value, r.witness) == (9, (1, 2, 4, 8, 9))
    r = Ap3Engine().min_span(1)
    assert (r.value, r.witness) == (1, (1,))
    assert Ap3Engine().min_span(9).value == 20


def test_min_span_cross_check_against_longest():
    """The two code paths must agree: a(k) = min { m : L(m) >= k }."""
    span_engine = Ap3Engine()
    ladder_engine = Ap3Engine()
    for k in range(1, 13):
        direct = span_engine.min_span(k)
        m = 1
        while ladder_engine.longest(m).value < k:
            m += 1
        assert direct.value == m, f"a({k})"


def test_min_span_witness_invariants():
    engine = Ap3Engine()
    for k in range(1, 13):
        r = engine.min_span(k)
        assert len(r.witness) == k
        assert r.witness[0] == 1 and r.witness[-1] == r.value
        assert is_ap3_free(r.witness)


def test_translation_invariance():
    rng = random.Random(90125)
    for _ in range(300):
        size = rng.randint(0, 8)
        s = sorted(rng.sample(range(1, 60), size))
        t = rng.randint(1, 50)
        shifted = tuple(x + t for x in s)
        assert is_ap3_free(tuple(s)) == is_ap3_free(shifted)


def test_reflection_invariance():
    rng = random.Random(8128)
    for _ in range(300):
        m = rng.randint(1, 50)
        size = rng.randint(0, min(8, m))
        s = sorted(rng.sample(range(1, m + 1), size))
        mirrored = tuple(sorted(m + 1 - x for x in s))
        assert is_ap3_free(tuple(s)) == is_ap3_free(mirrored)


# -- budgets and seeding -------------------------------------------------------------


def test_budget_exhaustion_returns_unproven_lower_bound():
    result = Ap3Engine().longest(40, SolveBudget(max_nodes=50))
    assert not result.proven
    assert result.value <= 15
    assert is_ap3_free(result.witness)
    assert len(result.witness) == result.value


def test_budget_exhaustion_min_span():
    result = Ap3Engine().min_span(12, SolveBudget(max_nodes=30))
    assert not result.proven
    assert result.witness == ()


def test_exhausted_engine_keeps_only_proven_levels():
    engine = Ap3Engine()
    engine.longest(40, SolveBudget(max_nodes=200))
    frontier = engine.frontier
    assert frontier < 40
    # the proven prefix must be exact regardless of where the budget hit
    reference = Ap3Engine()
    reference.longest(frontier)
    assert [engine.length(m) for m in range(1, frontier + 1)] == \
           [reference.length(m) for m in range(1, frontier + 1)]


def test_seed_resumes_ladder():
    source = Ap3Engine()
    source.longest(25)
    entries = {m: (value, witness) for m, value, witness in source.proven_levels()}
    resumed = Ap3Engine()
    assert resumed.seed(entries) == 25
    assert resumed.frontier == 25
    assert resumed.min_span(12).value == 30
    fresh = Ap3Engine()
    assert fresh.min_span(12).value == 30


def test_seed_rejects_inconsistent_entries():
    engine = Ap3Engine()
    with pytest.raises(ValueError, match="inconsistent"):
        engine.seed({1: (2, (1, 2))})
    engine2 = Ap3Engine()
    with pytest.raises(ValueError, match="does not fit"):
        engine2.seed({1: (1, (2,))})
    with pytest.raises(ValueError, match="progression"):
        Ap3Engine().seed({1: (1, (1,)), 2: (2, (1, 2)), 3: (3, (1, 2, 3))})


def test_seed_rejects_levels_contradicting_the_reference():
    # each level passes the step and witness tests, but L(5) is 4, not 3:
    # seeded, they gave L(5) = 3 and a(4) = 6 as proven
    wrong = {1: (1, (1,)), 2: (2, (1, 2)), 3: (2, (1, 2)), 4: (3, (1, 2, 4)),
             5: (3, (1, 2, 4))}
    with pytest.raises(ValueError, match="reference"):
        Ap3Engine().seed(wrong)
    assert Ap3Engine().longest(5).value == 4


def test_seed_ignores_entries_after_gap():
    source = Ap3Engine()
    source.longest(10)
    entries = {m: (v, w) for m, v, w in source.proven_levels() if m != 4}
    engine = Ap3Engine()
    assert engine.seed(entries) == 3
    assert engine.frontier == 3


def test_stats_are_populated():
    engine = Ap3Engine()
    result = engine.longest(30)
    assert result.stats.nodes > 0
    assert result.stats.prunes_by_bound > 0
