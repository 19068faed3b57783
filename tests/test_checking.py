"""Verifier behavior: examples, violation reporting, and oracle equivalence."""

import itertools
import random

import pytest

from gracecolor.checking import (
    ADJACENT_EQUAL,
    COLOR_OUT_OF_RANGE,
    DUPLICATE_INCIDENT_DIFFERENCE,
    FormatError,
    GracefulColoring,
    Violation,
    parse_coloring,
    verify_graceful,
)
from gracecolor.graphs import complete, cycle, path, star
from support import all_graphs, graceful_valid_oracle, random_connected_graph


def coloring(*colors, palette=None):
    return GracefulColoring(tuple(colors), palette or max(max(colors), 2))


def test_verify_k3_valid():
    assert verify_graceful(complete(3), coloring(1, 2, 4)).valid


def test_verify_k3_progression_colors_rejected():
    report = verify_graceful(complete(3), coloring(1, 2, 3))
    assert not report.valid
    assert report.violation.kind == DUPLICATE_INCIDENT_DIFFERENCE
    assert report.violation.vertices == (1, 0, 2)  # |2-1| = |2-3| at vertex 1


def test_verify_p4_published_coloring():
    assert verify_graceful(path(4), coloring(2, 3, 1, 2)).valid


def test_verify_alternating_cycle_coloring():
    report = verify_graceful(cycle(4), coloring(1, 2, 1, 2))
    assert not report.valid
    assert report.violation.kind == DUPLICATE_INCIDENT_DIFFERENCE
    assert report.violation.vertices[0] == 0  # both incident edges get color 1


def test_verify_adjacent_equal_wins_over_zero_difference():
    report = verify_graceful(path(3), coloring(2, 2, 3))
    assert not report.valid
    assert report.violation.kind == ADJACENT_EQUAL
    assert report.violation.vertices == (0, 1)


def test_verify_out_of_range():
    report = verify_graceful(path(3), coloring(1, 2, 9, palette=3))
    assert not report.valid
    assert report.violation.kind == COLOR_OUT_OF_RANGE
    assert report.violation.vertices == (2,)


def test_verify_first_violation_is_deterministic():
    g = cycle(4)
    bad = coloring(1, 2, 1, 2)
    reports = {verify_graceful(g, bad).violation for _ in range(5)}
    assert len(reports) == 1


def test_verify_reports_the_first_clashing_pair_in_lexicographic_order():
    # the edge colors at hub 0 run 1, 2, 2, 1 over its neighbours 1 < 2 < 3 < 4:
    # pair (1, 4) clashes before pair (2, 3), though 3 is the first repeat met
    report = verify_graceful(star(5), coloring(5, 4, 3, 7, 6))
    assert report.violation == Violation(DUPLICATE_INCIDENT_DIFFERENCE, (0, 1, 4))


def test_coloring_type_invariants():
    with pytest.raises(ValueError):
        GracefulColoring((1, 2), 1)  # palette too small
    with pytest.raises(ValueError):
        GracefulColoring((0, 2), 3)  # colors are 1-indexed
    with pytest.raises(ValueError):
        GracefulColoring((), 2)


def test_parse_coloring_formats():
    c = parse_coloring("2 3 1 2\n")
    assert c.colors == (2, 3, 1, 2)
    assert c.palette == 3
    assert parse_coloring("1 1").palette == 2  # palette floor
    assert parse_coloring("1 2 4", palette=9).palette == 9
    assert parse_coloring("# a path\n2 3\n\n1\r\n2\n").colors == (2, 3, 1, 2)
    assert parse_coloring("1\u20282\x1c3").colors == (1, 2, 3)
    for bad in ("", "1 x 3", "0 1", "-2 4"):
        with pytest.raises(FormatError):
            parse_coloring(bad)
    assert parse_coloring("05 1").colors == (5, 1)
    for bad, message in (("1 2\n3 x 4\n", "line 2: expected an integer, got 'x'"),
                         ("1\n+1\n", "line 2: expected an integer, got '+1'"),
                         ("1 0_1\n", "line 1: expected an integer, got '0_1'"),
                         ("1\n\n2 \u0663\n", "line 3: expected an integer, got '\u0663'"),
                         ("\uff11\n", "line 1: expected an integer, got '\uff11'"),
                         ("0 1", "line 1: colors must be positive, got 0"),
                         ("# c\n\n2 -2 4\n", "line 3: colors must be positive, got -2"),
                         ("1 2\u2028\n3\r0\n", "line 3: colors must be positive, got 0"),
                         ("\n# no color\n", "empty coloring document")):
        with pytest.raises(FormatError) as info:
            parse_coloring(bad)
        assert str(info.value) == message


def test_reflection_preserves_validity():
    rng = random.Random(4242)
    for _ in range(300):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n)
        palette = rng.randint(2, 9)
        c = GracefulColoring(tuple(rng.randint(1, palette) for _ in range(n)), palette)
        mirrored = GracefulColoring(tuple(palette + 1 - x for x in c.colors), palette)
        assert verify_graceful(g, c).valid == verify_graceful(g, mirrored).valid


def test_accepted_colorings_have_edge_colors_in_range():
    rng = random.Random(31337)
    found = 0
    while found < 50:
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n)
        palette = rng.randint(3, 9)
        c = GracefulColoring(tuple(rng.randint(1, palette) for _ in range(n)), palette)
        if not verify_graceful(g, c).valid:
            continue
        found += 1
        values = [abs(c.colors[u] - c.colors[v]) for u, v in g.edges]
        if values:
            assert 1 <= min(values) and max(values) <= palette - 1


def test_oracle_equivalence_exhaustive_small():
    """Every labeled graph on up to 4 vertices, every coloring with palette 6."""
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            for colors in itertools.product(range(1, 7), repeat=n):
                c = GracefulColoring(colors, 6)
                assert verify_graceful(g, c).valid == graceful_valid_oracle(g, colors, 6)


def test_oracle_equivalence_sampled_5_and_6():
    rng = random.Random(777)
    for _ in range(4000):
        n = rng.choice((5, 6))
        g = random_connected_graph(rng, n)
        palette = rng.randint(2, 6)
        colors = tuple(rng.randint(1, palette + 1) for _ in range(n))  # may overflow palette
        c = GracefulColoring(colors, palette)
        assert verify_graceful(g, c).valid == graceful_valid_oracle(g, colors, palette)


def test_oracle_equivalence_named_graphs_all_colorings():
    """Named instances on up to 5 vertices, exhaustive over palette-5 colorings."""
    for g in (path(4), path(5), cycle(4), cycle(5), complete(4), complete(3)):
        for colors in itertools.product(range(1, 6), repeat=g.n):
            c = GracefulColoring(colors, 5)
            assert verify_graceful(g, c).valid == graceful_valid_oracle(g, colors, 5)
