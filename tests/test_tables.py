"""Reference table consistency, cache persistence, and the reproduction report."""

import random

import pytest

from gracecolor.ap3 import Ap3Engine, is_ap3_free
from gracecolor.budget import SolveBudget
from gracecolor.tables import (
    CHI_G_COMPLETE_REFERENCE,
    KIND_LONGEST,
    KIND_SPAN,
    CacheFormatError,
    KnownValue,
    ValueCache,
    known_chi_g_complete,
    load_cache,
    render_table,
    store_cache,
    table_report,
)


def test_reference_lookup():
    assert known_chi_g_complete(10) == 24
    assert known_chi_g_complete(23) == 82
    assert known_chi_g_complete(33) is None
    assert known_chi_g_complete(1) is None


def test_reference_table_internal_consistency():
    """Witness fixtures must be progression-free n-sets spanning [1..value]."""
    assert sorted(CHI_G_COMPLETE_REFERENCE) == list(range(2, 33))
    for n, (value, witness) in CHI_G_COMPLETE_REFERENCE.items():
        assert len(witness) == n
        assert len(set(witness)) == n
        assert witness[0] == 1
        assert witness[-1] == value
        assert is_ap3_free(witness)


def test_cache_put_get_and_entries_sorted():
    cache = ValueCache()
    cache.put(KnownValue(KIND_LONGEST, 5, 4, (1, 2, 4, 5)))
    cache.put(KnownValue(KIND_SPAN, 4, 5, (1, 2, 4, 5)))
    cache.put(KnownValue(KIND_LONGEST, 2, 2, (1, 2)))
    assert cache.get(KIND_LONGEST, 5).value == 4
    assert cache.get(KIND_LONGEST, 9) is None
    kinds_and_indexes = [(e.kind, e.index) for e in cache.entries()]
    assert kinds_and_indexes == [("A", 4), ("L", 2), ("L", 5)]


def test_cache_validates_entries():
    cache = ValueCache()
    with pytest.raises(ValueError, match="size"):
        cache.put(KnownValue(KIND_LONGEST, 5, 9, (1, 2, 4, 5)))
    with pytest.raises(ValueError, match="progression"):
        cache.put(KnownValue(KIND_LONGEST, 6, 3, (2, 4, 6)))
    with pytest.raises(ValueError, match="within"):
        cache.put(KnownValue(KIND_LONGEST, 4, 3, (1, 2, 5)))
    with pytest.raises(ValueError, match="span"):
        cache.put(KnownValue(KIND_SPAN, 3, 5, (1, 2, 4)))
    with pytest.raises(ValueError, match="kind"):
        cache.put(KnownValue("X", 4, 3, (1, 2, 4)))


def test_cache_rejects_values_contradicting_the_reference():
    cache = ValueCache()
    with pytest.raises(ValueError, match="reference"):
        cache.put(KnownValue(KIND_LONGEST, 5, 3, (1, 2, 4)))  # L(5) = 4
    with pytest.raises(ValueError, match="reference"):
        cache.put(KnownValue(KIND_LONGEST, 122, 31, CHI_G_COMPLETE_REFERENCE[31][1]))
    with pytest.raises(ValueError, match="reference"):
        cache.put(KnownValue(KIND_SPAN, 5, 10, (1, 2, 4, 8, 10)))  # a(5) = 9
    cache.put(KnownValue(KIND_LONGEST, 1, 1, (1,)))
    cache.put(KnownValue(KIND_SPAN, 1, 1, (1,)))
    # beyond the table nothing is known, so only the witness is checked
    cache.put(KnownValue(KIND_LONGEST, 123, 32, CHI_G_COMPLETE_REFERENCE[32][1]))
    assert len(cache) == 3


def test_load_names_the_line_contradicting_the_reference(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("A 4 5 1,2,4,5\n# note\nA 5 10 1,2,4,8,10\n")
    with pytest.raises(CacheFormatError, match="line 3"):
        load_cache(str(path))


def test_load_empty_file(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("")
    assert len(load_cache(str(path))) == 0


def test_load_single_record(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("L 5 4 1,2,4,5\n")
    cache = load_cache(str(path))
    entry = cache.get(KIND_LONGEST, 5)
    assert entry.value == 4
    assert entry.witness == (1, 2, 4, 5)


def test_load_rejects_witness_size_mismatch(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("L 5 9 1,2,4,5\n")
    with pytest.raises(CacheFormatError, match="line 1"):
        load_cache(str(path))


def test_load_rejects_malformed_lines(tmp_path):
    cases = [
        ("L 5 4\n", "4 fields"),
        ("L five 4 1,2,4,5\n", "integer"),
        ("B 5 4 1,2,4,5\n", "kind"),
        ("L 5 4 1,2,4,5\nL 5 4 1,2,4,5\n", "duplicate"),
        ("# ok\nL 5 4 5,2\n", "increasing"),
    ]
    for text, match in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(CacheFormatError, match=match):
            load_cache(str(path))


def test_load_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("# proven values\n\nA 4 5 1,2,4,5\nL 5 4 1,2,4,5\n")
    assert len(load_cache(str(path))) == 2


def test_round_trip_randomized(tmp_path):
    rng = random.Random(11235)
    engine = Ap3Engine()
    engine.longest(rng.randint(15, 35))
    cache = ValueCache()
    cache.absorb_engine(engine)
    path = tmp_path / "cache.txt"
    store_cache(cache, str(path))
    assert load_cache(str(path)) == cache
    # byte-level determinism of the stored form
    first = path.read_bytes()
    store_cache(load_cache(str(path)), str(path))
    assert path.read_bytes() == first
    assert b"\r" not in first


def test_store_is_sorted_and_lf(tmp_path):
    cache = ValueCache()
    cache.put(KnownValue(KIND_LONGEST, 5, 4, (1, 2, 4, 5)))
    cache.put(KnownValue(KIND_SPAN, 2, 2, (1, 2)))
    cache.put(KnownValue(KIND_LONGEST, 2, 2, (1, 2)))
    path = tmp_path / "cache.txt"
    store_cache(cache, str(path))
    assert path.read_text() == "A 2 2 1,2\nL 2 2 1,2\nL 5 4 1,2,4,5\n"


def test_seed_engine_round_trip(tmp_path):
    engine = Ap3Engine()
    engine.longest(20)
    cache = ValueCache()
    cache.absorb_engine(engine)
    path = tmp_path / "cache.txt"
    store_cache(cache, str(path))

    seeded = Ap3Engine()
    load_cache(str(path)).seed_engine(seeded)
    assert seeded.frontier == 20
    assert [seeded.length(m) for m in range(1, 21)] == \
           [engine.length(m) for m in range(1, 21)]


def test_table_report_matches_reference_prefix():
    rows = table_report(8)
    assert [(r.n, r.computed, r.status) for r in rows] == [
        (2, 2, "ok"), (3, 4, "ok"), (4, 5, "ok"), (5, 9, "ok"),
        (6, 11, "ok"), (7, 13, "ok"), (8, 14, "ok"),
    ]


def test_table_report_unproven_rows_on_tiny_budget():
    rows = table_report(6, SolveBudget(max_nodes=1))
    assert all(row.status == "unproven" for row in rows)
    assert all(row.computed is None for row in rows)


def test_table_report_budget_midway_never_wrong():
    rows = table_report(12, SolveBudget(max_nodes=1000))
    for row in rows:
        if row.status == "ok":
            assert row.computed == known_chi_g_complete(row.n)
        else:
            assert row.status == "unproven"
            assert row.computed is None
    assert rows[0].status == "ok"
    assert rows[-1].status == "unproven"


def test_render_table_text_and_records():
    rows = table_report(4)
    text = render_table(rows)
    assert "witness" in text.splitlines()[0]
    assert "1,2,4,5" in text
    records = render_table(rows, records=True)
    assert records == "2 2 ok\n3 4 ok\n4 5 ok\n"


def test_render_marks_mismatch():
    from gracecolor.tables import STATUS_MISMATCH, TableRow

    rows = [TableRow(2, 3, 2, (1, 3), STATUS_MISMATCH)]
    assert "MISMATCH" in render_table(rows)
