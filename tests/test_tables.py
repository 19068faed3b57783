"""Reference table consistency, cache persistence, and the reproduction report."""

import os
import random
import stat

import pytest

from gracecolor import ap3
from gracecolor.ap3 import Ap3Engine, check_level, is_ap3_free
from gracecolor.budget import SolveBudget
from gracecolor.tables import (
    CHI_G_COMPLETE_REFERENCE,
    FormatError,
    ValueCache,
    load_cache,
    render_table,
    store_cache,
    table_report,
)


def test_reference_table_internal_consistency():
    """Witness fixtures must be progression-free n-sets spanning [1..value]."""
    assert sorted(CHI_G_COMPLETE_REFERENCE) == list(range(2, 33))
    for n, (value, witness) in CHI_G_COMPLETE_REFERENCE.items():
        assert len(witness) == n
        assert len(set(witness)) == n
        assert witness[0] == 1
        assert witness[-1] == value
        assert is_ap3_free(witness)


def test_cache_is_the_map_of_proven_levels():
    engine = Ap3Engine()
    engine.longest(9)
    cache = ValueCache()
    cache.absorb_engine(engine)
    assert cache.levels[5] == (4, (1, 2, 4, 5))
    assert cache.levels[9] == (5, (1, 2, 4, 8, 9))
    assert sorted(cache.levels) == list(range(1, 10))
    assert cache == ValueCache(dict(reversed(cache.levels.items())))
    assert cache != ValueCache()


def test_cache_validates_entries():
    with pytest.raises(ValueError, match="size"):
        check_level(5, 9, (1, 2, 4, 5))
    with pytest.raises(ValueError, match="progression"):
        check_level(6, 3, (2, 4, 6))
    with pytest.raises(ValueError, match="fit"):
        check_level(4, 3, (1, 2, 5))
    with pytest.raises(ValueError, match="increasing"):
        check_level(5, 2, (5, 2))
    with pytest.raises(ValueError, match="inconsistent"):
        check_level(5, 4, (1, 2, 4, 5), prev=2)
    with pytest.raises(ValueError, match="^L 5 3 contradicts the reference table"):
        check_level(5, 3, (1, 2, 4))
    check_level(5, 4, (1, 2, 4, 5), prev=3)
    check_level(5, 4, (1, 2, 4, 5), prev=4)


def test_level_check_tests_size_and_range_before_progressions(tmp_path, monkeypatch):
    calls = []
    real = ap3.is_ap3_free
    monkeypatch.setattr(ap3, "is_ap3_free", lambda w: calls.append(w) or real(w))
    path = tmp_path / "cache.txt"
    for text, match in (("L 5 3 1,2,4,5\n", "size"), ("L 5 4 1,2,4,6\n", "fit"),
                        ("L 5 4 0,1,3,4\n", "fit")):
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            load_cache(str(path))
    assert calls == []


def test_cache_rejects_values_contradicting_the_reference(tmp_path):
    path = tmp_path / "cache.txt"
    w31, w32 = (",".join(map(str, CHI_G_COMPLETE_REFERENCE[n][1])) for n in (31, 32))
    for text in ("L 5 3 1,2,4\n",  # L(5) = 4
                 f"L 122 31 {w31}\n"):
        path.write_text(text)
        with pytest.raises(FormatError, match="reference"):
            load_cache(str(path))
    # beyond the table nothing is known, so only the witness is checked
    path.write_text(f"L 1 1 1\nL 123 32 {w32}\n")
    assert sorted(load_cache(str(path)).levels) == [1, 123]


def test_load_names_the_line_contradicting_the_reference(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("L 4 3 1,2,4\n# note\nL 5 3 1,2,4\n")
    with pytest.raises(FormatError, match="line 3"):
        load_cache(str(path))
    # only LF, CRLF and CR end a line
    path.write_bytes("L 4 3 1,2,4\x85\r\nL 6 4 1,2,5,6\u2028\rL 5 3 1,2,4\n".encode())
    with pytest.raises(FormatError, match="^line 3: L 5 3 contradicts"):
        load_cache(str(path))


def test_load_empty_file(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("")
    assert load_cache(str(path)) == ValueCache()


def test_load_single_record(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("L 5 4 1,2,4,5\n")
    assert load_cache(str(path)).levels == {5: (4, (1, 2, 4, 5))}


def test_load_rejects_witness_size_mismatch(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("L 5 9 1,2,4,5\n")
    with pytest.raises(FormatError, match="line 1"):
        load_cache(str(path))


def test_load_rejects_malformed_lines(tmp_path):
    cases = [
        ("L 5 4\n", "4 fields"),
        ("L five 4 1,2,4,5\n", "integer"),
        ("B 5 4 1,2,4,5\n", "kind"),
        ("L 5 4 1,2,4,5\nL 5 4 1,2,4,5\n", "duplicate"),
        ("# ok\nL 5 2 5,2\n", "increasing"),
    ]
    for text, match in cases:
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            load_cache(str(path))
    # an integer is ASCII digits after an optional '-'; int() takes more
    for text, token in (("L 1 1 1\nL 2 2 +1,2\n", "+1"), ("L 0_1 1 1\n", "0_1"),
                        ("L 4 3 1,2,4\nL 3 2 1,\u0663\n", "\u0663"),
                        ("L 2 2 1,2\nL +3 2 1,2\n", "+3"),  # the witness above it
                        ("L 5 4 \uff11,2,4,5\n", "\uff11")):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_cache(str(path))
        line = text.count("\n")
        assert str(info.value) == f"line {line}: expected an integer, got {token!r}"
    path.write_text("L 5 04 01,2,4,05\n")
    assert load_cache(str(path)).levels == {5: (4, (1, 2, 4, 5))}


def test_load_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text("# proven values\n\nL 5 4 1,2,4,5\n")
    assert load_cache(str(path)).levels == {5: (4, (1, 2, 4, 5))}


def test_load_rejects_span_records_naming_their_line(tmp_path):
    # "A n a(n) witness" is not a record kind: a(n) is read off the L records
    path = tmp_path / "cache.txt"
    for text, match in (("# proven values\n\nA 4 5 1,2,4,5\nL 5 4 1,2,4,5\n",
                         "line 3: unknown kind 'A'"),
                        ("L 2 2 1,2\nA 4 5 1,2,4,5\n", "line 2: unknown kind 'A'"),
                        ("L 2 2 1,2\nA 4 5\n", "line 2: expected 4 fields"),
                        ("A 4 five 1,2,4,5\n", "line 1: expected an integer, got 'five'")):
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            load_cache(str(path))


def test_load_names_the_line_of_a_step_fault_in_any_order(tmp_path):
    path = tmp_path / "cache.txt"
    for text, line in (("L 4 3 1,2,4\nL 5 2 1,2\n", "line 2"),
                       ("L 5 2 1,2\nL 4 3 1,2,4\n", "line 1")):
        path.write_text(text)
        with pytest.raises(FormatError, match=f"{line}: L\\(5\\)=2 inconsistent"):
            load_cache(str(path))


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
    cache = ValueCache({5: (4, (1, 2, 4, 5)), 2: (2, (1, 2))})
    path = tmp_path / "cache.txt"
    store_cache(cache, str(path))
    assert path.read_text() == "L 2 2 1,2\nL 5 4 1,2,4,5\n"


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o604], ids=oct)
def test_store_keeps_the_mode_of_the_file_it_replaces(tmp_path, mode):
    path = tmp_path / "cache.txt"
    path.write_text("")
    path.chmod(mode)
    store_cache(ValueCache({1: (1, (1,))}), str(path))
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_text() == "L 1 1 1\n"


def test_store_replaces_a_file_of_identical_bytes(tmp_path):
    # whether to write is the ladder call's decision (ValueCache.is_stored);
    # store_cache always replaces the file, and the new one keeps its mode
    path = tmp_path / "cache.txt"
    cache = ValueCache({1: (1, (1,)), 2: (2, (1, 2))})
    store_cache(cache, str(path))
    path.chmod(0o640)
    inode = path.stat().st_ino
    store_cache(cache, str(path))
    assert path.read_bytes() == b"L 1 1 1\nL 2 2 1,2\n"
    assert path.stat().st_ino != inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["cache.txt"]


@pytest.mark.parametrize("text", ["L 1 1 1\r\nL 2 2 1,2\r\n",
                                  "L 1 1 1\nA 2 2 1,2\nL 2 2 1,2\n",
                                  "L 1 1 1\n",
                                  "L 1 1 1\nL 2 2 2,1\n"],
                         ids=["crlf", "span-record", "grown", "same-size"])
def test_store_replaces_a_file_whose_bytes_differ(tmp_path, text):
    path = tmp_path / "cache.txt"
    path.write_bytes(text.encode())
    inode = path.stat().st_ino
    store_cache(ValueCache({1: (1, (1,)), 2: (2, (1, 2))}), str(path))
    assert path.read_bytes() == b"L 1 1 1\nL 2 2 1,2\n"
    assert path.stat().st_ino != inode


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_store_gives_a_new_file_the_mode_open_would(tmp_path, umask):
    old = os.umask(umask)
    try:
        (tmp_path / "opened.txt").open("w").close()
        store_cache(ValueCache(), str(tmp_path / "cache.txt"))
    finally:
        os.umask(old)
    assert (tmp_path / "cache.txt").stat().st_mode == (tmp_path / "opened.txt").stat().st_mode


def test_a_failed_replace_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.txt"
    path.write_bytes(b"L 1 1 1\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        store_cache(ValueCache({1: (1, (1,)), 2: (2, (1, 2))}), str(path))
    assert path.read_bytes() == b"L 1 1 1\n"
    assert sorted(os.listdir(tmp_path)) == ["cache.txt"]


def test_seeding_an_inconsistent_level_is_a_format_error():
    with pytest.raises(FormatError) as caught:
        ValueCache({1: (2, (1, 2))}).seed_engine(Ap3Engine())
    assert str(caught.value).startswith("inconsistent L records")
    # no level of a cache that load_cache did not read is taken on trust
    with pytest.raises(FormatError, match="^inconsistent L records: .*progression"):
        ValueCache({1: (1, (1,)), 2: (2, (1, 2)), 3: (3, (1, 2, 3))}).seed_engine(Ap3Engine())


@pytest.mark.parametrize("text, stored", [
    ("L 1 1 1\nL 2 2 1,2\n", True),
    ("", False),
    ("L 1 1 1\r\nL 2 2 1,2\r\n", False),
    ("L 1 1 1\nL 2 2 1,2", False),
    ("L 1 1 1 \nL 2 2 1,2", False),
    ("L 1 1 1\rL 2 2 1,2\n", False),
    ("L 2 2 1,2\nL 1 1 1\n", False),
    ("L 1 1 1\n\nL 2 2 1,2\n", False),
    ("L 1 1 1\n# c\nL 2 2 1,2\n", False),
    ("L 1 1 1\nL 2 2 1,2 \n", False),
    ("L 1 1 1\nL 2 2 1,02\n", False),
    ("L 1 1 01\nL 2 2 1,2\n", False),
], ids=["stored", "empty", "crlf", "no-final-lf", "space-for-final-lf", "cr-then-lf",
        "unsorted", "blank", "comment", "trailing-space", "leading-zero-witness",
        "leading-zero-first"])
def test_a_loaded_cache_knows_whether_its_file_is_in_the_stored_form(tmp_path, text, stored):
    path = tmp_path / "cache.txt"
    path.write_bytes(text.encode())
    cache = load_cache(str(path))
    assert cache.is_stored() == stored
    assert not ValueCache(dict(cache.levels)).is_stored()
    engine = Ap3Engine()
    cache.seed_engine(engine)
    cache.absorb_engine(engine)
    assert cache.is_stored() == stored  # no level proven past those loaded
    engine.longest(3)
    cache.absorb_engine(engine)
    assert not cache.is_stored()


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


@pytest.mark.parametrize("cap, proven", [(1, 0), (2, 1), (30, 7), (200, 8),
                                         (687, 10), (2000, 11)])
def test_table_report_budget_midway_never_wrong(cap, proven):
    # the climb to a(12) = 30 takes 688 nodes; 30 and 200 stop it in the
    # searches of m = 17 and m = 22, and 687 at the certified level m = 30
    rows = table_report(12, SolveBudget(max_nodes=cap))
    for row in rows:
        if row.status == "ok":
            assert row.computed == CHI_G_COMPLETE_REFERENCE[row.n][0]
        else:
            assert row.status == "unproven"
            assert row.computed is None
    # the proven rows are a prefix: n = 2..proven+1
    assert [row.status for row in rows] == ["ok"] * proven + ["unproven"] * (11 - proven)


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
