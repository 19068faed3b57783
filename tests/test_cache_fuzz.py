"""Arbitrary cache files through the CLI: a cache error, never a traceback or
an unproven value; and valid ones, in any form, left in the stored form."""

import io
import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gracecolor.ap3 import Ap3Engine  # noqa: E402
from gracecolor.cli import run  # noqa: E402
from support import contains_progression, longest_by_enumeration  # noqa: E402

_ENGINE = Ap3Engine()
_ENGINE.longest(16)
LEVELS = list(_ENGINE.proven_levels())  # (m, L(m), witness) for m = 1..16
L12 = longest_by_enumeration(12)[0]


def _csv(values):
    return ",".join(map(str, values))


def _level(level):
    m, value, witness = level
    return ["L", str(m), str(value), _csv(witness)]


def _span(level):
    # the a(n) record that caches once held for the size first reached at m,
    # now an unknown kind
    m, value, witness = level
    return ["A", str(value), str(m), _csv(witness)]


_token = st.one_of(st.integers(-3, 130).map(str),
                   st.lists(st.integers(-2, 20), max_size=8).map(_csv),
                   st.sampled_from(["", "x", "1,,2", "L", "A", "B", "1.5",
                                    "+1", "0_1", "\u0663", "\uff11"]))


@st.composite
def _mutated(draw):
    level = draw(st.sampled_from(LEVELS))
    fields = draw(st.sampled_from([_level, _span]))(level)
    action = draw(st.sampled_from(["keep", "replace", "drop", "append", "kind"]))
    if action == "replace":
        fields[draw(st.integers(0, 3))] = draw(_token)
    elif action == "drop":
        del fields[draw(st.integers(0, 3))]
    elif action == "append":
        fields.append(draw(_token))
    elif action == "kind":
        fields[0] = draw(st.sampled_from(["B", "a", "l", "LL", "#"]))
    return " ".join(fields)


_line = st.one_of(
    st.sampled_from(LEVELS).map(lambda level: " ".join(_level(level))),
    st.sampled_from(LEVELS).map(lambda level: " ".join(_span(level))),
    _mutated(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "cache.txt")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(lines=st.lists(_line, max_size=20))
def test_any_cache_file_is_used_or_rejected(cache_path, lines):
    with open(cache_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines))
    out, err = io.StringIO(), io.StringIO()
    code = run(["ap3", "longest", "12", "--cache", cache_path, "--max-nodes", "100000"],
               out, err)
    assert code in (0, 4), err.getvalue()
    if code == 4:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    else:  # the true L(12), with a witness the oracle accepts
        value, witness = out.getvalue().splitlines()
        assert value == f"L(12) = {L12}"
        witness = [int(x) for x in witness.removeprefix("witness: ").split(",")]
        assert len(witness) == L12 and not contains_progression(witness)
        assert witness == sorted(set(witness)) and 1 <= witness[0] <= witness[-1] <= 12


_UNCACHED: dict[int, tuple[int, str, str]] = {}  # m -> the call without --cache


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    return run(argv, out, err), out.getvalue(), err.getvalue()


_FORMS = ("stored", "crlf", "cr", "mixed ends", "no final lf", "unsorted", "spaces",
          "leading zero", "comment", "blank line")


@st.composite
def _ladder_file(draw):
    """(text, levels held) for a valid ladder of LEVELS, in the stored form or
    in one of its departures from it."""
    if draw(st.booleans()):  # levels 1..k, as a cache is stored
        held = set(range(1, draw(st.integers(0, len(LEVELS))) + 1))
    else:
        held = draw(st.sets(st.integers(1, len(LEVELS))))
    lines = [" ".join(_level(LEVELS[m - 1])) for m in sorted(held)]
    ends = ["\n"] * len(lines)
    form = draw(st.sampled_from(_FORMS))
    if form in ("comment", "blank line"):
        lines.insert(draw(st.integers(0, len(lines))),
                     "# note" if form == "comment" else draw(st.sampled_from(["", "   "])))
        ends.append("\n")
    elif lines:
        i = draw(st.integers(0, len(lines) - 1))
        if form in ("crlf", "cr"):
            ends = ["\r\n" if form == "crlf" else "\r"] * len(lines)
        elif form == "mixed ends":
            ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        elif form == "no final lf":
            ends[-1] = ""
        elif form == "unsorted":
            lines = draw(st.permutations(lines))
        elif form == "spaces":
            lines[i] = draw(st.sampled_from(["", " ", "\t"])) + lines[i] + \
                draw(st.sampled_from([" ", "  "]))
        elif form == "leading zero":
            fields = lines[i].split(" ")
            j = draw(st.integers(1, 3))
            tokens = fields[j].split(",")
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = "0" + tokens[k]
            fields[j] = ",".join(tokens)
            lines[i] = " ".join(fields)
    return "".join(map(str.__add__, lines, ends)), held


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(drawn=_ladder_file(), m=st.integers(1, len(LEVELS)))
def test_a_cached_call_leaves_the_stored_form(cache_path, drawn, m):
    # the cache ends as the stored form of its levels and those the call
    # proved, and is replaced exactly when its bytes were not that already
    text, held = drawn
    expected = "".join(" ".join(_level(LEVELS[k - 1])) + "\n"
                       for k in sorted(held | set(range(1, m + 1)))).encode()
    with open(cache_path, "wb") as handle:
        handle.write(text.encode())
    inode = os.stat(cache_path).st_ino
    argv = ["ap3", "longest", str(m)]
    if m not in _UNCACHED:
        _UNCACHED[m] = _invoke(argv)
    assert _invoke(argv + ["--cache", cache_path]) == _UNCACHED[m]
    with open(cache_path, "rb") as handle:
        assert handle.read() == expected
    assert (os.stat(cache_path).st_ino != inode) == (text.encode() != expected)
