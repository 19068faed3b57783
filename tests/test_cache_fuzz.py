"""Arbitrary cache files through the CLI: a cache error, never a traceback or
an unproven value."""

import io

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
