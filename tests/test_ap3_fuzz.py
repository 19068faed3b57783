"""is_ap3_free against the triple scan on random sets: zero and negative
members, dense sets that the masks decide and sparse ones that the pairs do,
sets with a progression planted in them, and inputs out of order."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gracecolor.ap3 import _MASK_SPAN_PER_ELEMENT, is_ap3_free  # noqa: E402
from support import contains_progression  # noqa: E402

_members = st.lists(st.integers(-40, 160), max_size=24)
# x -> scale * x + shift keeps every progression and makes no new one; a
# scale of 10**9 spreads any set of two or more of the at most 27 members
# past the masks' span, so the pairs decide it
_scale = st.sampled_from([1, 2, 3, 10 ** 9])
assert 10 ** 9 > _MASK_SPAN_PER_ELEMENT * 27


@st.composite
def _sets(draw):
    members = set(draw(_members))
    if draw(st.booleans()):
        a, d = draw(st.integers(-40, 160)), draw(st.integers(1, 80))
        members |= {a, a + d, a + 2 * d}
    scale, shift = draw(_scale), draw(st.integers(-10 ** 6, 10 ** 6))
    return tuple(sorted(scale * x + shift for x in members))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(xs=_sets())
def test_is_ap3_free_matches_the_triple_scan(xs):
    assert is_ap3_free(xs) == (not contains_progression(xs))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(xs=st.lists(st.integers(-6, 6), min_size=2, max_size=10))
def test_an_input_out_of_order_raises_before_any_verdict(xs):
    if all(a < b for a, b in zip(xs, xs[1:])):
        assert is_ap3_free(xs) == (not contains_progression(xs))
    else:
        with pytest.raises(ValueError, match="strictly increasing"):
            is_ap3_free(xs)
