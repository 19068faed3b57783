"""Complete graphs: the reduction to minimal-span 3-AP-free sets."""

import random

import pytest

from gracecolor.ap3 import Ap3Engine, is_ap3_free
from gracecolor.budget import BudgetExhausted, SolveBudget
from gracecolor.checking import GracefulColoring, verify_graceful
from gracecolor.complete import chi_g_complete
from gracecolor.graphs import complete
from gracecolor.solver import chi_g
from support import check_complete_equivalence


def test_chi_g_complete_reference_points():
    assert chi_g_complete(2) == GracefulColoring((1, 2), 2)
    assert chi_g_complete(6) == GracefulColoring((1, 2, 4, 5, 10, 11), 11)
    assert chi_g_complete(16).palette == 41


def test_chi_g_complete_result_invariants():
    engine = Ap3Engine()
    for n in range(2, 13):
        coloring = chi_g_complete(n, engine=engine)
        assert coloring.palette == max(coloring.colors)
        assert len(coloring.colors) == n
        assert list(coloring.colors) == sorted(coloring.colors)
        assert is_ap3_free(coloring.colors)
        assert verify_graceful(complete(n), coloring).valid


def test_chi_g_complete_agrees_with_generic_solver():
    engine = Ap3Engine()
    for n in range(2, 8):
        assert chi_g_complete(n, engine=engine).palette == chi_g(complete(n)).value


def test_chi_g_complete_at_least_n():
    engine = Ap3Engine()
    for n in range(2, 14):
        value = chi_g_complete(n, engine=engine).palette
        assert value >= n
        assert (value == n) == (n == 2)


def test_chi_g_complete_validates_and_budgets():
    with pytest.raises(ValueError):
        chi_g_complete(1)
    with pytest.raises(BudgetExhausted):
        chi_g_complete(12, SolveBudget(max_nodes=20))


def test_triangle_equivalence_examples():
    assert check_complete_equivalence((1, 2, 4)) == (True, True)
    assert check_complete_equivalence((2, 4, 6)) == (False, False)
    assert check_complete_equivalence((1, 3, 4)) == (True, True)


def test_complete_equivalence_examples():
    assert check_complete_equivalence((1, 2, 4, 5)) == (True, True)
    assert check_complete_equivalence((1, 2, 4, 5, 9)) == (False, False)  # 1, 5, 9
    assert check_complete_equivalence((1, 2, 4, 8, 9)) == (True, True)


def test_complete_equivalence_components_always_agree():
    rng = random.Random(140723)
    for _ in range(1000):
        size = rng.randint(3, 8)
        colors = tuple(sorted(rng.sample(range(1, 31), size)))
        graceful, ap3 = check_complete_equivalence(colors)
        assert graceful == ap3, colors


def test_triangle_equivalence_exhaustive_small_triples():
    import itertools

    for triple in itertools.combinations(range(1, 13), 3):
        graceful, ap3 = check_complete_equivalence(triple)
        assert graceful == ap3, triple
