"""Exact simplex sanity checks, and the integer tableau against the Fraction one."""

import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from horofan import ratlp
from horofan.ratlp import maximize

from .oracles import fraction_maximize


def test_simple_bounded_problem():
    # max x + y, x + 2y <= 4, 3x + y <= 6
    res = maximize([Q(1), Q(1)], [[Q(1), Q(2)], [Q(3), Q(1)]], [Q(4), Q(6)])
    assert res.status == "optimal"
    assert res.value == Q(14, 5)
    x, y = res.solution
    assert x + 2 * y <= 4 and 3 * x + y <= 6
    assert x + y == res.value


def test_unbounded():
    res = maximize([Q(1)], [[Q(-1)]], [Q(1)])
    assert res.status == "unbounded"


def test_degenerate_terminates():
    # classic cycling-prone setup; Bland's rule must terminate
    res = maximize(
        [Q(10), Q(-57), Q(-9), Q(-24)],
        [
            [Q(1, 2), Q(-11, 2), Q(-5, 2), Q(9)],
            [Q(1, 2), Q(-3, 2), Q(-1, 2), Q(1)],
            [Q(1), Q(0), Q(0), Q(0)],
        ],
        [Q(0), Q(0), Q(1)],
    )
    assert res.status == "optimal"
    assert res.value == Q(1)


def test_zero_objective_feasible():
    res = maximize([Q(0), Q(0)], [[Q(1), Q(1)]], [Q(3)])
    assert res.status == "optimal"
    assert res.value == 0


def test_rejects_negative_rhs():
    with pytest.raises(ValueError):
        maximize([Q(1)], [[Q(1)]], [Q(-1)])


def test_exactness_with_awkward_fractions():
    res = maximize([Q(1, 3)], [[Q(2, 7)]], [Q(5, 11)])
    assert res.status == "optimal"
    assert res.value == Q(1, 3) * (Q(5, 11) / Q(2, 7))


def random_entry(rng, fractions):
    if fractions and rng.random() < 0.5:
        return Q(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randint(-3, 3)


def random_lp(rng):
    """A seeded LP in 1-5 variables with 1-6 rows; 40% of them with Fraction data,
    some rows with b = 0, and columns free to be unbounded."""
    n, m = rng.randint(1, 5), rng.randint(1, 6)
    fractions = rng.random() < 0.4
    c = [random_entry(rng, fractions) for _ in range(n)]
    a_ub = [[random_entry(rng, fractions) for _ in range(n)] for _ in range(m)]
    b_ub = [0 if rng.random() < 0.3 else abs(random_entry(rng, fractions)) for _ in range(m)]
    return c, a_ub, b_ub


def test_integer_tableau_matches_the_fraction_tableau():
    """Status, value and solution are exactly those of the Fraction simplex on 3000 seeded LPs."""
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(3000):
        c, a_ub, b_ub = random_lp(rng)
        result = maximize(c, a_ub, b_ub)
        assert result == fraction_maximize(c, a_ub, b_ub)
        seen[result.status] += 1
        seen["fractions"] += any(isinstance(x, Q) for row in [c, *a_ub, b_ub] for x in row)
        seen["degenerate"] += 0 in b_ub
        seen["fractional answer"] += result.status == "optimal" and any(x.denominator > 1 for x in result.solution)
    assert seen["optimal"] >= 1000 and seen["unbounded"] >= 500
    assert seen["fractions"] >= 1000 and seen["degenerate"] >= 1000 and seen["fractional answer"] >= 200


def test_integer_data_builds_only_the_result_fractions(monkeypatch):
    """Counts, not timers: on integer data the only Fractions made are the value and the n
    solution entries, however many pivots run; row scaling reads ints' own denominators."""
    made = []

    def counting(*args):
        made.append(args)
        return Q(*args)

    monkeypatch.setattr(ratlp, "Fraction", counting)
    rng = random.Random(5)
    pivoting = 0
    for _ in range(200):
        n, m = rng.randint(2, 5), rng.randint(2, 6)
        c = [rng.randint(-3, 3) for _ in range(n)]
        a_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b_ub = [rng.randint(0, 5) for _ in range(m)]
        del made[:]
        result = maximize(c, a_ub, b_ub)
        assert result == fraction_maximize(c, a_ub, b_ub)
        assert len(made) == (n + 1 if result.status == "optimal" else 0)
        pivoting += any(c_j > 0 for c_j in c)
    assert pivoting >= 150
