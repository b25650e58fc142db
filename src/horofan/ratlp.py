"""Exact linear programming, just enough for strict-feasibility checks.

A small dense simplex with Bland's rule, so it terminates and never sees a
rounding error.  Problems are given in the form

    maximize c.x   subject to  A x <= b,  x >= 0,  b >= 0,

which is all the projectivity test needs (free variables are split by the
caller).  With b >= 0 the slack basis is feasible and no phase-1 is required.
Entries are ints or `fractions.Fraction`s.

The tableau is kept in integers by fraction-free pivoting (J. Edmonds,
"Systems of distinct representatives and linear algebra", J. Res. NBS 71B,
1967; E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968).  Each row of [A | b] is first
scaled by the lcm of its denominators, and c by the lcm of its own; a
positive row scale only rescales that row's slack variable, so the feasible
x, the signs of the reduced costs and every ratio of the ratio test are
unchanged.  The integer tableau T is then d times the rational tableau, d
the last pivot (1 at the start): pivoting on p = T[r][e] keeps row r and
turns every other row into (p*T_i - T_i[e]*T_r) // d, a division that is
exact because each entry is a minor of the scaled input.  Since p > 0 and
d > 0, Bland's rule reads the same signs off T, and it compares ratios
T_i[b] / T_i[e] by cross-multiplying, so it picks the rational simplex's
pivots one for one.  Only the answer is a Fraction: x_j = T_i[b] / d for
the row i where x_j is basic, and the value is T_obj[b] / (d * c's scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Optional, Sequence


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" or "unbounded"
    value: Optional[Fraction]
    solution: Optional[tuple[Fraction, ...]]


def _integer_row(row: Sequence[Rational]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def maximize(
    c: Sequence[Rational],
    a_ub: Sequence[Sequence[Rational]],
    b_ub: Sequence[Rational],
    cancelled=None,
) -> LpResult:
    n = len(c)
    m = len(a_ub)
    if any(len(row) != n for row in a_ub) or len(b_ub) != m:
        raise ValueError("inconsistent LP dimensions")
    if any(b < 0 for b in b_ub):
        raise ValueError("this solver requires b >= 0 (slack basis start)")

    # tableau rows: [A | I | b]; objective row: [-c | 0 | 0], all scaled to integers
    width = n + m + 1
    tab = []
    for i, row in enumerate(a_ub):
        scaled, _ = _integer_row([*row, b_ub[i]])
        tab.append(scaled[:n] + [int(i == j) for j in range(m)] + scaled[n:])
    cost, c_scale = _integer_row(c)
    obj = [-x for x in cost] + [0] * (m + 1)
    basis = [n + i for i in range(m)]
    d = 1

    while True:
        if cancelled is not None and cancelled():
            raise InterruptedError("LP cancelled")
        # Bland: entering variable = smallest index with negative reduced cost
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        # ratio test, ties broken by smallest basis variable (Bland)
        leave = None
        for i in range(m):
            if tab[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # tab[i][-1] / tab[i][enter] against the best ratio so far
                lhs = tab[i][width - 1] * tab[leave][enter]
                rhs = tab[leave][width - 1] * tab[i][enter]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return LpResult("unbounded", None, None)
        pivot_row = tab[leave]
        p = pivot_row[enter]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(p * x - f * y) // d for x, y in zip(tab[i], pivot_row)]
        f = obj[enter]
        obj = [(p * x - f * y) // d for x, y in zip(obj, pivot_row)]
        basis[leave] = enter
        d = p

    basic = {var: i for i, var in enumerate(basis) if var < n}
    x = tuple(Fraction(tab[basic[j]][width - 1], d) if j in basic else Fraction(0) for j in range(n))
    return LpResult("optimal", Fraction(obj[width - 1], d * c_scale), x)
