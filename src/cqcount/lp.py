"""Exact rational linear programming: a one-phase simplex with row duals.

Small scale only: the width computations solve programs with at most a few
dozen variables and constraints, and bit-exact Fraction arithmetic matters
more than speed there. Every program must have a feasible origin
(b_ub >= 0), so the slack columns are the first basis and no phase 1 is
needed. Bland's rule guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import LPUnboundedError


def solve_min(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Minimize c.x subject to a_ub.x <= b_ub and x >= 0, where b_ub >= 0.

    Returns (optimal value, optimal x, row duals w). The duals are the
    reduced costs of the slack columns: w >= 0, c + a_ub^T w >= 0 and the
    optimal value is -b_ub.w. Raises ValueError when some b_ub entry is
    negative and LPUnboundedError when the objective has no lower bound.
    """
    n = len(c)
    m = len(a_ub)
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in a_ub]
    rhs = [Fraction(v) for v in b_ub]
    for row in rows:
        if len(row) != n:
            raise ValueError("constraint row length does not match objective")
    if any(v < 0 for v in rhs):
        raise ValueError("solve_min needs b_ub >= 0, so that x = 0 is feasible")

    # Columns: n structural, m slack, then the right-hand side. The slacks
    # are the first basis, and the reduced-cost row starts as c itself.
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = rows[i] + [Fraction(0)] * m + [rhs[i]]
        row[n + i] = Fraction(1)
        tableau.append(row)
    basis = [n + i for i in range(m)]
    red = c + [Fraction(0)] * (m + 1)

    while True:
        enter = next((j for j in range(n + m) if red[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LPUnboundedError("objective is unbounded below")
        inv = Fraction(1) / tableau[leave][enter]
        prow = tableau[leave] = [v * inv for v in tableau[leave]]
        for i in range(m):
            f = tableau[i][enter]
            if i != leave and f != 0:
                tableau[i] = [v - f * p for v, p in zip(tableau[i], prow)]
        f = red[enter]
        red = [v - f * p for v, p in zip(red, prow)]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = tableau[i][-1]
    return -red[-1], x, red[n : n + m]
