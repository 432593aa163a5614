"""Packing LPs solved by HiGHS and, for rational inputs, checked exactly.

Solves   maximize c.x   subject to  A_ub x <= b_ub,  x >= 0,

the form of the contextual-fraction LP (A_ub a 0/1 incidence, b_ub the
model's probabilities).  With b_ub >= 0 it is feasible at x = 0 and the
slack basis is a starting vertex; it is unbounded only if some column
improves c without limit, which raises LpError.

HiGHS (``scipy.optimize.linprog``, dual simplex) does the search.  When
every input is rational (int or fractions.Fraction) b_ub must be >= 0,
and HiGHS's answer is rounded to fractions and then proved optimal in
exact integer arithmetic, never assumed: x >= 0, A_ub x <= b_ub (primal
feasibility); y >= 0, y.A >= c (dual feasibility); c.x == b.y (zero gap).

If HiGHS reports anything else, or a check fails, a small dense simplex
over Fractions with Bland's rule, started from the slack basis, solves
the LP again (exact, but slow beyond a few hundred columns).
`LpResult.method` records which way exactness was established:
"certificate", "tableau", or "float" for inputs that are not all
rational, whose HiGHS answer is returned unchecked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

# HiGHS floats are rounded to the nearest fraction with a denominator at
# most this; vertex coordinates of the LPs met here have small
# denominators, and a wrong rounding only costs a tableau run.
MAX_DENOMINATOR = 10 ** 6


class LpError(RuntimeError):
    pass


@dataclass
class LpResult:
    status: str        # always "optimal": any other outcome raises LpError
    x: list
    objective: object
    dual: list         # one multiplier per constraint row
    method: str        # certificate | tableau | float


def _all_rational(values):
    return all(issubclass(t, Rational) for t in set(map(type, values)))


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LpResult:
    """Maximize c.x over x >= 0 with A_ub x <= b_ub, given as a list of
    rows; exact when every input is rational.  Equality rows are not
    supported: `A_eq` and `b_eq` must be empty."""
    if A_eq or b_eq:
        raise LpError("equality rows are not supported")
    rows = [list(r) for r in (A_ub or [])]
    rhs = list(b_ub or [])
    c = list(c)
    n = len(c)
    if len(rhs) != len(rows):
        raise LpError("b_ub length does not match the number of rows")
    if any(len(r) != n for r in rows):
        raise LpError("constraint row length does not match objective length")

    exact = _all_rational(itertools.chain(c, rhs, *rows))
    if exact and any(v < 0 for v in rhs):
        raise LpError("exact LPs need b_ub >= 0")
    from scipy.optimize import linprog

    res = linprog(-np.array(c, dtype=float),
                  A_ub=np.array(rows, dtype=float).reshape(len(rows), n),
                  b_ub=np.array(rhs, dtype=float),
                  bounds=(0, None), method="highs-ds")
    if not exact:
        if res.status != 0:
            raise LpError(f"HiGHS failed: {res.message}")
        return LpResult(status="optimal", x=res.x.tolist(), objective=-res.fun,
                        dual=(-res.ineqlin.marginals).tolist(), method="float")
    found = _certified_optimum(c, rows, rhs, res) if res.status == 0 else None
    return found or _tableau(c, rows, rhs)


def _rationalise(values) -> list:
    """Nearest fractions to HiGHS's floats (see MAX_DENOMINATOR)."""
    return [Fraction(v).limit_denominator(MAX_DENOMINATOR) if v else Fraction(0)
            for v in values.tolist()]


def _integral(values):
    """(ints, d) with values[i] == ints[i] / d, d the lcm of denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _integral_rows(rows):
    """Sparse integer rows [(j, a_ij), ...] and d with A == a / d."""
    nonzero = [[(j, v) for j, v in enumerate(r) if v] for r in rows]
    d = math.lcm(*(v.denominator for r in nonzero for _, v in r))
    return [[(j, v.numerator * (d // v.denominator)) for j, v in r]
            for r in nonzero], d


def _certified_optimum(c, rows, rhs, res) -> LpResult | None:
    """Exact optimum from HiGHS's x and y, or None if a check fails."""
    x = _rationalise(res.x)
    y = _rationalise(-res.ineqlin.marginals)
    a, da = _integral_rows(rows)
    B, db = _integral(rhs)
    C, dc = _integral(c)
    X, dx = _integral(x)
    Y, dy = _integral(y)
    if any(v < 0 for v in X) or any(v < 0 for v in Y):
        return None
    # A_i.x <= b_i, both times da * db * dx
    for row, bi in zip(a, B):
        if db * sum(aij * X[j] for j, aij in row) > bi * da * dx:
            return None
    # (y.A)_j >= c_j, both times da * dc * dy
    yA = [0] * len(c)
    for yi, row in zip(Y, a):
        if yi:
            for j, aij in row:
                yA[j] += yi * aij
    if any(dc * v < C[j] * da * dy for j, v in enumerate(yA)):
        return None
    # c.x == b.y, both times dc * dx * db * dy
    cx = sum(ci * xi for ci, xi in zip(C, X))
    if cx * db * dy != sum(bi * yi for bi, yi in zip(B, Y)) * dc * dx:
        return None
    return LpResult(status="optimal", x=x, objective=Fraction(cx, dc * dx),
                    dual=y, method="certificate")


def _tableau(c, rows, rhs) -> LpResult:
    """Dense simplex over Fractions with Bland's rule from the slack basis,
    which is feasible because rhs >= 0."""
    n = len(c)
    m = len(rows)
    zero, one = Fraction(0), Fraction(1)
    # row i: A_i, the unit slack column n + i, then b_i; slack i is basic
    tab = [[Fraction(v) for v in rows[i]] + [one if k == i else zero
                                              for k in range(m)]
           + [Fraction(rhs[i])] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [-Fraction(v) for v in c] + [zero] * m

    def pivot(pr, pc):
        piv = tab[pr][pc]
        tab[pr] = [v / piv for v in tab[pr]]
        for r in range(m):
            if r != pr and tab[r][pc] != zero:
                f = tab[r][pc]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[pr])]
        basis[pr] = pc

    # minimize cost.x
    while True:
        cb = [cost[basis[r]] for r in range(m)]
        entering = None
        for j in range(n + m):
            if j in basis:
                continue
            red = cost[j] - sum(cb[r] * tab[r][j] for r in range(m))
            if red < zero:
                entering = j   # Bland: lowest improving index
                break
        if entering is None:
            break
        ratio, leaving = None, None
        for r in range(m):
            a = tab[r][entering]
            if a > zero:
                q = tab[r][-1] / a
                if (leaving is None or q < ratio
                        or (q == ratio and basis[r] < basis[leaving])):
                    ratio, leaving = q, r
        if leaving is None:
            raise LpError("LP is unbounded")
        pivot(leaving, entering)

    x = [zero] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    obj = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    # y = c_B B^-1, read from the slack columns, which started as the unit
    # vectors; negated back to the maximization's sign
    dual = [-sum(cb[r] * tab[r][n + i] for r in range(m)) for i in range(m)]
    return LpResult(status="optimal", x=x, objective=obj, dual=dual,
                    method="tableau")
