"""Linear programs solved by HiGHS and, for rational inputs, checked exactly.

Solves   maximize c.x   subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

HiGHS (``scipy.optimize.linprog``, dual simplex) does the search.  When
every input is rational (int or fractions.Fraction) its answer is rounded
to fractions and then proved in exact integer arithmetic, never assumed:

* optimal: x >= 0, A_ub x <= b_ub, A_eq x == b_eq (primal feasibility);
  y_ub >= 0, y.A >= c (dual feasibility); c.x == b.y (zero gap);
* infeasible: the duals y of the phase-1 LP, which minimises the sum of
  artificial variables and is always feasible, form a Farkas ray:
  y_ub <= 0, y.A <= 0, y.b > 0.

If HiGHS reports anything else, or a check fails, a small dense two-phase
tableau with Bland's rule solves the LP again over Fractions (exact, but
slow beyond a few hundred columns).  `LpResult.method` records which way
exactness was established: "certificate", "tableau", or "float" for inputs
that are not all rational, whose HiGHS answer is returned unchecked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional

import numpy as np
from scipy.optimize import linprog

# HiGHS floats are rounded to the nearest fraction with a denominator at
# most this; vertex coordinates of the LPs met here have small
# denominators, and a wrong rounding only costs a tableau run.
MAX_DENOMINATOR = 10 ** 6


class LpError(RuntimeError):
    pass


@dataclass
class LpResult:
    status: str                    # optimal | infeasible | unbounded
    x: Optional[list] = None
    objective: Optional[object] = None
    dual: Optional[list] = None    # one multiplier per constraint row
    farkas: Optional[list] = None  # certificate y with y.A <= 0, y.b > 0
    method: Optional[str] = None   # certificate | tableau | float


def _all_rational(values):
    return all(issubclass(t, Rational) for t in set(map(type, values)))


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LpResult:
    """Maximize c.x over x >= 0 with A_ub x <= b_ub and A_eq x = b_eq,
    given as lists of rows; exact when every input is rational."""
    A_ub =[list(r) for r in (A_ub or [])]
    b_ub = list(b_ub or [])
    A_eq = [list(r) for r in (A_eq or [])]
    b_eq = list(b_eq or [])
    c = list(c)
    n = len(c)
    rows = A_ub + A_eq
    rhs = b_ub + b_eq
    n_ub = len(A_ub)
    if any(len(r) != n for r in rows):
        raise LpError("constraint row length does not match objective length")

    exact = _all_rational(itertools.chain(c, rhs, *rows))
    A = np.array(rows, dtype=float).reshape(len(rows), n)
    b = np.array(rhs, dtype=float)
    res = _highs(-np.array(c, dtype=float), A, b, n_ub)
    if not exact:
        return _float_result(res, A, b, n_ub)
    found = None
    if res.status == 0:
        found = _certified_optimum(c, rows, rhs, n_ub, res)
    elif res.status == 2:
        found = _certified_infeasible(rows, rhs, n, n_ub,
                                      _phase1(A, b, n_ub))
    return found or _tableau(c, rows, rhs, n_ub)


def _highs(cost, A, b, n_ub):
    """Minimize cost.x over x >= 0 with the first n_ub rows of A as <=."""
    ub = n_ub > 0
    eq = len(b) > n_ub
    return linprog(cost,
                   A_ub=A[:n_ub] if ub else None, b_ub=b[:n_ub] if ub else None,
                   A_eq=A[n_ub:] if eq else None, b_eq=b[n_ub:] if eq else None,
                   bounds=(0, None), method="highs-ds")


def _duals(res):
    """HiGHS's row duals of a minimization, ub rows first."""
    return np.concatenate([res.ineqlin.marginals, res.eqlin.marginals])


def _phase1(A, b, n_ub):
    """Minimize the sum of artificials, one per row that x = 0 violates.

    The artificial of row i enters it with the sign of b_i, so x = 0 and
    a = |b| is feasible and this LP always has an optimum.  Its value is
    positive iff the original rows are infeasible, and then its duals y
    (a minimization's: y_ub <= 0, y.A <= 0, y.b = value) are a Farkas ray.
    """
    m, n = A.shape
    arts = [i for i in range(m) if b[i] < 0 or (i >= n_ub and b[i] != 0)]
    S = np.zeros((m, len(arts)))
    for k, i in enumerate(arts):
        S[i, k] = np.sign(b[i])
    cost = np.concatenate([np.zeros(n), np.ones(len(arts))])
    return _highs(cost, np.hstack([A, S]), b, n_ub)


def _float_result(res, A, b, n_ub) -> LpResult:
    if res.status == 0:
        x = res.x.tolist()
        return LpResult(status="optimal", x=x, objective=-res.fun,
                        dual=(-_duals(res)).tolist(), method="float")
    if res.status == 2:
        ph1 = _phase1(A, b, n_ub)
        if ph1.status == 0:
            return LpResult(status="infeasible",
                            farkas=_duals(ph1).tolist(), method="float")
    elif res.status == 3:
        return LpResult(status="unbounded", method="float")
    raise LpError(f"HiGHS failed: {res.message}")


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


def _times_rows(Y, a, n):
    """Y.a for integer Y and sparse integer rows a."""
    out = [0] * n
    for yi, row in zip(Y, a):
        if yi:
            for j, aij in row:
                out[j] += yi * aij
    return out


def _certified_optimum(c, rows, rhs, n_ub, res) -> Optional[LpResult]:
    """Exact optimum from HiGHS's x and y, or None if a check fails."""
    x = _rationalise(res.x)
    y = _rationalise(-_duals(res))
    a, da = _integral_rows(rows)
    B, db = _integral(rhs)
    C, dc = _integral(c)
    X, dx = _integral(x)
    Y, dy = _integral(y)
    if any(v < 0 for v in X) or any(v < 0 for v in Y[:n_ub]):
        return None
    # A_i.x vs b_i, both times da * db * dx
    for i, row in enumerate(a):
        lhs = db * sum(aij * X[j] for j, aij in row)
        rhs_i = B[i] * da * dx
        if lhs > rhs_i or (i >= n_ub and lhs != rhs_i):
            return None
    # (y.A)_j >= c_j, both times da * dc * dy
    yA = _times_rows(Y, a, len(c))
    if any(dc * v < C[j] * da * dy for j, v in enumerate(yA)):
        return None
    # c.x == b.y, both times dc * dx * db * dy
    cx = sum(ci * xi for ci, xi in zip(C, X))
    if cx * db * dy != sum(bi * yi for bi, yi in zip(B, Y)) * dc * dx:
        return None
    return LpResult(status="optimal", x=x, objective=Fraction(cx, dc * dx),
                    dual=y, method="certificate")


def _certified_infeasible(rows, rhs, n, n_ub, ph1) -> Optional[LpResult]:
    """Exact Farkas ray from the phase-1 duals, or None if a check fails."""
    if ph1.status != 0:
        return None
    y = _rationalise(_duals(ph1))
    a, _ = _integral_rows(rows)
    B, _ = _integral(rhs)
    Y, _ = _integral(y)
    if (any(v > 0 for v in Y[:n_ub])
            or any(v > 0 for v in _times_rows(Y, a, n))
            or sum(bi * yi for bi, yi in zip(B, Y)) <= 0):
        return None
    return LpResult(status="infeasible", farkas=y, method="certificate")


def _tableau(c, rows, rhs, n_ub) -> LpResult:
    """Dense two-phase simplex over Fractions with Bland's rule."""
    n = len(c)
    m = len(rows)
    zero, one = Fraction(0), Fraction(1)

    # Stored system: rhs normalized nonnegative; `flipped` marks negated rows.
    stored = []
    flipped = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        slack = [zero] * n_ub
        if i < n_ub:
            slack[i] = one
        row = row + slack
        if b < zero:
            row, b = [-v for v in row], -b
            flipped.append(True)
        else:
            flipped.append(False)
        stored.append((row, b))

    ncols = n + n_ub
    # Flipped ub rows and all eq rows need an artificial basic variable.
    art_of_row = {}
    for i in range(m):
        if i >= n_ub or flipped[i]:
            art_of_row[i] = ncols + len(art_of_row)
    total_cols = ncols + len(art_of_row)

    tab = []
    basis = [None] * m
    for i in range(m):
        row, b = stored[i]
        full = row + [zero] * len(art_of_row) + [b]
        if i in art_of_row:
            full[art_of_row[i]] = one
            basis[i] = art_of_row[i]
        else:
            basis[i] = n + i
        tab.append(full)

    def pivot(pr, pc):
        piv = tab[pr][pc]
        tab[pr] = [v / piv for v in tab[pr]]
        for r in range(m):
            if r != pr and tab[r][pc] != zero:
                f = tab[r][pc]
                tab[r] = [a - f * b for a, b in zip(tab[r], tab[pr])]
        basis[pr] = pc

    def run_simplex(cost, allowed_cols):
        """Minimize cost.x from the current basic feasible tableau."""
        while True:
            cb = [cost[basis[r]] for r in range(m)]
            entering = None
            for j in allowed_cols:
                if j in basis:
                    continue
                red = cost[j] - sum(cb[r] * tab[r][j] for r in range(m))
                if red < zero:
                    entering = j   # Bland: lowest improving index
                    break
            if entering is None:
                return "optimal"
            ratio, leaving = None, None
            for r in range(m):
                a = tab[r][entering]
                if a > zero:
                    q = tab[r][-1] / a
                    if (leaving is None or q < ratio
                            or (q == ratio and basis[r] < basis[leaving])):
                        ratio, leaving = q, r
            if leaving is None:
                return "unbounded"
            pivot(leaving, entering)

    def duals(cost):
        """y = c_B B^-1 in original row order and signs.

        Read from the column that was the unit vector of each stored row:
        the artificial where one exists, the slack otherwise.
        """
        cb = [cost[basis[r]] for r in range(m)]
        y = []
        for i in range(m):
            col = art_of_row.get(i, n + i)
            yi = sum(cb[r] * tab[r][col] for r in range(m))
            y.append(-yi if flipped[i] else yi)
        return y

    if art_of_row:
        cost1 = [zero] * total_cols
        for col in art_of_row.values():
            cost1[col] = one
        if run_simplex(cost1, range(total_cols)) != "optimal":
            raise LpError("phase-1 simplex did not terminate optimally")
        w = sum(tab[r][-1] for r in range(m) if basis[r] >= ncols)
        if w > zero:
            # Infeasible: phase-1 duals give y.A <= 0, y.b = w > 0.
            return LpResult(status="infeasible", farkas=duals(cost1),
                            method="tableau")
        for r in range(m):
            if basis[r] >= ncols:  # degenerate artificial still basic
                for j in range(ncols):
                    if tab[r][j] != zero:
                        pivot(r, j)
                        break

    cost2 = [-Fraction(v) for v in c] + [zero] * (n_ub + len(art_of_row))
    status = run_simplex(cost2, range(ncols))
    if status == "unbounded":
        return LpResult(status="unbounded", method="tableau")

    x = [zero] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    obj = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return LpResult(status="optimal", x=x, objective=obj,
                    dual=[-v for v in duals(cost2)], method="tableau")
