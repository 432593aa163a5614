from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from sllab.contextuality.simplex import LpError, solve_lp


class TestExactLp:
    def test_simple_max(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6
        res = solve_lp([F(1), F(1)], A_ub=[[F(1), F(2)], [F(3), F(1)]],
                       b_ub=[F(4), F(6)])
        assert res.status == "optimal"
        assert res.x == [F(8, 5), F(6, 5)]
        assert res.objective == F(14, 5)

    def test_dual_matches_primal(self):
        c = [F(3), F(5)]
        A = [[F(1), F(0)], [F(0), F(2)], [F(3), F(2)]]
        b = [F(4), F(12), F(18)]
        res = solve_lp(c, A_ub=A, b_ub=b)
        assert res.status == "optimal"
        # strong duality, exactly
        assert sum(y * bi for y, bi in zip(res.dual, b)) == res.objective
        # dual feasibility: y >= 0, y.A >= c
        assert all(y >= 0 for y in res.dual)
        for j in range(2):
            assert sum(res.dual[i] * A[i][j] for i in range(3)) >= c[j]

    def test_unbounded(self):
        # no row limits x, so the tableau finds no leaving row
        with pytest.raises(LpError, match="unbounded"):
            solve_lp([F(1)], A_ub=[[F(-1)]], b_ub=[F(0)])
        with pytest.raises(LpError, match="HiGHS"):
            solve_lp([1.0], A_ub=[[-1.0]], b_ub=[0.0])

    def test_negative_rhs_handled(self):
        # -x <= -2 means x >= 2: the slack basis is not feasible, so an
        # exact LP is rejected, while HiGHS still solves the float one
        with pytest.raises(LpError, match="b_ub >= 0"):
            solve_lp([F(-1)], A_ub=[[F(-1)]], b_ub=[F(-2)])
        res = solve_lp([-1.0], A_ub=[[-1.0]], b_ub=[-2.0])
        assert (res.status, res.method) == ("optimal", "float")
        assert res.x == pytest.approx([2.0])

    def test_equality_rows_rejected(self):
        with pytest.raises(LpError, match="equality"):
            solve_lp([F(1), F(0)], A_eq=[[F(1), F(1)]], b_eq=[F(1)])
        with pytest.raises(LpError, match="equality"):
            solve_lp([F(1)], A_ub=[[F(1)]], b_ub=[F(1)], b_eq=[F(1)])

    def test_rhs_length_mismatch(self):
        with pytest.raises(LpError, match="b_ub"):
            solve_lp([F(1)], A_ub=[[F(1)], [F(2)]], b_ub=[F(1)])

    def test_row_length_mismatch(self):
        with pytest.raises(LpError):
            solve_lp([F(1)], A_ub=[[F(1), F(2)]], b_ub=[F(1)])


class TestFloatFallback:
    def test_float_inputs_solve(self):
        res = solve_lp([1.0, 1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]],
                       b_ub=[4.0, 6.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.8)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=25)
    def test_random_lp_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 4, 6
        A = rng.uniform(0.1, 2.0, size=(m, n))
        b = rng.uniform(1.0, 5.0, size=m)
        c = rng.uniform(0.1, 1.0, size=n)
        ours = solve_lp(list(c), A_ub=A.tolist(), b_ub=list(b))
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        assert ours.status == "optimal"
        assert ref.status == 0
        assert ours.objective == pytest.approx(-ref.fun, rel=1e-7, abs=1e-9)
