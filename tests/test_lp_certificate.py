"""The HiGHS-plus-certificate LP path against the exact Fraction tableau."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sllab.contextuality import (
    EmpiricalModel,
    Scenario,
    contextual_fraction,
    load_model,
    noncontextual_decompose,
)
from sllab.contextuality import analysis, simplex
from sllab.contextuality.simplex import LpError, solve_lp
from sllab.fixtures import FIXTURE_NAMES, fixture_path


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _assert_exact_certificate(res, c, A_ub, b_ub):
    """The optimality conditions, in Fractions."""
    cols = list(zip(*A_ub)) if A_ub else [()] * len(c)
    x, y = res.x, res.dual
    assert res.status == "optimal"
    assert all(v >= 0 for v in x)
    assert all(_dot(row, x) <= bi for row, bi in zip(A_ub, b_ub))
    assert all(v >= 0 for v in y)
    assert all(_dot(y, col) >= cj for col, cj in zip(cols, c))
    assert _dot(c, x) == _dot(b_ub, y) == res.objective


_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _lps(draw):
    """Packing LPs: b_ub >= 0, with entries of A_ub and c of either sign,
    so some are unbounded."""
    n = draw(st.integers(1, 4))
    row = st.lists(_Q, min_size=n, max_size=n)
    A_ub = draw(st.lists(row, max_size=3))
    b_ub = draw(st.lists(st.fractions(min_value=0, max_value=3,
                                      max_denominator=4),
                         min_size=len(A_ub), max_size=len(A_ub)))
    c = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return c, A_ub, b_ub


def _solve_or_error(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except LpError as exc:
        return exc


class TestAgainstTableau:
    @given(lp=_lps())
    @settings(max_examples=80, deadline=None)
    def test_random_rational_lps(self, lp):
        c, A_ub, b_ub = lp
        res = _solve_or_error(solve_lp, c, A_ub=A_ub, b_ub=b_ub)
        ref = _solve_or_error(simplex._tableau, c, A_ub, b_ub)
        # unbounded on both sides, or the same exact optimum
        assert isinstance(res, LpError) == isinstance(ref, LpError)
        if isinstance(res, LpError):
            return
        assert res.method in ("certificate", "tableau")
        assert isinstance(res.objective, F)
        assert res.objective == ref.objective
        _assert_exact_certificate(res, c, A_ub, b_ub)
        _assert_exact_certificate(ref, c, A_ub, b_ub)

    def test_failed_check_falls_back_to_tableau(self, monkeypatch):
        def off_by_a_seventh(values):
            return [F(v).limit_denominator(1000) + F(1, 7)
                    for v in values.tolist()]

        monkeypatch.setattr(simplex, "_rationalise", off_by_a_seventh)
        c, A_ub, b_ub = [F(1), F(1)], [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)]
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub)
        assert res.method == "tableau"
        assert res.x == [F(8, 5), F(6, 5)]
        assert res.objective == F(14, 5)
        _assert_exact_certificate(res, c, A_ub, b_ub)

        cf = contextual_fraction(load_model(fixture_path("hardy")))
        assert cf.fraction == F(1, 10)
        assert cf.lp["method"] == "tableau"

    def test_unbounded_goes_to_tableau(self, monkeypatch):
        # HiGHS reports no optimum, so no certificate is tried; the exact
        # tableau finds no leaving row and raises
        calls = []
        tableau = simplex._tableau

        def spy(*args):
            calls.append(args)
            return tableau(*args)

        monkeypatch.setattr(simplex, "_tableau", spy)
        with pytest.raises(LpError, match="unbounded"):
            solve_lp([F(1)], A_ub=[[F(-1)]], b_ub=[F(0)])
        assert len(calls) == 1

    def test_float_inputs_are_not_certified(self):
        res = solve_lp([1.0, 1.0], A_ub=[[1.0, 2.0], [3.0, 1.0]],
                       b_ub=[4.0, 6.0])
        assert res.method == "float"


def _parity_model(pattern, v):
    """Bipartite K-setting binary model with parity pattern[i][j] on
    context (a_i, b_j), mixed with white noise at visibility v."""
    k = len(pattern)
    names = [f"a{i}" for i in range(k)] + [f"b{j}" for j in range(k)]
    scenario = Scenario(observables={o: (0, 1) for o in names},
                        contexts=tuple((f"a{i}", f"b{j}") for i in range(k)
                                       for j in range(k)))
    tables = {(f"a{i}", f"b{j}"): {
        (a, b): (v / 2 if a ^ b == pattern[i][j] else 0) + (1 - v) / 4
        for a in (0, 1) for b in (0, 1)}
        for i in range(k) for j in range(k)}
    return EmpiricalModel(scenario=scenario, tables=tables)


@pytest.mark.parametrize("k", [4, 6])
class TestFourSettingParity:
    """K = 4 is 256 assignments and 64 events, the tableau's size limit;
    K = 6 is 4096 assignments and 144 events.  Both are solved exactly by
    certificate."""

    def test_frustrated_pattern(self, k):
        pattern = [[0] * k for _ in range(k)]
        pattern[k - 1][k - 1] = 1
        model = _parity_model(pattern, F(4, 5))
        cf = contextual_fraction(model)
        assert cf.fraction == F(3, 5)
        assert cf.lp == {"rows": 4 * k * k, "cols": 4 ** k,
                         "status": "optimal", "method": "certificate"}
        dec = noncontextual_decompose(model)
        assert not dec.feasible
        assert dec.lp["method"] == "certificate"
        assert dec.certificate.value > dec.certificate.classical_bound == 2

    def test_local_pattern(self, k):
        model = _parity_model([[0] * k for _ in range(k)], F(4, 5))
        assert contextual_fraction(model).fraction == 0
        dec = noncontextual_decompose(model)
        assert dec.feasible
        assert dec.lp["method"] == "certificate"
        assert sum(w for _, w in dec.weights) == 1


def _fraction_sum_certificate(ray, hits, p):
    """(classical_bound, value, scale, shift) of the certificate with each
    assignment's functional value summed as Fractions."""
    vals = sum(np.asarray(ray)[h] for h in hits).tolist()
    hi, lo = max(vals), min(vals)
    width = hi - lo
    if width == 0:
        scale, shift = 1, 2 - hi
    else:
        scale = 4 / width if isinstance(width, F) else 4.0 / width
        shift = 2 - scale * hi
    model_val = sum(yi * pi for yi, pi in zip(ray, p))
    return scale * hi + shift, scale * model_val + shift, scale, shift


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("parity_k4", "parity_k6"))
def test_certificate_matches_fraction_sums(name):
    if name.startswith("parity_k"):
        k = int(name[-1])
        pattern = [[0] * k for _ in range(k)]
        pattern[k - 1][k - 1] = 1
        model = _parity_model(pattern, F(4, 5))
    else:
        model = load_model(fixture_path(name))
    events, hits, rows, p = analysis._lp_inputs(model)
    res = solve_lp([1] * model.scenario.n_global_assignments(),
                   A_ub=rows, b_ub=p)
    ray = [-y for y in res.dual]
    cert = analysis._normalize_certificate(ray, events, hits, p)
    bound, value, scale, shift = _fraction_sum_certificate(ray, hits, p)
    assert (cert.classical_bound, cert.value) == (bound, value)
    assert type(cert.classical_bound) is type(bound)
    assert cert.coefficients == {e: scale * yi + shift / len(hits)
                                 for e, yi in zip(events, ray)}
