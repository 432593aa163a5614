import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sllab.contextuality import (
    EmpiricalModel,
    Scenario,
    ScenarioError,
    check_no_signalling,
    chsh_value,
    contextual_fraction,
    correlator,
    enumerate_global_sections,
    load_model,
    model_from_dict,
    model_to_dict,
    noncontextual_decompose,
    quantum_model_from_state,
    singlet_chsh_model,
    singlet_state,
)
from sllab.contextuality.analysis import GuardExceeded
from sllab.fixtures import FIXTURE_NAMES, fixture_path


def _fixture(name):
    return load_model(fixture_path(name))


class TestScenario:
    def test_cover_must_hit_every_observable(self):
        with pytest.raises(ScenarioError):
            Scenario(observables={"A": (0, 1), "B": (0, 1)},
                     contexts=(("A",),))

    def test_antichain_enforced(self):
        with pytest.raises(ScenarioError):
            Scenario(observables={"A": (0, 1), "B": (0, 1)},
                     contexts=(("A",), ("A", "B")))

    def test_table_normalization_enforced(self):
        s = Scenario(observables={"A": (0, 1)}, contexts=(("A",),))
        with pytest.raises(ScenarioError):
            EmpiricalModel(scenario=s, tables={("A",): {(0,): F(3, 4)}})

    def test_negative_probability_rejected(self):
        s = Scenario(observables={"A": (0, 1)}, contexts=(("A",),))
        with pytest.raises(ScenarioError):
            EmpiricalModel(scenario=s,
                           tables={("A",): {(0,): F(3, 2), (1,): F(-1, 2)}})

    def test_nan_probability_rejected(self):
        s = Scenario(observables={"A": (0, 1)}, contexts=(("A",),))
        with pytest.raises(ScenarioError, match="non-finite"):
            EmpiricalModel(scenario=s,
                           tables={("A",): {(0,): math.nan, (1,): 1.0}})

    def test_json_round_trip_exact(self):
        model = _fixture("pr_box")
        again = model_from_dict(model_to_dict(model))
        assert again.tables == model.tables
        assert again.is_exact()


class TestNoSignalling:
    def test_fixtures_all_pass(self):
        for name in FIXTURE_NAMES:
            rep = check_no_signalling(_fixture(name))
            assert rep.ok(1e-9), name

    def test_signalling_model_detected(self):
        s = Scenario(observables={"A": (0, 1), "B": (0, 1), "C": (0, 1)},
                     contexts=(("A", "B"), ("A", "C")))
        tables = {
            ("A", "B"): {(0, 0): F(1, 2), (1, 1): F(1, 2)},
            ("A", "C"): {(0, 0): F(1, 4), (1, 1): F(3, 4)},  # P(A=0) differs
        }
        rep = check_no_signalling(EmpiricalModel(scenario=s, tables=tables))
        assert rep.max_violation == pytest.approx(0.25)
        assert rep.witness is not None

    @given(angles=st.tuples(*[st.floats(0, math.pi)] * 4),
           mix=st.floats(0.0, 1.0))
    @settings(max_examples=20)
    def test_quantum_models_never_signal(self, angles, mix):
        # Born-rule tables from any two-qubit state obey no-signalling
        a = math.sqrt(mix)
        b = math.sqrt(1.0 - mix)
        state = np.array([0, a, -b, 0], dtype=complex)
        if abs(np.vdot(state, state) - 1) > 1e-12:
            state = state / np.linalg.norm(state)
        model = quantum_model_from_state(
            state, settings=((angles[0], angles[1]), (angles[2], angles[3])))
        assert check_no_signalling(model).ok(1e-7)


class TestGlobalSections:
    def test_pr_box_strongly_contextual(self):
        assert enumerate_global_sections(_fixture("pr_box")) == []

    def test_specker_triangle_strongly_contextual(self):
        assert enumerate_global_sections(_fixture("ks_odd_cycle")) == []

    def test_classical_model_has_sections(self):
        sections = enumerate_global_sections(_fixture("classical_correlated"))
        assert len(sections) == 2

    def test_hardy_sections(self):
        assert len(enumerate_global_sections(_fixture("hardy"))) == 5

    def test_guard(self):
        obs = {f"O{i}": tuple(range(10)) for i in range(8)}
        s = Scenario(observables=obs, contexts=(tuple(obs),))
        table = {tuple([0] * 8): F(1)}
        model = EmpiricalModel(scenario=s, tables={tuple(obs): table})
        with pytest.raises(GuardExceeded):
            enumerate_global_sections(model)


class TestContextualFraction:
    def test_pr_box_maximal(self):
        res = contextual_fraction(_fixture("pr_box"))
        assert res.fraction == F(1)
        assert res.dual_gap == 0.0

    def test_classical_zero(self):
        res = contextual_fraction(_fixture("classical_correlated"))
        assert res.fraction == F(0)

    def test_hardy_exact(self):
        res = contextual_fraction(_fixture("hardy"))
        assert res.fraction == F(1, 10)

    def test_singlet_tsirelson(self):
        res = contextual_fraction(_fixture("singlet_chsh"))
        assert float(res.fraction) == pytest.approx(math.sqrt(2) - 1, abs=1e-6)

    def test_noise_reduces_fraction(self):
        # CF hierarchy: mixing toward uniform noise is monotone down
        pr = _fixture("pr_box")
        fractions = []
        for w in (F(1), F(3, 4), F(1, 2), F(0)):
            tables = {}
            for ctx, table in pr.tables.items():
                outs = pr.scenario.outcomes_of(ctx)
                uni = F(1, len(outs))
                tables[ctx] = {tuple(o): w * table.get(tuple(o), F(0))
                               + (1 - w) * uni for o in outs}
            model = EmpiricalModel(scenario=pr.scenario, tables=tables)
            fractions.append(contextual_fraction(model).fraction)
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[-1] == F(0)


class TestDecomposition:
    def test_classical_weights_exact(self):
        res = noncontextual_decompose(_fixture("classical_correlated"))
        assert res.feasible
        weights = sorted(w for _, w in res.weights)
        assert weights == [F(1, 2), F(1, 2)]

    def test_pr_box_certificate(self):
        res = noncontextual_decompose(_fixture("pr_box"))
        assert not res.feasible
        cert = res.certificate
        assert cert.classical_bound == F(2)
        assert cert.value == F(4)

    def test_certificate_evaluates_on_model(self):
        model = _fixture("hardy")
        res = noncontextual_decompose(model)
        cert = res.certificate
        val = sum(coeff * model.prob(ctx, outcome)
                  for (ctx, outcome), coeff in cert.coefficients.items())
        assert val == cert.value
        assert cert.value > cert.classical_bound

    def test_certificate_bound_is_tight_over_assignments(self):
        model = _fixture("pr_box")
        cert = noncontextual_decompose(model).certificate
        best = None
        for g in model.scenario.global_assignments():
            v = sum(coeff for (ctx, outcome), coeff in cert.coefficients.items()
                    if tuple(g[o] for o in ctx) == outcome)
            best = v if best is None else max(best, v)
        assert best == cert.classical_bound


class TestChsh:
    def test_pr_box_algebraic_maximum(self):
        assert chsh_value(_fixture("pr_box")) == pytest.approx(4.0)

    def test_singlet_tsirelson_bound(self):
        assert chsh_value(_fixture("singlet_chsh")) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-9)

    def test_correlator_signs(self):
        model = _fixture("pr_box")
        ctx = model.scenario.contexts[0]
        assert correlator(model, ctx) == pytest.approx(1.0)

    def test_non_chsh_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            chsh_value(_fixture("ks_odd_cycle"))

    def test_singlet_correlator_formula(self):
        # E(ta, tb) = -cos 2(ta - tb) under the stated convention
        ta, tb = 0.3, 1.1
        model = quantum_model_from_state(singlet_state(),
                                         settings=((ta, 0.0), (tb, 0.5)))
        e = correlator(model, ("a0", "b0"))
        assert e == pytest.approx(-math.cos(2 * (ta - tb)), abs=1e-12)


class TestQuantumModels:
    def test_state_norm_checked(self):
        with pytest.raises(ValueError):
            quantum_model_from_state([1, 1, 0, 0])

    def test_tables_normalized(self):
        model = singlet_chsh_model()
        for ctx in model.scenario.contexts:
            assert sum(model.tables[ctx].values()) == pytest.approx(1.0)

    def test_product_state_noncontextual(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0  # |00>
        model = quantum_model_from_state(state)
        res = contextual_fraction(model)
        assert float(res.fraction) == pytest.approx(0.0, abs=1e-9)
