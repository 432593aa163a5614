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
    noncontextual_decompose,
    quantum_model_from_state,
    singlet_state,
)
from sllab.contextuality import analysis
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

    def test_exact_table_must_sum_to_one(self):
        s = Scenario(observables={"A": (0, 1)}, contexts=(("A",),))
        with pytest.raises(ScenarioError, match="sums to"):
            EmpiricalModel(scenario=s, tables={
                ("A",): {(0,): F(1, 2) + F(1, 10 ** 10), (1,): F(1, 2)}})

    def test_negative_probability_rejected(self):
        s = Scenario(observables={"A": (0, 1)}, contexts=(("A",),))
        with pytest.raises(ScenarioError):
            EmpiricalModel(scenario=s,
                           tables={("A",): {(0,): F(3, 2), (1,): F(-1, 2)}})

    def test_exact_negative_probability_rejected(self):
        # the float tolerance does not cover an exact entry, even when the
        # table sums to exactly 1
        s = Scenario(observables={"A": (0, 1, 2)}, contexts=(("A",),))
        with pytest.raises(ScenarioError, match="negative"):
            EmpiricalModel(scenario=s, tables={("A",): {
                (0,): F(1, 2), (1,): F(1, 2) + F(1, 10 ** 12),
                (2,): F(-1, 10 ** 12)}})

    def test_float_negative_within_tolerance_accepted(self):
        s = Scenario(observables={"A": (0, 1, 2)}, contexts=(("A",),))
        model = EmpiricalModel(scenario=s, tables={("A",): {
            (0,): 0.5, (1,): 0.5 + 1e-12, (2,): -1e-12}})
        assert model.prob(("A",), (2,)) == -1e-12

    def test_nan_probability_rejected(self):
        s = Scenario(observables={"A": (0, 1)}, contexts=(("A",),))
        with pytest.raises(ScenarioError, match="non-finite"):
            EmpiricalModel(scenario=s,
                           tables={("A",): {(0,): math.nan, (1,): 1.0}})


class TestNoSignalling:
    def test_fixtures_all_pass(self):
        for name in FIXTURE_NAMES:
            rep = check_no_signalling(_fixture(name))
            assert rep.max_violation <= 1e-9, name

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
        assert check_no_signalling(model).max_violation <= 1e-7


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


def _chained_singlet(n, full):
    """Singlet tables p(a, b) = (1 + ab E) / 4, E = -cos 2(ta - tb), at the
    chained-Bell angles ta_k = k pi/2n, tb_k = (2k+1) pi/4n.  Contexts are
    every (a_i, b_j) (full) or the chain (a_k, b_k), (a_k+1, b_k), closed
    by (a_0, b_n-1)."""
    ta = [k * math.pi / (2 * n) for k in range(n)]
    tb = [(2 * k + 1) * math.pi / (4 * n) for k in range(n)]
    pairs = ([(i, j) for i in range(n) for j in range(n)] if full else
             [(k, k) for k in range(n)] + [((k + 1) % n, k) for k in range(n)])
    tables = {}
    for i, j in pairs:
        e = -math.cos(2 * (ta[i] - tb[j]))
        tables[(f"a{i}", f"b{j}")] = {(a, b): (1 + a * b * e) / 4
                                      for a in (1, -1) for b in (1, -1)}
    scenario = Scenario(observables={f"{s}{k}": (1, -1)
                                     for s in "ab" for k in range(n)},
                        contexts=tuple(tables))
    return EmpiricalModel(scenario=scenario, tables=tables)


class TestChainedBell:
    """The singlet's CF at the chained-Bell angles is 1 - 2N sin^2(pi/4N)
    (Barrett, Kent & Pironio, PRL 97, 170409 (2006)), for the chain and
    for all N x N contexts.  N = 7 has 16,384 assignments."""

    @pytest.mark.parametrize("full", [False, True], ids=["chain", "full"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_contextual_fraction(self, n, full):
        cf = contextual_fraction(_chained_singlet(n, full))
        assert float(cf.fraction) == pytest.approx(
            1 - 2 * n * math.sin(math.pi / (4 * n)) ** 2, abs=1e-9)
        assert not cf.decomposition.feasible


def _reference_incidence(scenario):
    """Events and, per global assignment, the events it hits, by dict
    lookup over `global_assignments()`."""
    events = [(ctx, o) for ctx in scenario.contexts
              for o in scenario.outcomes_of(ctx)]
    index = {e: i for i, e in enumerate(events)}
    hits = [[index[(ctx, tuple(g[o] for o in ctx))]
             for ctx in scenario.contexts]
            for g in scenario.global_assignments()]
    return events, hits


def _reference_sections(model):
    return [g for g in model.scenario.global_assignments()
            if all(tuple(g[o] for o in ctx) in model.support(ctx)
                   for ctx in model.scenario.contexts)]


def _mixed_radix_model():
    """Three-outcome observables with outcomes declared out of sorted
    order, contexts listing observables out of sorted order; the tables
    mix three global assignments."""
    observables = {"C": (2, 0, 1), "A": ("z", "x", "y"), "B": (1, 0),
                   "D": (0, 2, 1)}
    contexts = (("C", "A"), ("A", "D", "B"), ("D", "C"), ("B", "C"))
    picks = ({"A": "z", "B": 0, "C": 1, "D": 2},
             {"A": "y", "B": 1, "C": 2, "D": 2},
             {"A": "x", "B": 0, "C": 0, "D": 1})
    tables = {ctx: {} for ctx in contexts}
    for g in picks:
        for ctx in contexts:
            out = tuple(g[o] for o in ctx)
            tables[ctx][out] = tables[ctx].get(out, 0) + F(1, 3)
    return EmpiricalModel(scenario=Scenario(observables, contexts),
                          tables=tables)


class TestIncidence:
    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "mixed_radix"])
    def test_matches_dict_reference(self, name):
        model = (_mixed_radix_model() if name == "mixed_radix"
                 else _fixture(name))
        events, hits = _reference_incidence(model.scenario)
        got_events, got_hits, rows, p = analysis._lp_inputs(model)
        assert got_events == events
        assert np.array(got_hits).T.tolist() == hits
        assert rows == [[int(e in hit) for hit in hits]
                        for e in range(len(events))]
        assert p == [model.prob(ctx, o) for ctx, o in events]
        assert enumerate_global_sections(model) == _reference_sections(model)


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
        model = quantum_model_from_state(singlet_state())
        for ctx in model.scenario.contexts:
            assert sum(model.tables[ctx].values()) == pytest.approx(1.0)

    def test_product_state_noncontextual(self):
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0  # |00>
        model = quantum_model_from_state(state)
        res = contextual_fraction(model)
        assert float(res.fraction) == pytest.approx(0.0, abs=1e-9)
