"""Born-rule construction of two-qubit empirical models.

Measurement convention: the setting angle theta labels the qubit
observable cos(2*theta) Z + sin(2*theta) X, so for the singlet state the
correlator is E(theta_a, theta_b) = -cos 2(theta_a - theta_b).  The
Tsirelson settings (0, pi/4) x (pi/8, 3*pi/8) then give CHSH = 2*sqrt(2).
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import EmpiricalModel, Scenario

TSIRELSON_SETTINGS = ((0.0, math.pi / 4), (math.pi / 8, 3 * math.pi / 8))


def _qubit_projectors(theta: float):
    """Projectors onto the +/-1 eigenstates of cos(2t) Z + sin(2t) X."""
    a = 2.0 * theta
    plus = np.array([math.cos(a / 2), math.sin(a / 2)])
    minus = np.array([-math.sin(a / 2), math.cos(a / 2)])
    return {+1: np.outer(plus, plus), -1: np.outer(minus, minus)}


def quantum_model_from_state(state, settings=TSIRELSON_SETTINGS) -> EmpiricalModel:
    """Empirical model of a two-qubit state under projective measurements
    of the observables a0, a1 (first qubit) and b0, b1 (second qubit).

    state: length-4 complex vector in the |00>,|01>,|10>,|11> basis.
    settings: ((theta_a0, theta_a1), (theta_b0, theta_b1)) angles.
    """
    psi = np.asarray(state, dtype=complex).reshape(4)
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"state norm^2 is {norm}, expected 1")

    (ta0, ta1), (tb0, tb1) = settings
    angle = {"a0": ta0, "a1": ta1, "b0": tb0, "b1": tb1}
    observables = {name: (+1, -1) for name in angle}
    contexts = tuple((a, b) for a in ("a0", "a1") for b in ("b0", "b1"))
    scenario = Scenario(observables=observables, contexts=contexts)

    tables = {}
    for a, b in contexts:
        pa = _qubit_projectors(angle[a])
        pb = _qubit_projectors(angle[b])
        table = {}
        for oa in (+1, -1):
            for ob in (+1, -1):
                op = np.kron(pa[oa], pb[ob])
                p = float(np.vdot(psi, op @ psi).real)
                table[(oa, ob)] = max(p, 0.0)
        tables[(a, b)] = table
    return EmpiricalModel(scenario=scenario, tables=tables)


def singlet_state() -> np.ndarray:
    return np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
