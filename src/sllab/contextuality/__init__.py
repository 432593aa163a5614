"""Finite presheaf-style contextuality toolkit: scenarios, empirical
models, no-signalling audits, global-section enumeration, LP-based
noncontextual decomposition and contextual fraction, CHSH analysis."""

from .analysis import (
    Certificate,
    ContextualFractionResult,
    DecompositionResult,
    GuardExceeded,
    NoSignallingReport,
    check_no_signalling,
    chsh_value,
    contextual_fraction,
    correlator,
    enumerate_global_sections,
    noncontextual_decompose,
)
from .quantum import (
    TSIRELSON_SETTINGS,
    quantum_model_from_state,
    singlet_state,
)
from .scenario import (
    EmpiricalModel,
    Scenario,
    ScenarioError,
    load_model,
    model_from_dict,
)
from .simplex import LpError, LpResult, solve_lp

__all__ = [
    "Certificate", "ContextualFractionResult", "DecompositionResult",
    "GuardExceeded", "NoSignallingReport", "check_no_signalling",
    "chsh_value", "contextual_fraction", "correlator",
    "enumerate_global_sections", "noncontextual_decompose",
    "TSIRELSON_SETTINGS", "quantum_model_from_state", "singlet_state",
    "EmpiricalModel", "Scenario", "ScenarioError", "load_model",
    "model_from_dict",
    "LpError", "LpResult", "solve_lp",
]
