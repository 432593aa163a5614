"""Contextuality analyses over finite empirical models.

No-signalling audit, possibilistic global-section enumeration,
LP decomposition into deterministic global assignments (with a Bell-type
certificate from the dual on failure), the contextual fraction, and the
CHSH functional for bipartite 2-setting 2-outcome scenarios.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .scenario import EmpiricalModel, Scenario, ScenarioError
from .simplex import LpResult, solve_lp

ENUM_GUARD = 10 ** 6
LP_GUARD = 10 ** 4


class GuardExceeded(RuntimeError):
    pass


@dataclass
class NoSignallingReport:
    max_violation: float
    witness: tuple | None  # (context_a, context_b, shared_obs) of the max

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_violation <= tol


def check_no_signalling(model: EmpiricalModel, tol: float = 1e-9) -> NoSignallingReport:
    """Compare marginals of every context pair on their shared observables."""
    worst = 0.0
    witness = None
    ctxs = model.scenario.contexts
    for ca, cb in itertools.combinations(ctxs, 2):
        shared = tuple(o for o in ca if o in cb)
        if not shared:
            continue
        ma = model.marginal(ca, shared)
        mb = model.marginal(cb, shared)
        for key in set(ma) | set(mb):
            gap = abs(float(ma.get(key, 0)) - float(mb.get(key, 0)))
            if gap > worst:
                worst, witness = gap, (ca, cb, shared)
    return NoSignallingReport(max_violation=worst, witness=witness)


def enumerate_global_sections(model: EmpiricalModel) -> list:
    """All total outcome assignments consistent with every context support."""
    scenario = model.scenario
    if scenario.n_global_assignments() > ENUM_GUARD:
        raise GuardExceeded("assignment space exceeds enumeration guard")
    supports = {ctx: model.support(ctx) for ctx in scenario.contexts}
    sections = []
    for g in scenario.global_assignments():
        if all(tuple(g[o] for o in ctx) in supports[ctx]
               for ctx in scenario.contexts):
            sections.append(g)
    return sections


def _event_index(scenario: Scenario):
    """Flattened (context, outcome) event list and lookup table."""
    events = []
    for ctx in scenario.contexts:
        for outcome in scenario.outcomes_of(ctx):
            events.append((ctx, tuple(outcome)))
    return events, {e: i for i, e in enumerate(events)}


def _assignment_matrix(scenario: Scenario):
    """Incidence of deterministic assignments on events.

    Returns the events, the assignments and their hits: hits[g] lists, one
    per context, the index of the event that assignment g restricts to.
    """
    events, index = _event_index(scenario)
    assignments = list(scenario.global_assignments())
    hits = [[index[(ctx, tuple(g[o] for o in ctx))]
             for ctx in scenario.contexts] for g in assignments]
    return events, assignments, hits


def _lp_inputs(model: EmpiricalModel):
    """Events, assignments, hits, the 0/1 event-by-assignment matrix and
    the model's event probabilities, after the size guard."""
    scenario = model.scenario
    if scenario.n_global_assignments() > LP_GUARD:
        raise GuardExceeded("assignment space exceeds LP guard")
    events, assignments, hits = _assignment_matrix(scenario)
    rows = [[0] * len(assignments) for _ in events]
    for g, hit in enumerate(hits):
        for e in hit:
            rows[e][g] = 1
    p = [model.prob(ctx, outcome) for ctx, outcome in events]
    return events, assignments, hits, rows, p


def _lp_record(res: LpResult, rows) -> dict:
    """Size, status and exactness method of one LP, for run reports."""
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "status": res.status, "method": res.method}


@dataclass
class Certificate:
    """Bell-type functional separating the model from the noncontextual set.

    Normalized so that the maximum over deterministic assignments (the
    classical bound) is 2 and their spread is 4, matching the familiar
    CHSH presentation; `value` is the functional applied to the model.
    """

    coefficients: dict  # (context, outcome) -> weight
    classical_bound: object
    value: object


@dataclass
class DecompositionResult:
    feasible: bool
    weights: list | None = None        # (assignment, weight) pairs
    certificate: Certificate | None = None
    lp: dict | None = None             # see _lp_record


def _normalize_certificate(y, events, hits, p):
    vals = [sum(y[e] for e in hit) for hit in hits]
    model_val = sum(yi * pi for yi, pi in zip(y, p))
    hi, lo = max(vals), min(vals)
    width = hi - lo
    if width == 0:
        scale, shift = 1, 2 - hi
    else:
        scale = 4 / width if isinstance(width, Fraction) else 4.0 / width
        shift = 2 - scale * hi
    n_ctx = len({ctx for ctx, _ in events})
    # Each assignment (and each normalized model) hits every context once,
    # so adding shift/n_ctx per event shifts all functional values equally.
    coeffs = {e: scale * yi + shift / n_ctx for e, yi in zip(events, y)}
    return Certificate(
        coefficients=coeffs,
        classical_bound=scale * hi + shift,
        value=scale * model_val + shift,
    )


def noncontextual_decompose(model: EmpiricalModel) -> DecompositionResult:
    """Convex decomposition into deterministic global assignments, or a
    separating Bell-type certificate from the LP dual."""
    events, assignments, hits, A_eq, p = _lp_inputs(model)
    nvar = len(assignments)
    res = solve_lp([0] * nvar, A_eq=A_eq, b_eq=p)
    lp = _lp_record(res, A_eq)
    if res.status == "optimal":
        tol = 0 if model.is_exact() else 1e-12
        weights = [(assignments[g], res.x[g]) for g in range(nvar)
                   if res.x[g] > tol]
        return DecompositionResult(feasible=True, weights=weights, lp=lp)
    if res.status != "infeasible":
        raise RuntimeError(f"unexpected LP status {res.status}")
    cert = _normalize_certificate(res.farkas, events, hits, p)
    return DecompositionResult(feasible=False, certificate=cert, lp=lp)


@dataclass
class ContextualFractionResult:
    fraction: object
    noncontextual_weight: object
    dual_gap: float
    subnormalized_weights: list
    lp: dict                           # see _lp_record


def contextual_fraction(model: EmpiricalModel) -> ContextualFractionResult:
    """1 minus the largest total weight of a subnormalized noncontextual
    part dominated by the model (LP relaxation; 0 iff noncontextual)."""
    _, assignments, _, A_ub, p = _lp_inputs(model)
    nvar = len(assignments)
    res = solve_lp([1] * nvar, A_ub=A_ub, b_ub=p)
    if res.status != "optimal":
        raise RuntimeError(f"unexpected LP status {res.status}")
    weight = res.objective
    dual_obj = sum(yi * bi for yi, bi in zip(res.dual, p))
    gap = abs(float(dual_obj) - float(weight))
    tol = 0 if model.is_exact() else 1e-12
    return ContextualFractionResult(
        fraction=1 - weight,
        noncontextual_weight=weight,
        dual_gap=gap,
        subnormalized_weights=[(assignments[g], res.x[g]) for g in range(nvar)
                               if res.x[g] > tol],
        lp=_lp_record(res, A_ub),
    )


def _chsh_structure(scenario: Scenario):
    """Recognize a bipartite 2-setting 2-outcome scenario: four binary
    observables split into two parties, four two-element contexts crossing
    them."""
    if len(scenario.observables) != 4 or len(scenario.contexts) != 4:
        raise ScenarioError("CHSH needs 4 observables in 4 contexts")
    if any(len(c) != 2 for c in scenario.contexts):
        raise ScenarioError("CHSH contexts must be pairs")
    if any(len(v) != 2 for v in scenario.observables.values()):
        raise ScenarioError("CHSH observables must be two-outcome")
    firsts = {c[0] for c in scenario.contexts}
    seconds = {c[1] for c in scenario.contexts}
    if len(firsts) != 2 or len(seconds) != 2 or firsts & seconds:
        raise ScenarioError("contexts do not form a 2x2 bipartite cover")
    if {tuple(c) for c in scenario.contexts} != \
            {(a, b) for a in firsts for b in seconds}:
        raise ScenarioError("contexts do not form the full 2x2 product")
    return sorted(firsts), sorted(seconds)


def correlator(model: EmpiricalModel, context) -> float:
    """<AB> with outcomes mapped to +/-1 by their declared order."""
    ctx = tuple(context)
    signs = []
    for o in ctx:
        outs = model.scenario.observables[o]
        signs.append({outs[0]: 1, outs[1]: -1})
    return float(sum(p * signs[0][out[0]] * signs[1][out[1]]
                     for out, p in model.tables[ctx].items()))


def chsh_value(model: EmpiricalModel) -> float:
    """Max over sign conventions of |E(a,b) +/- E(a,b') +/- E(a',b) -/+ E(a',b')|."""
    (a, a2), (b, b2) = _chsh_structure(model.scenario)
    E = {(x, y): correlator(model, (x, y)) for x in (a, a2) for y in (b, b2)}
    best = 0.0
    for sa, sb, sc in itertools.product((1, -1), repeat=3):
        # one term always carries the product sign flip
        val = abs(sa * E[(a, b)] + sb * E[(a, b2)] + sc * E[(a2, b)]
                  - sa * sb * sc * E[(a2, b2)])
        best = max(best, val)
    return best
