"""Contextuality analyses over finite empirical models.

No-signalling audit, possibilistic global-section enumeration, the
contextual fraction, and the CHSH functional for bipartite 2-setting
2-outcome scenarios.  One LP per model gives the contextual fraction,
the decomposition into deterministic global assignments and, when there
is none, a Bell-type certificate taken from the LP's dual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scenario import EmpiricalModel, Scenario, ScenarioError
from .simplex import LpResult, _integral, solve_lp

ENUM_GUARD = 10 ** 6
LP_GUARD = 2 ** 14


class GuardExceeded(ValueError):
    pass


@dataclass
class NoSignallingReport:
    max_violation: float
    witness: tuple | None  # (context_a, context_b, shared_obs) of the max


def check_no_signalling(model: EmpiricalModel) -> NoSignallingReport:
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


def _context_hits(scenario: Scenario):
    """Yield (context, hits): hits[g] indexes `outcomes_of(context)` at
    the outcome that global assignment g gives the context.  Assignments
    are numbered in `global_assignments()` order, mixed radix over the
    sorted observables, each digit indexing its declared outcomes."""
    g = np.arange(scenario.n_global_assignments())
    stride, s = {}, 1
    for name in sorted(scenario.observables, reverse=True):
        stride[name] = s
        s *= len(scenario.observables[name])
    for ctx in scenario.contexts:
        hits = np.zeros_like(g)
        for o in ctx:
            radix = len(scenario.observables[o])
            hits = hits * radix + g // stride[o] % radix
        yield ctx, hits


def _assignments(scenario: Scenario, indices) -> list:
    """The global assignments numbered `indices`, as the dicts of
    `Scenario.global_assignments()`."""
    names = sorted(scenario.observables)
    digits = np.unravel_index(np.asarray(indices, dtype=np.intp),
                              [len(scenario.observables[o]) for o in names])
    columns = [[scenario.observables[o][k] for k in d.tolist()]
               for o, d in zip(names, digits)]
    return [dict(zip(names, combo)) for combo in zip(*columns)]


def enumerate_global_sections(model: EmpiricalModel) -> list:
    """All total outcome assignments consistent with every context support."""
    scenario = model.scenario
    n = scenario.n_global_assignments()
    if n > ENUM_GUARD:
        raise GuardExceeded(f"{n} global assignments exceed the "
                            f"enumeration guard of {ENUM_GUARD}")
    consistent = np.ones(n, dtype=bool)
    for ctx, hits in _context_hits(scenario):
        support = model.support(ctx)
        allowed = np.array([o in support for o in scenario.outcomes_of(ctx)])
        consistent &= allowed[hits]
    return _assignments(scenario, np.flatnonzero(consistent))


def _lp_inputs(model: EmpiricalModel):
    """Events, per context the event index of every assignment, the 0/1
    event-by-assignment rows and the event probabilities, after the guard."""
    scenario = model.scenario
    n = scenario.n_global_assignments()
    if n > LP_GUARD:
        raise GuardExceeded(f"{n} global assignments exceed the LP guard "
                            f"of {LP_GUARD}")
    events, hits, rows = [], [], []
    for ctx, h in _context_hits(scenario):
        outcomes = scenario.outcomes_of(ctx)
        block = h == np.arange(len(outcomes))[:, None]
        rows += block.astype(np.int8).tolist()
        hits.append(h + len(events))
        events += [(ctx, outcome) for outcome in outcomes]
    p = [model.prob(ctx, outcome) for ctx, outcome in events]
    return events, hits, rows, p


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


def _normalize_certificate(ray, events, hits, p):
    """The Certificate of a Farkas ray for M x = p (ray.M <= 0 < ray.p)."""
    if all(isinstance(v, Fraction) for v in ray):
        # the functional at each assignment, summed as integers over one
        # common denominator: Fraction sums cost a gcd per addition
        ints, d = _integral(ray)
        sums = sum(np.array(ints, dtype=object)[h] for h in hits).tolist()
        hi, lo = Fraction(max(sums), d), Fraction(min(sums), d)
    else:
        vals = sum(np.asarray(ray)[h] for h in hits).tolist()
        hi, lo = max(vals), min(vals)
    model_val = sum(yi * pi for yi, pi in zip(ray, p))
    width = hi - lo
    if width == 0:
        scale, shift = 1, 2 - hi
    else:
        scale = 4 / width if isinstance(width, Fraction) else 4.0 / width
        shift = 2 - scale * hi
    n_ctx = len(hits)
    # Each assignment (and each normalized model) hits every context once,
    # so adding shift/n_ctx per event shifts all functional values equally.
    coeffs = {e: scale * yi + shift / n_ctx for e, yi in zip(events, ray)}
    return Certificate(
        coefficients=coeffs,
        classical_bound=scale * hi + shift,
        value=scale * model_val + shift,
    )


@dataclass
class ContextualFractionResult:
    fraction: object
    dual_gap: float
    subnormalized_weights: list
    lp: dict                           # see _lp_record
    decomposition: DecompositionResult


def contextual_fraction(model: EmpiricalModel) -> ContextualFractionResult:
    """1 minus the largest total weight of a subnormalized noncontextual
    part dominated by the model: max sum(x) s.t. M x <= p, x >= 0.

    Per context, each column of M and p sum to 1.  So at CF = 0 the optimal
    x sums to 1 and M x = p: it is the decomposition.  At CF > 0 the dual y
    has y.M >= 1 and p.y = 1 - CF, so -y (shifted by 1/n_ctx per event,
    which the normalization ignores) is the certificate's Farkas ray.
    """
    events, hits, rows, p = _lp_inputs(model)
    res = solve_lp([1] * model.scenario.n_global_assignments(),
                   A_ub=rows, b_ub=p)
    weight = res.objective
    dual_obj = sum(yi * bi for yi, bi in zip(res.dual, p))
    tol = 0 if model.is_exact() else 1e-12
    support = [g for g, xg in enumerate(res.x) if xg > tol]
    weights = list(zip(_assignments(model.scenario, support),
                       [res.x[g] for g in support]))
    lp = _lp_record(res, rows)
    if 1 - weight <= tol:
        dec = DecompositionResult(feasible=True, weights=weights, lp=lp)
    else:
        cert = _normalize_certificate([-y for y in res.dual], events, hits, p)
        dec = DecompositionResult(feasible=False, certificate=cert, lp=lp)
    return ContextualFractionResult(
        fraction=1 - weight,
        dual_gap=abs(float(dual_obj) - float(weight)),
        subnormalized_weights=weights,
        lp=lp,
        decomposition=dec,
    )


def noncontextual_decompose(model: EmpiricalModel) -> DecompositionResult:
    """Convex decomposition into deterministic global assignments, or a
    separating Bell-type certificate (from `contextual_fraction`)."""
    return contextual_fraction(model).decomposition


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
