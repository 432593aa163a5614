"""Measurement scenarios and empirical models (finite, table-based).

A scenario is a finite set of observables, each with a finite outcome
set, plus a cover of measurement contexts (subsets of jointly measurable
observables).  An empirical model attaches to every context a
probability table over that context's joint outcomes.  Probabilities may
be fractions.Fraction (exact) or floats; analyses preserve exactness
when all inputs are rational.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational

NORM_TOL = 1e-9


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    """observables: name -> tuple of outcomes; contexts: tuple of tuples."""

    observables: dict
    contexts: tuple

    def __post_init__(self):
        obs = {k: tuple(v) for k, v in self.observables.items()}
        ctxs = tuple(tuple(c) for c in self.contexts)
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "contexts", ctxs)
        for name, outs in obs.items():
            if len(outs) == 0:
                raise ScenarioError(f"observable {name!r} has no outcomes")
        covered = set(itertools.chain.from_iterable(ctxs))
        if covered != set(obs):
            missing = set(obs) - covered
            raise ScenarioError(f"observables not covered by any context: {missing}")
        if len(set(ctxs)) != len(ctxs):
            raise ScenarioError("duplicate contexts")
        for a, b in itertools.permutations(ctxs, 2):
            if set(a) < set(b):
                raise ScenarioError(f"context {a} is contained in {b}; cover "
                                    "must be an antichain")

    def outcomes_of(self, context) -> list:
        return list(itertools.product(*(self.observables[o] for o in context)))

    def global_assignments(self):
        """All total observable -> outcome maps, as dicts."""
        names = sorted(self.observables)
        for combo in itertools.product(*(self.observables[n] for n in names)):
            yield dict(zip(names, combo))

    def n_global_assignments(self) -> int:
        out = 1
        for outs in self.observables.values():
            out *= len(outs)
        return out


@dataclass(frozen=True)
class EmpiricalModel:
    """Per-context distributions over joint outcomes."""

    scenario: Scenario
    tables: dict  # context tuple -> {outcome tuple: probability}

    def __post_init__(self):
        tables = {}
        for ctx in self.scenario.contexts:
            if ctx not in self.tables:
                raise ScenarioError(f"missing table for context {ctx}")
            table = dict(self.tables[ctx])
            total = sum(table.values())
            for out, p in table.items():
                if not abs(p) < math.inf:
                    raise ScenarioError(f"non-finite probability {p} in {ctx}")
                # an exact entry must be >= 0 whatever the tolerance: the
                # exact LP starts from its slack basis, which needs p >= 0
                if p < 0 and (p < -NORM_TOL or isinstance(p, Rational)):
                    raise ScenarioError(f"negative probability {p} in {ctx}")
                out = tuple(out)
                if len(out) != len(ctx) or any(
                        v not in self.scenario.observables[o]
                        for o, v in zip(ctx, out)):
                    raise ScenarioError(f"outcome {out} invalid for context {ctx}")
            # an exact table must sum to exactly 1: the LP's decomposition
            # and certificate rely on it
            if abs(float(total) - 1.0) > NORM_TOL or (
                    isinstance(total, Rational) and total != 1):
                raise ScenarioError(f"table for {ctx} sums to {total}")
            tables[ctx] = {tuple(k): v for k, v in table.items()}
        object.__setattr__(self, "tables", tables)

    def prob(self, context, outcome):
        return self.tables[tuple(context)].get(tuple(outcome), 0)

    def support(self, context) -> set:
        return {o for o, p in self.tables[tuple(context)].items() if p > 0}

    def is_exact(self) -> bool:
        return all(isinstance(p, Rational)
                   for t in self.tables.values() for p in t.values())

    def marginal(self, context, sub_obs):
        """Distribution of the sub-tuple of observables within a context."""
        ctx = tuple(context)
        idx = [ctx.index(o) for o in sub_obs]
        out = {}
        for outcome, p in self.tables[ctx].items():
            key = tuple(outcome[i] for i in idx)
            out[key] = out.get(key, 0) + p
        return out


def _parse_prob(value):
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            raise ScenarioError(f"probability {value!r} is not a fraction")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"probability {value!r} is not a number")
    if isinstance(value, int):
        return Fraction(value)
    if not math.isfinite(value):
        raise ScenarioError(f"probability {value!r} is not finite")
    return value


def _format_prob(value):
    if isinstance(value, Rational) and not isinstance(value, int):
        return str(Fraction(value))
    return value


def _field(doc, key, kind, where):
    """doc[key], checked to be a `kind` (dict or list)."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where} is not an object")
    if key not in doc:
        raise ScenarioError(f"{where} has no {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"{where}: {key!r} is not "
                            f"{'an object' if kind is dict else 'a list'}")
    return value


def model_from_dict(doc: dict) -> EmpiricalModel:
    """Load a model from the JSON schema:

    {"observables": {"A": [0, 1], ...},
     "contexts": [["A", "B"], ...],
     "tables": [{"context": ["A", "B"],
                 "probabilities": {"0,0": "1/2", ...}}, ...]}

    Probabilities given as strings are parsed as exact fractions.  A
    document that does not follow the schema raises ScenarioError.
    """
    observables = _field(doc, "observables", dict, "model")
    contexts = _field(doc, "contexts", list, "model")
    entries = _field(doc, "tables", list, "model")
    for name, outs in observables.items():
        if not isinstance(outs, list) or not all(
                isinstance(o, (str, int, float)) for o in outs):
            raise ScenarioError(f"observable {name!r}: outcomes must be a "
                                "list of strings or numbers")
    if not all(isinstance(c, list) and all(isinstance(o, str) for o in c)
               for c in contexts):
        raise ScenarioError("contexts must be lists of observable names")
    scenario = Scenario(observables=observables,
                        contexts=tuple(tuple(c) for c in contexts))
    outcome_types = {name: {str(o): o for o in outs}
                     for name, outs in scenario.observables.items()}
    tables = {}
    for entry in entries:
        ctx = tuple(_field(entry, "context", list, "table"))
        probs = _field(entry, "probabilities", dict, f"table {ctx}")
        if ctx not in scenario.contexts:
            raise ScenarioError(f"table for unknown context {ctx}")
        table = {}
        for key, val in probs.items():
            parts = [s.strip() for s in key.split(",")]
            if len(parts) != len(ctx):
                raise ScenarioError(f"outcome key {key!r} has wrong arity for {ctx}")
            if any(p not in outcome_types[o] for o, p in zip(ctx, parts)):
                raise ScenarioError(f"outcome key {key!r} has an unknown "
                                    f"outcome for {ctx}")
            outcome = tuple(outcome_types[o][p] for o, p in zip(ctx, parts))
            table[outcome] = _parse_prob(val)
        tables[ctx] = table
    return EmpiricalModel(scenario=scenario, tables=tables)


def model_to_dict(model: EmpiricalModel) -> dict:
    tables = []
    for ctx in model.scenario.contexts:
        probs = {",".join(str(o) for o in outcome): _format_prob(p)
                 for outcome, p in sorted(model.tables[ctx].items(), key=str)}
        tables.append({"context": list(ctx), "probabilities": probs})
    return {
        "observables": {k: list(v) for k, v in model.scenario.observables.items()},
        "contexts": [list(c) for c in model.scenario.contexts],
        "tables": tables,
    }


def load_model(path) -> EmpiricalModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
