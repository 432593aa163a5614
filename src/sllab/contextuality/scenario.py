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
    tol: float = NORM_TOL

    def __post_init__(self):
        tables = {}
        for ctx in self.scenario.contexts:
            if ctx not in self.tables:
                raise ScenarioError(f"missing table for context {ctx}")
            table = dict(self.tables[ctx])
            total = sum(table.values())
            for out, p in table.items():
                if p < -self.tol:
                    raise ScenarioError(f"negative probability {p} in {ctx}")
                out = tuple(out)
                if len(out) != len(ctx) or any(
                        v not in self.scenario.observables[o]
                        for o, v in zip(ctx, out)):
                    raise ScenarioError(f"outcome {out} invalid for context {ctx}")
            if abs(float(total) - 1.0) > self.tol:
                raise ScenarioError(f"table for {ctx} sums to {float(total)}")
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
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    return float(value)


def _format_prob(value):
    if isinstance(value, Rational) and not isinstance(value, int):
        return str(Fraction(value))
    return value


def model_from_dict(doc: dict) -> EmpiricalModel:
    """Load a model from the JSON schema:

    {"observables": {"A": [0, 1], ...},
     "contexts": [["A", "B"], ...],
     "tables": [{"context": ["A", "B"],
                 "probabilities": {"0,0": "1/2", ...}}, ...]}

    Probabilities given as strings are parsed as exact fractions.
    """
    scenario = Scenario(observables=doc["observables"],
                        contexts=tuple(tuple(c) for c in doc["contexts"]))
    outcome_types = {name: {str(o): o for o in outs}
                     for name, outs in scenario.observables.items()}
    tables = {}
    for entry in doc["tables"]:
        ctx = tuple(entry["context"])
        table = {}
        for key, val in entry["probabilities"].items():
            parts = [s.strip() for s in key.split(",")]
            if len(parts) != len(ctx):
                raise ScenarioError(f"outcome key {key!r} has wrong arity for {ctx}")
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
