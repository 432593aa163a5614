"""Seeded inputs for the four benchmark workloads.

Each workload is a list of operations.  An operation is one
``run_experiment`` call on a generated config document, or (``pointer``
only) the export of the final pointer field through
``io_formats.write_field_csv``.  The program receives only the files
written by :func:`generate`.

Only ``lp`` depends on the seed.  ``wave`` and ``pointer`` run fixed
configs so that every deterministic summary number can be checked against
``reference.json``; ``ensemble`` keeps the shipped seeds of its stochastic
experiments because their fixed-seed statistical gates (a 1 % false-alarm
rate for ``nelson_born``) would otherwise fail on some benchmark seeds
through no fault of the program.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("wave", "ensemble", "pointer", "lp")

# lp model family: bipartite, K binary settings per party, one outcome
# parity per context mixed with white noise at visibility V.
K_SETTINGS = 3
CLASS_PATTERNS = {                      # parity pattern per frustration class
    0: ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    1: ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
    2: ((0, 0, 0), (0, 0, 1), (0, 1, 0)),
}
V = Fraction(4, 5)
FIXTURES = ("pr_box", "classical_correlated", "hardy", "ks_odd_cycle",
            "singlet_chsh")

MEASUREMENT_DOC = {
    "experiment": "measurement", "seed": 7,
    "params": {"n": 128, "weight_a": 0.8, "n_traj": 10000,
               "kinds": ["bohmian", "nelson"]},
}

# configs/lambda_sweep.json, the size of the ROADMAP baseline row
SHIPPED_LAMBDA_SWEEP = {
    "experiment": "lambda_sweep",
    "params": {"n": 512, "length": 40.0, "dt": 0.001, "t_final": 3.0,
               "separation": 8.0, "lambdas": [0.0, 0.25, 0.5, 0.75, 1.0]},
}

FIXED_DOCS = {
    "wave": [
        {"experiment": "lambda_sweep",
         "params": {"n": 512, "length": 40.0, "dt": 0.001, "t_final": 1.0,
                    "separation": 8.0,
                    "lambdas": [0.0, 0.25, 0.5, 0.75, 1.0]}},
        {"experiment": "eigenstate_hold",
         "params": {"n": 512, "length": 40.0, "dt": 0.001, "steps": 1000,
                    "omega": 1.0}},
        {"experiment": "free_packet",
         "params": {"n": 512, "length": 40.0, "dt": 0.001, "t_final": 2.0}},
    ],
    "ensemble": [
        {"experiment": "nelson_born", "seed": 11,
         "params": {"n_traj": 3000, "t_final": 2.0, "bins": 50}},
        {"experiment": "equivariance", "seed": 0,
         "params": {"n_traj": 5000, "n_seeds": 2, "bins": 50}},
        {"experiment": "relaxation", "seed": 5,
         "params": {"n_traj": 6000, "t_final": 1.0, "coarse_bins": 16}},
    ],
    "pointer": [MEASUREMENT_DOC],
}


@dataclass
class Op:
    """One timed operation: ``kind`` is "experiment" or "export"."""

    name: str
    kind: str
    config_path: Path
    expect: dict = field(default_factory=dict)


def frustration(f) -> int:
    """Fewest contexts whose parity must flip for f(i, j) = a_i xor b_j.

    0 means a local (noncontextual) parity pattern.  Relabelling
    outcomes or settings is a symmetry of the LP, so the contextual
    fraction of a model depends only on this class and on v; for K = 3
    the classes are 0, 1 and 2 (CLASS_PATTERNS).
    """
    k = len(f)
    return min(sum(f[i][j] ^ a[i] ^ b[j] for i in range(k) for j in range(k))
               for a in itertools.product((0, 1), repeat=k)
               for b in itertools.product((0, 1), repeat=k))


def parity_model(pattern, v: Fraction, alpha=None, beta=None) -> dict:
    """Model document with parity f(i, j) = pattern[i][j] ^ alpha[i] ^ beta[j]:

        p(a, b | i, j) = v [a xor b = f(i, j)] / 2 + (1 - v) / 4.

    Observable a_i lists outcome alpha[i] first (b_j: beta[j]), so the
    relabelled model has, position by position, the LP of ``pattern``:
    the dense simplex takes the same pivots whatever alpha and beta are.
    Every marginal is 1/2, so the model is no-signalling by construction.
    """
    k = len(pattern)
    alpha = alpha or (0,) * k
    beta = beta or (0,) * k
    observables = {f"a{i}": [alpha[i], 1 - alpha[i]] for i in range(k)}
    observables.update({f"b{j}": [beta[j], 1 - beta[j]] for j in range(k)})
    contexts, tables = [], []
    for i in range(k):
        for j in range(k):
            f = pattern[i][j] ^ alpha[i] ^ beta[j]
            ctx = [f"a{i}", f"b{j}"]
            probs = {f"{a},{b}": str((v / 2 if a ^ b == f else 0)
                                     + (1 - v) / 4)
                     for a in (0, 1) for b in (0, 1)}
            contexts.append(ctx)
            tables.append({"context": ctx, "probabilities": probs})
    return {"observables": observables, "contexts": contexts,
            "tables": tables}


def lp_family(seed: int) -> list:
    """(class, alpha, beta) for each generated model, in run order.

    One model per frustration class, at visibility V; the seed draws the
    parities, as random outcome relabellings alpha, beta of the class
    pattern, and the run order.  Relabelling keeps the pivots, so every
    seed gives the solver the same work.  Drawing v or permuting settings
    as well moved the time of a model by up to 30 %, and of a pass by
    about 10 %, from seed to seed.
    """
    rng = random.Random(seed)
    family = []
    for cls in CLASS_PATTERNS:
        alpha = tuple(rng.getrandbits(1) for _ in range(K_SETTINGS))
        beta = tuple(rng.getrandbits(1) for _ in range(K_SETTINGS))
        family.append((cls, alpha, beta))
    rng.shuffle(family)
    return family


def _write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def generate(workload: str, seed: int, inputs: Path, reference: dict) -> list:
    """Write the workload's config (and model) files; return its ops.

    ``reference`` supplies the values each op's outputs are checked
    against; it is read here only to attach them to the ops.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []

    def add(name, doc, kind="experiment", expect=None):
        path = inputs / f"{name}.json"
        _write_json(doc, path)
        ops.append(Op(name, kind, path, expect or {}))

    if workload in FIXED_DOCS:
        for doc in FIXED_DOCS[workload]:
            name = doc["experiment"]
            add(name, doc, expect=reference.get(workload, {}).get(name, {}))
    if workload == "pointer":
        add("export", MEASUREMENT_DOC, kind="export",
            expect=reference["pointer"]["export"])
    if workload == "lp":
        table = reference["lp"]["family"]
        for idx, (cls, alpha, beta) in enumerate(lp_family(seed)):
            name = f"m{idx:02d}"
            model_path = inputs / f"{name}-model.json"
            _write_json(parity_model(CLASS_PATTERNS[cls], V, alpha, beta),
                        model_path)
            add(name, {"experiment": "contextuality",
                       "params": {"model_path": str(model_path)}},
                expect=table[str(cls)])
        for fixture in FIXTURES:
            add(fixture, {"experiment": "contextuality",
                          "params": {"fixture": fixture}},
                expect=reference["lp"]["fixtures"][fixture])
    return ops


def validate(ops) -> dict:
    """Schema-check every generated config and model; returns configs."""
    from sllab.contextuality import load_model
    from sllab.experiments import load_config

    configs = {}
    for op in ops:
        cfg = load_config(op.config_path)
        model_path = cfg.params.get("model_path")
        if model_path is not None:
            load_model(model_path)
        configs[op.name] = cfg
    return configs


def closed_form_fraction(cls: int, v: Fraction) -> Fraction:
    """Contextual fraction of a parity model at v >= 1/2: 0 for a local
    pattern, else 2v - 1, the CHSH violation (4v - 2) / 2 of a frustrated
    2x2 block.  Used only to cross-check the recorded table."""
    return Fraction(0) if cls == 0 else 2 * v - 1


def field_aggregates(csv_path: Path, n: int, length: float) -> dict:
    """Norm, pointer mean, mean Q and phase consistency of a 2-D field CSV.

    The phase residual is max |R exp(iS) - psi| off the nodes (hbar = 1).
    """
    import numpy as np

    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    x, y, re, im, R, S, Q = data.T
    cell = (length / n) ** 2
    rho = R ** 2 * cell
    live = R >= 1e-6 * R.max()   # node points carry a filled-in phase
    return {
        "rows": int(data.shape[0]),
        "norm": float(rho.sum()),
        "mean_y": float((rho * y).sum()),
        "mean_q": float((rho * Q).sum()),
        "phase_residual": float(np.max(np.abs(
            R[live] * np.exp(1j * S[live]) - (re[live] + 1j * im[live])))),
    }


def pointer_export(cfg, out: Path) -> None:
    """Evolve the measurement's pointer model and export its final field."""
    from sllab.experiments import MeasurementParams
    from sllab.grid_field import PhysicalParams, make_grid
    from sllab.io_formats import write_field_csv
    from sllab.measurement import PointerModel, evolve_pointer

    p = MeasurementParams(**cfg.params)
    params = PhysicalParams.quantum()
    model = PointerModel(grid=make_grid(2, p.length, p.n),
                         c=(math.sqrt(p.weight_a), math.sqrt(1.0 - p.weight_a)),
                         coupling=p.coupling)
    trace = evolve_pointer(model, params, dt=p.dt)
    out.mkdir(parents=True, exist_ok=True)
    write_field_csv(trace.final(), out / "pointer_field.csv", params)
