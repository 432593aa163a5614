"""Named experiments: configuration schema, runners, artifact emission.

Every experiment writes its outputs (CSV series, SLF1 snapshots, JSON
reports, SVG plots) plus a run manifest with a config hash and payload
checksums into an output directory.  Runs are deterministic given
(config, seed): RNG streams derive from the config seed and no payload
file embeds a timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .dynamics import (
    EvolutionAbort,
    EvolutionConfig,
    density_width,
    energy_expectation,
    evolve,
    lambda_sweep,
)
from .ensemble import (
    chi2_against_target,
    equivariance_test,
    nearest_time_indices,
    relaxation_h_series,
    sample_density,
)
from .grid_field import (
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    gaussian_packet,
    harmonic_ground_state,
    make_grid,
)
from .io_formats import (
    sha256_file,
    write_field_csv,
    write_json,
    write_series_csv,
    write_slf1,
    write_trajectories_csv,
)
from .fixtures import FIXTURE_NAMES
from .measurement import (TRAJECTORY_KINDS, MeasurementError, PointerModel,
                          evolve_pointer, read_out)
from .svgplot import line_plot
from .trajectories import StepRule, integrate_nelson, static_trace, \
    step_times, transport


class ConfigError(ValueError):
    pass


class NumericalAbort(RuntimeError):
    def __init__(self, message, diagnostic: dict):
        super().__init__(message)
        self.diagnostic = diagnostic


# name -> (runner(block, seed, out_dir) -> summary, block class, seed needed)
Experiment = namedtuple("Experiment", "run params stochastic")
EXPERIMENTS: dict[str, Experiment] = {}


def _register(name, params, stochastic=False):
    def deco(fn):
        EXPERIMENTS[name] = Experiment(fn, params, stochastic)
        return fn
    return deco


@dataclass(frozen=True)
class ExperimentConfig:
    """`params` is the raw dict the config hash covers; `block` is the
    parameter block checked and built from it, also by `replace`."""

    experiment: str
    seed: int | None = None
    params: dict = field(default_factory=dict)
    block: object = field(init=False, repr=False, compare=False)

    TOP_KEYS = ("experiment", "seed", "params")

    def __post_init__(self):
        name = self.experiment
        if not isinstance(name, str) or name not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
        spec = EXPERIMENTS[name]
        if self.seed is None:
            if spec.stochastic:
                raise ConfigError(f"experiment {name!r} is stochastic; seed "
                                  "is mandatory")
        elif type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an int >= 0, got {self.seed!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be an object, got {self.params!r}")
        unknown = set(self.params) - {f.name for f in fields(spec.params)}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in "
                              f"experiment {name!r}")
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "block", spec.params(**self.params))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - set(cls.TOP_KEYS)
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
        if "experiment" not in doc:
            raise ConfigError("missing required key: experiment")
        return cls(experiment=doc["experiment"], seed=doc.get("seed"),
                   params=doc.get("params", {}))

    def canonical(self) -> str:
        return json.dumps(
            {"experiment": self.experiment, "seed": self.seed,
             "params": self.params},
            sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig.from_dict(doc)


# ---------------------------------------------------------------- parameter
# blocks


# accepted value types and their description, by the type of the default
_TYPES = {int: ((int,), "an int"), float: ((int, float), "a finite number"),
          str: ((str,), "a string")}


def _typed(name: str, value, default):
    """`value` checked against the type of `default` (a bool is never a
    number); a tuple default takes a JSON list, returned as a tuple of
    values typed like the default's first element."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(f"{name}[{i}]", v, default[0])
                     for i, v in enumerate(value))
    accepted, what = _TYPES[type(default)]
    if type(value) not in accepted or (type(value) is float
                                       and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _ranged(default, ok: Callable, what: str):
    """A parameter field with its own range: `ok(value)` must hold."""
    return field(default=default, metadata={"range": (ok, what)})


_POSITIVE = (lambda v: not isinstance(v, (int, float)) or v > 0, "positive")


@dataclass(frozen=True)
class _Params:
    """Parameter block base: each value is typed like its default, and a
    number must be positive unless its field is `_ranged`.  A field whose
    default is None is checked by its range alone."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is not None:
                value = _typed(f.name, value, f.default)
                object.__setattr__(self, f.name, value)
            ok, what = f.metadata.get("range", _POSITIVE)
            if not ok(value):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class FreePacketParams(_Params):
    n: int = 512
    length: float = 40.0
    dt: float = 1e-3
    t_final: float = 2.0
    rho_width: float = 1.0


@dataclass(frozen=True)
class EigenstateHoldParams(_Params):
    n: int = 512
    length: float = 40.0
    dt: float = 1e-3
    steps: int = 1000
    omega: float = 1.0


@dataclass(frozen=True)
class LambdaSweepParams(_Params):
    n: int = 512
    length: float = 40.0
    dt: float = 1e-3
    t_final: float = 3.0
    separation: float = 8.0
    rho_width: float = 1.0
    # the sweep itself checks the list: non-empty, in [0, 1], ascending
    lambdas: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class EquivarianceParams(_Params):
    n: int = 512
    length: float = 40.0
    dt: float = 1e-3
    t_final: float = 2.0
    n_traj: int = 10000
    n_seeds: int = 20
    bins: int = 50
    traj_dt: float = 1e-2


@dataclass(frozen=True)
class NelsonBornParams(_Params):
    n: int = 256
    length: float = 20.0
    dt: float = 1e-3
    t_final: float = 20.0
    n_traj: int = 10000
    bins: int = 50
    omega: float = 1.0


@dataclass(frozen=True)
class RelaxationParams(_Params):
    n: int = 256
    length: float = 20.0
    dt: float = 1e-3
    t_final: float = 4.0
    n_traj: int = 6000
    coarse_bins: int = 16
    modes: int = 4
    uniform_halfwidth: float = 5.0


@dataclass(frozen=True)
class MeasurementParams(_Params):
    n: int = 128
    length: float = 30.0
    weight_a: float = _ranged(0.8, lambda v: 0 <= v <= 1, "in [0, 1]")
    n_traj: int = 10000
    coupling: float = _ranged(6.0, lambda v: v >= 0, ">= 0")
    kinds: tuple = _ranged(
        ("bohmian", "nelson"),
        lambda v: len(v) > 0 and set(v) <= set(TRAJECTORY_KINDS),
        f"a non-empty list drawn from {list(TRAJECTORY_KINDS)}")
    dt: float = 5e-3
    traj_dt: float = 1e-2


@dataclass(frozen=True)
class ContextualityParams(_Params):
    fixture: str = _ranged("pr_box", lambda v: v in FIXTURE_NAMES,
                           f"one of {list(FIXTURE_NAMES)}")
    model_path: str | None = _ranged(
        None, lambda v: v is None or isinstance(v, str) and os.path.isfile(v),
        "null or the path of an existing file")


# ---------------------------------------------------------------- runners


@_register("free_packet", FreePacketParams)
def _run_free_packet(p: FreePacketParams, seed, out: Path) -> dict:
    grid = make_grid(1, p.length, p.n)
    params = PhysicalParams.quantum()
    psi0 = gaussian_packet(grid, rho_width=p.rho_width)
    steps = int(round(p.t_final / p.dt))
    cfg = EvolutionConfig(dt=p.dt, steps=steps, params=params,
                          potential=PotentialSpec.free(),
                          snapshot_stride=max(1, steps // 40))
    trace = evolve(psi0, cfg)
    widths = [(s.t, density_width(s.psi)) for s in trace.snapshots]
    s0 = p.rho_width
    expected = s0 * math.sqrt(1.0 + (p.t_final / (2.0 * s0 ** 2)) ** 2)
    got = widths[-1][1]
    rel_err = abs(got - expected) / expected

    write_series_csv(widths, ["t", "width"], out / "width.csv")
    write_slf1(trace.final(), out / "final.slf1")
    write_field_csv(trace.final(), out / "final.csv", params)
    line_plot([("width(t)", [w[0] for w in widths], [w[1] for w in widths])],
              out / "width.svg", title="free packet dispersion",
              xlabel="t", ylabel="density width")
    return {
        "claim": "wavepacket dispersion in the fully quantum regime",
        "width_final": got,
        "width_expected": expected,
        "rel_err": rel_err,
        "assertions": {"width_within_0.1_percent": bool(rel_err < 1e-3)},
    }


@_register("eigenstate_hold", EigenstateHoldParams)
def _run_eigenstate_hold(p: EigenstateHoldParams, seed, out: Path) -> dict:
    grid = make_grid(1, p.length, p.n)
    params = PhysicalParams.quantum()
    psi0 = harmonic_ground_state(grid, omega=p.omega)
    pot = PotentialSpec.harmonic(p.omega)
    cfg = EvolutionConfig(dt=p.dt, steps=p.steps, params=params, potential=pot,
                          snapshot_stride=max(1, p.steps // 20))
    trace = evolve(psi0, cfg)
    rho0 = psi0.density()
    drift = max(float(np.max(np.abs(s.psi.density() - rho0)))
                for s in trace.snapshots)
    energies = [s.energy for s in trace.snapshots]
    e_drift = max(abs(e - energies[0]) for e in energies)
    write_series_csv([(s.t, s.norm, s.energy) for s in trace.snapshots],
                     ["t", "norm", "energy"], out / "diagnostics.csv")
    return {
        "claim": "stationary eigenstate is held by the propagator",
        "density_drift": drift,
        "energy_drift": e_drift,
        "energy0": energies[0],
        "assertions": {
            "density_drift_below_1e-6": bool(drift < 1e-6),
            "energy_drift_below_1e-7": bool(e_drift < 1e-7),
        },
    }


@_register("lambda_sweep", LambdaSweepParams)
def _run_lambda_sweep(p: LambdaSweepParams, seed, out: Path) -> dict:
    grid = make_grid(1, p.length, p.n)
    params = PhysicalParams.quantum()
    half = 0.5 * p.separation
    left = gaussian_packet(grid, center=-half, rho_width=p.rho_width)
    right = gaussian_packet(grid, center=+half, rho_width=p.rho_width)
    both = Wavefunction(grid, left.values + right.values).normalized()
    steps = int(round(p.t_final / p.dt))
    cfg = EvolutionConfig(dt=p.dt, steps=steps, params=params,
                          potential=PotentialSpec.free(),
                          snapshot_stride=max(1, steps // 10))
    entries = lambda_sweep(both, cfg, list(p.lambdas),
                           reference_components=[(left, 0.5), (right, 0.5)])
    rows = [(e.lam, e.visibility if e.visibility is not None else float("nan"),
             max(e.max_q_history) if e.max_q_history else float("nan"),
             e.status) for e in entries]
    write_series_csv(rows, ["lambda", "visibility", "max_Q", "status"],
                     out / "sweep.csv")
    report = [{"lambda": e.lam, "visibility": e.visibility,
               "max_Q": max(e.max_q_history) if e.max_q_history else None,
               "status": e.status} for e in entries]
    write_json(report, out / "sweep.json")
    ok_entries = [e for e in entries if e.status == "ok"]
    vis = [e.visibility for e in ok_entries]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(vis, vis[1:]))
    endpoints_strict = len(vis) >= 2 and vis[-1] > vis[0]
    line_plot([("visibility", [e.lam for e in ok_entries], vis)],
              out / "visibility.svg",
              title="interference visibility vs quantum-potential weight",
              xlabel="lambda", ylabel="visibility")
    return {
        "claim": "interference grows monotonically with the "
                 "quantum-potential weight",
        "visibility": {str(e.lam): e.visibility for e in ok_entries},
        "aborted": [e.lam for e in entries if e.status != "ok"],
        "assertions": {
            "visibility_nondecreasing": bool(nondecreasing),
            "strict_increase_between_endpoints": bool(endpoints_strict),
        },
    }


@_register("equivariance", EquivarianceParams, stochastic=True)
def _run_equivariance(p: EquivarianceParams, seed, out: Path) -> dict:
    grid = make_grid(1, p.length, p.n)
    params = PhysicalParams.quantum()
    psi0 = gaussian_packet(grid, rho_width=1.0)
    steps = int(round(p.t_final / p.dt))
    stride = max(1, int(round(p.traj_dt / p.dt)))
    cfg = EvolutionConfig(dt=p.dt, steps=steps, params=params,
                          potential=PotentialSpec.free(),
                          snapshot_stride=stride)
    trace = evolve(psi0, cfg)
    target = trace.final().density()
    seeds = [seed + i for i in range(p.n_seeds)]
    # every seed's ensemble in one transport, each its own array: the
    # fields are built once, and each gather stays within one ensemble
    runs = [(sample_density(psi0.density(), grid, p.n_traj, s),
             StepRule("bohmian")) for s in seeds]
    ensembles = transport(trace, runs, p.traj_dt, params, keep=[-1])
    rows = []
    passes = 0
    for sub_seed, ens in zip(seeds, ensembles):
        rep = equivariance_test(ens, target, grid, -1, bins=p.bins)
        passes += rep.p_value > 0.01
        rows.append((sub_seed, rep.chi2, rep.dof, rep.p_value))
    write_series_csv(rows, ["seed", "chi2", "dof", "p_value"],
                     out / "chi2.csv")
    return {
        "claim": "pilot-wave transport preserves the wave density "
                 "(equivariance)",
        "passes": passes,
        "n_seeds": p.n_seeds,
        "assertions": {"at_least_18_of_20": bool(20 * passes >= 18 * p.n_seeds)},
    }


@_register("nelson_born", NelsonBornParams, stochastic=True)
def _run_nelson_born(p: NelsonBornParams, seed, out: Path) -> dict:
    grid = make_grid(1, p.length, p.n)
    params = PhysicalParams.quantum()
    psi = harmonic_ground_state(grid, omega=p.omega)
    trace = static_trace(psi)
    steps = int(round(p.t_final / p.dt))
    q0 = sample_density(psi.density(), grid, p.n_traj, seed)
    # the path sample's rows, then the final step that chi2 reads
    rows = range(0, steps + 1, max(1, steps // 100))
    # pure-Brownian control: same q0 and noise rows, drift forced to zero
    rules = [StepRule("nelson", rng_seed=seed),
             StepRule("nelson", rng_seed=seed, drift_override="zero")]
    ens, ctrl = transport(trace, [(q0, rule) for rule in rules], p.dt,
                          params, steps, keep=sorted({*rows, steps}))
    rep = chi2_against_target(ens.final_positions()[:, 0], psi.density(),
                              grid, p.bins)
    rep_ctrl = chi2_against_target(ctrl.final_positions()[:, 0], psi.density(),
                                   grid, p.bins)
    write_json({"diffusion": rep.as_dict(), "brownian_control":
                rep_ctrl.as_dict()}, out / "chi2.json")
    write_trajectories_csv(
        replace(ens, times=ens.times[:len(rows)],
                positions=ens.positions[:, :len(rows)]),
        out / "paths_sample.csv")
    return {
        "claim": "the wave density is the stationary law of the drifted "
                 "diffusion (Born rule from stochastic kinematics)",
        "p_value": rep.p_value,
        "p_value_brownian_control": rep_ctrl.p_value,
        "assertions": {
            "diffusion_matches_density": bool(rep.p_value > 0.01),
            "control_rejected": bool(rep_ctrl.p_value < 1e-6),
        },
    }


@_register("relaxation", RelaxationParams, stochastic=True)
def _run_relaxation(p: RelaxationParams, seed, out: Path) -> dict:
    grid = make_grid(1, p.length, p.n)
    params = PhysicalParams.quantum()
    x = grid.axis_coords
    from numpy.polynomial.hermite import hermval
    vals = np.zeros_like(x)
    for k in range(p.modes):
        vals = vals + hermval(x, [0] * k + [1]) * np.exp(-x ** 2 / 2)
    psi0 = Wavefunction(grid, vals).normalized()
    steps = int(round(p.t_final / p.dt))
    stride = max(1, steps // 40)
    cfg = EvolutionConfig(dt=p.dt, steps=steps, params=params,
                          potential=PotentialSpec.harmonic(), snapshot_stride=stride)
    trace = evolve(psi0, cfg)
    rho_uniform = np.where(np.abs(x) < p.uniform_halfwidth, 1.0, 0.0)
    rho_uniform = rho_uniform / (rho_uniform.sum() * grid.dx)
    q0 = sample_density(rho_uniform, grid, p.n_traj, seed)
    times = [s.t for s in trace.snapshots]
    keep = np.unique(nearest_time_indices(step_times(trace, p.dt), times))
    ens = integrate_nelson(trace, q0, p.dt, params, seed, keep=keep)
    frames = [s.psi.density() for s in trace.snapshots]
    series = relaxation_h_series(ens, frames, times, grid, p.coarse_bins)
    write_series_csv(series, ["t", "H"], out / "h_series.csv")
    line_plot([("H(t)", [t for t, _ in series], [h for _, h in series])],
              out / "h_series.svg", title="coarse-grained relative entropy",
              xlabel="t", ylabel="H")
    # H = inf (mass where the wave has none) is null in JSON, and fails
    h0, hend = (h if math.isfinite(h) else None
                for h in (series[0][1], series[-1][1]))
    return {
        "claim": "a nonequilibrium ensemble relaxes toward the wave density "
                 "under the drifted diffusion",
        "H_initial": h0,
        "H_final": hend,
        "assertions": {"H_decreases": None not in (h0, hend) and hend < h0},
    }


@_register("measurement", MeasurementParams, stochastic=True)
def _run_measurement(p: MeasurementParams, seed, out: Path) -> dict:
    grid = make_grid(2, p.length, p.n)
    params = PhysicalParams.quantum()
    c = (math.sqrt(p.weight_a), math.sqrt(1.0 - p.weight_a))
    model = PointerModel(grid=grid, c=c, coupling=p.coupling)
    trace = evolve_pointer(model, params, dt=p.dt)
    reports = {}
    ok = True
    for rep in read_out(model, params, trace, p.n_traj, seed, p.kinds,
                        p.traj_dt):
        reports[rep.kind] = rep.as_dict()
        ok = ok and rep.status == "pass" and rep.overlap < 0.01 \
            and rep.branch_norm_drift < 1e-6
    write_json(reports, out / "outcomes.json")
    return {
        "claim": "pointer readout statistics reproduce the branch weights "
                 "through amplification alone (no collapse rule)",
        "reports": reports,
        "assertions": {"born_frequencies_all_kinds": bool(ok)},
    }


@_register("contextuality", ContextualityParams)
def _run_contextuality(p: ContextualityParams, seed, out: Path) -> dict:
    from .contextuality import (
        ScenarioError,
        check_no_signalling,
        chsh_value,
        contextual_fraction,
        enumerate_global_sections,
        load_model,
    )
    from .fixtures import fixture_path

    path = Path(p.model_path) if p.model_path else fixture_path(p.fixture)
    model = load_model(path)
    ns = check_no_signalling(model)
    sections = enumerate_global_sections(model)
    cf = contextual_fraction(model)
    dec = cf.decomposition
    try:
        chsh = chsh_value(model)
    except ScenarioError:  # not a CHSH scenario
        chsh = None
    if dec.feasible:
        classification = "noncontextual"
    elif not sections:
        classification = "strongly contextual"
    else:
        classification = "contextual"
    report = {
        "model": path.stem,
        "no_signalling_max_violation": ns.max_violation,
        "global_sections": len(sections),
        "contextual_fraction": float(cf.fraction),
        "lp_dual_gap": cf.dual_gap,
        "decomposition_feasible": dec.feasible,
        "certificate_value": (float(dec.certificate.value)
                              if dec.certificate else None),
        "certificate_classical_bound": (float(dec.certificate.classical_bound)
                                        if dec.certificate else None),
        "chsh": chsh,
        "classification": classification,
        "lp": {"contextual_fraction": cf.lp},
    }
    write_json(report, out / "analysis.json")
    return {
        "claim": "obstructions to a global outcome assignment are decided "
                 "by enumeration and LP decomposition",
        **report,
        "assertions": {"lp_dual_gap_below_1e-9": bool(cf.dual_gap < 1e-9)},
    }


# ---------------------------------------------------------------- driver


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment; returns the summary dict (also written to
    summary.json next to the artifacts, with a manifest)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed if cfg.seed is not None else 0
    t0 = time.time()
    try:
        summary = EXPERIMENTS[cfg.experiment].run(cfg.block, seed, out)
    except (EvolutionAbort, MeasurementError) as exc:
        diagnostic = {"experiment": cfg.experiment, "error": str(exc),
                      "config_hash": cfg.config_hash()}
        write_json(diagnostic, out / "abort.json")
        raise NumericalAbort(str(exc), diagnostic) from exc
    except ValueError as exc:
        # the domain's own checks: grid size, kinetic dt bound, lambda
        # list, model contents
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:  # sizes whose arrays cannot be allocated
        raise ConfigError(f"the config's arrays do not fit in memory: "
                          f"{exc}") from exc
    elapsed = time.time() - t0

    summary = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        **summary,
        "passed": all(summary.get("assertions", {}).values()),
    }
    write_json(summary, out / "summary.json")

    payloads = sorted(f for f in out.iterdir()
                      if f.is_file() and f.name != "manifest.json")
    manifest = {
        "config_hash": cfg.config_hash(),
        "config": json.loads(cfg.canonical()),
        "tool_version": __version__,
        "elapsed_seconds": round(elapsed, 3),
        "created_unix": int(time.time()),
        "checksums": {f.name: sha256_file(f) for f in payloads},
    }
    write_json(manifest, out / "manifest.json")
    return summary
