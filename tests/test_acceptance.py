"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with its measured numbers (run with -s to see them all)."""

import json
import math
import time

import numpy as np
import pytest

from sllab.contextuality import (
    check_no_signalling,
    chsh_value,
    contextual_fraction,
    enumerate_global_sections,
    load_model,
    noncontextual_decompose,
)
from sllab.dynamics import EvolutionConfig, density_width, evolve, lambda_sweep
from sllab.ensemble import chi2_against_target, equivariance_test, \
    sample_density
from sllab.experiments import ExperimentConfig, run_experiment
from sllab.fixtures import fixture_path
from sllab.grid_field import (
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    gaussian_packet,
    harmonic_ground_state,
    make_grid,
)
from sllab.io_formats import sha256_file
from sllab.measurement import PointerModel, run_measurement
from sllab.trajectories import StepRule, integrate_bohmian, static_trace, \
    transport
from oracles import crank_nicolson_evolve

QUANTUM = PhysicalParams.quantum()


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_free_packet_dispersion():
    t0 = time.time()
    g = make_grid(1, 40.0, 512)
    cfg = EvolutionConfig(dt=1e-3, steps=2000, params=QUANTUM,
                          potential=PotentialSpec.free(), snapshot_stride=2000)
    width = density_width(evolve(gaussian_packet(g), cfg).final())
    elapsed = time.time() - t0
    rel = abs(width - math.sqrt(2.0)) / math.sqrt(2.0)
    ok = rel < 1e-3 and elapsed < 10.0
    _report(1, "free-packet dispersion",
            ok, f"width={width:.6f}, rel_err={rel:.2e}, {elapsed:.1f}s")


def test_02_eigenstate_hold():
    g = make_grid(1, 40.0, 512)
    psi0 = harmonic_ground_state(g)
    cfg = EvolutionConfig(dt=1e-3, steps=1000, params=QUANTUM,
                          potential=PotentialSpec.harmonic(),
                          snapshot_stride=100)
    trace = evolve(psi0, cfg)
    drift = max(float(np.max(np.abs(s.psi.density() - psi0.density())))
                for s in trace.snapshots)
    energies = [s.energy for s in trace.snapshots]
    e_drift = max(abs(e - energies[0]) for e in energies)
    ok = drift < 1e-6 and e_drift < 1e-7
    _report(2, "eigenstate hold",
            ok, f"density_drift={drift:.2e}, energy_drift={e_drift:.2e}")


def test_03_classical_limit():
    g = make_grid(1, 40.0, 512)
    psi0 = gaussian_packet(g)
    cfg0 = EvolutionConfig(dt=1e-3, steps=1000,
                           params=PhysicalParams.classical(),
                           potential=PotentialSpec.free(), snapshot_stride=200)
    trace0 = evolve(psi0, cfg0)
    drift = max(float(np.max(np.abs(s.psi.density() - psi0.density())))
                for s in trace0.snapshots)
    cfg1 = EvolutionConfig(dt=1e-3, steps=2000, params=QUANTUM,
                           potential=PotentialSpec.free(), snapshot_stride=2000)
    ratio = density_width(evolve(psi0, cfg1).final()) / density_width(psi0)
    ok = drift < 1e-4 and ratio > 1.3
    _report(3, "classical limit",
            ok, f"static_drift={drift:.2e}, quantum_width_ratio={ratio:.3f}")


def test_04_mesoscopic_monotonicity():
    t0 = time.time()
    g = make_grid(1, 40.0, 512)
    left = gaussian_packet(g, center=-4.0)
    right = gaussian_packet(g, center=+4.0)
    both = Wavefunction(g, left.values + right.values).normalized()
    cfg = EvolutionConfig(dt=1e-3, steps=3000, params=QUANTUM,
                          potential=PotentialSpec.free(), snapshot_stride=500)
    entries = lambda_sweep(both, cfg, [0.0, 0.25, 0.5, 0.75, 1.0],
                           reference_components=[(left, 0.5), (right, 0.5)])
    elapsed = time.time() - t0
    vis = [e.visibility for e in entries if e.status == "ok"]
    ok = (len(vis) == 5
          and all(b >= a for a, b in zip(vis, vis[1:]))
          and vis[-1] > vis[0]
          and elapsed < 120.0)
    _report(4, "mesoscopic monotonicity", ok,
            "visibility=" + "/".join(f"{v:.4f}" for v in vis)
            + f", {elapsed:.0f}s")


def test_05_bohmian_equivariance():
    g = make_grid(1, 40.0, 512)
    psi0 = gaussian_packet(g)
    cfg = EvolutionConfig(dt=1e-3, steps=2000, params=QUANTUM,
                          potential=PotentialSpec.free(), snapshot_stride=10)
    trace = evolve(psi0, cfg)
    target = trace.final().density()
    passes = 0
    for seed in range(20):
        q0 = sample_density(psi0.density(), g, 10_000, seed)
        ens = integrate_bohmian(trace, q0, 1e-2, QUANTUM)
        rep = equivariance_test(ens, target, g, -1, bins=50)
        passes += rep.p_value > 0.01
    ok = passes >= 18
    _report(5, "bohmian equivariance", ok, f"{passes}/20 seeds at p>0.01")


def test_06_born_rule_from_diffusion():
    g = make_grid(1, 20.0, 256)
    psi = harmonic_ground_state(g)
    trace = static_trace(psi)
    q0 = sample_density(psi.density(), g, 10_000, 11)
    # t = 20; the diffusion and its Brownian control share one noise draw
    # and record only their final positions
    ens, ctrl = transport(trace, [(q0, StepRule("nelson", rng_seed=11)),
                                  (q0, StepRule("nelson", rng_seed=11,
                                                drift_override="zero"))],
                          2e-3, QUANTUM, steps=10_000, keep=[-1])
    rep = chi2_against_target(ens.final_positions()[:, 0], psi.density(), g, 50)
    rep_ctrl = chi2_against_target(ctrl.final_positions()[:, 0],
                                   psi.density(), g, 50)
    ok = rep.p_value > 0.01 and rep_ctrl.p_value < 1e-6
    _report(6, "born rule from diffusion", ok,
            f"diffusion_p={rep.p_value:.3f}, control_p={rep_ctrl.p_value:.1e}")


def test_07_measurement_statistics():
    g = make_grid(2, 30.0, 128)
    model = PointerModel(grid=g, c=(math.sqrt(0.8), math.sqrt(0.2)))
    details = []
    ok = True
    for kind in ("bohmian", "nelson"):
        rep = run_measurement(model, QUANTUM, n_traj=10_000, seed=7, kind=kind)
        ok = ok and rep.status == "pass" and rep.overlap < 0.01 \
            and rep.branch_norm_drift < 1e-6
        details.append(f"{kind}:f={rep.frequencies[0]:.4f}"
                       f"(ci {rep.ci3sigma[0]:.4f}) ov={rep.overlap:.4f} "
                       f"drift={rep.branch_norm_drift:.1e}")
    _report(7, "measurement statistics", ok, "; ".join(details))


def test_08_contextuality_suite():
    t0 = time.time()
    pr = load_model(fixture_path("pr_box"))
    singlet = load_model(fixture_path("singlet_chsh"))
    classical = load_model(fixture_path("classical_correlated"))

    pr_ok = (check_no_signalling(pr).max_violation == 0.0
             and enumerate_global_sections(pr) == []
             and abs(float(contextual_fraction(pr).fraction) - 1.0) <= 1e-9
             and abs(chsh_value(pr) - 4.0) <= 1e-12)
    s_cf = float(contextual_fraction(singlet).fraction)
    s_cert = noncontextual_decompose(singlet).certificate
    singlet_ok = (abs(chsh_value(singlet) - 2.0 * math.sqrt(2.0)) <= 1e-9
                  and abs(s_cf - (math.sqrt(2.0) - 1.0)) <= 1e-6
                  and float(s_cert.value) > 2.0)
    dec = noncontextual_decompose(classical)
    from fractions import Fraction
    classical_ok = dec.feasible and \
        sorted(w for _, w in dec.weights) == [Fraction(1, 2), Fraction(1, 2)]
    elapsed = time.time() - t0
    ok = pr_ok and singlet_ok and classical_ok and elapsed < 5.0
    _report(8, "contextuality suite", ok,
            f"pr={pr_ok}, singlet={singlet_ok} (cf={s_cf:.6f}, "
            f"cert={float(s_cert.value):.4f}), classical={classical_ok}, "
            f"{elapsed:.2f}s")


def test_09_cross_oracle_crank_nicolson():
    g = make_grid(1, 40.0, 128)
    pot = PotentialSpec.harmonic()
    psi0 = gaussian_packet(g, rho_width=2.0, center=1.0)
    cfg = EvolutionConfig(dt=1e-4, steps=100, params=QUANTUM, potential=pot,
                          snapshot_stride=100)
    ours = evolve(psi0, cfg).final().values
    ref = crank_nicolson_evolve(psi0.values, g.length, pot.evaluate(g),
                                1e-4, 100)
    err = float(np.max(np.abs(ours - ref)))
    ok = err < 1e-5
    _report(9, "cross-oracle (crank-nicolson)", ok, f"max_err={err:.2e}")


def test_10_reproducibility(tmp_path):
    configs = [
        {"experiment": "free_packet", "params": {"n": 256, "t_final": 0.5}},
        {"experiment": "eigenstate_hold", "params": {"n": 256, "steps": 50}},
        {"experiment": "lambda_sweep",
         "params": {"n": 256, "t_final": 0.2, "lambdas": [0.0, 1.0]}},
        {"experiment": "equivariance", "seed": 0,
         "params": {"n": 256, "t_final": 0.2, "n_traj": 1500, "n_seeds": 2,
                    "bins": 20}},
        {"experiment": "nelson_born", "seed": 3,
         "params": {"n": 128, "t_final": 0.5, "n_traj": 1200, "bins": 20}},
        {"experiment": "relaxation", "seed": 1,
         "params": {"n": 128, "t_final": 0.5, "n_traj": 500}},
        {"experiment": "measurement", "seed": 7,
         "params": {"n_traj": 300, "kinds": ["bohmian"]}},
        {"experiment": "contextuality", "params": {"fixture": "pr_box"}},
    ]
    bad = []
    for doc in configs:
        cfg = ExperimentConfig.from_dict(doc)
        a = tmp_path / f"{cfg.experiment}_a"
        b = tmp_path / f"{cfg.experiment}_b"
        run_experiment(cfg, a)
        run_experiment(cfg, b)
        manifest = json.loads((a / "manifest.json").read_text())
        for name in manifest["checksums"]:
            if sha256_file(a / name) != sha256_file(b / name):
                bad.append(f"{cfg.experiment}/{name}")
    ok = not bad
    _report(10, "reproducibility", ok,
            "all 8 experiments byte-identical" if ok else f"diffs: {bad}")
