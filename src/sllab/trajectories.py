"""Particle kinematics on top of wave-field frames.

Deterministic pilot-wave integration (RK4 on the current velocity
Im(grad psi / psi) * hbar/m) and stochastic diffusion integration
(Euler-Maruyama on the forward drift v + u with diffusion coefficient
nu = hbar/2m) run one transport loop, `_transport`, and differ only in
their step rule.  Both are vectorized across particles; fields are shared
read-only and every stochastic path owns a counter-based RNG stream
keyed by (seed, particle index), so paths are reproducible regardless of
ensemble size or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid_field import (
    Grid,
    PhysicalParams,
    Wavefunction,
    _nearest_valid_fill,
    differentiate,
)
from .dynamics import EvolutionTrace

_NOISE_BLOCK = 512  # time steps of noise generated per particle at once


@dataclass(frozen=True)
class VelocityField:
    """Current velocity v and osmotic velocity u on a grid (per axis), with
    |psi| and the level 1e-6 max|psi| below which a point is a node."""

    grid: Grid
    v: tuple
    u: tuple
    valid_mask: np.ndarray
    abs_psi: np.ndarray
    node_level: float


@dataclass(frozen=True)
class SdeConfig:
    dt: float
    rng_seed: int
    steps: Optional[int] = None  # required for static (single-frame) traces

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass
class TrajectoryEnsemble:
    """N particle paths over shared times; positions shape (N, T+1, dim)."""

    times: np.ndarray
    positions: np.ndarray
    kind: str
    node_flags: np.ndarray  # particles that ever entered a node region

    @property
    def n_trajectories(self) -> int:
        return self.positions.shape[0]

    def at_time_index(self, idx: int) -> np.ndarray:
        return self.positions[:, idx, :]

    def final_positions(self) -> np.ndarray:
        return self.positions[:, -1, :]


def velocity_field(psi_values: np.ndarray, grid: Grid,
                   params: PhysicalParams) -> VelocityField:
    """Current and osmotic velocity grids from a complex field.

    grad(psi)/psi splits as Re -> osmotic * m/hbar, Im -> current * m/hbar.
    Near-node points take the value of the nearest valid point.
    """
    absv = np.abs(psi_values)
    node_level = 1e-6 * float(absv.max())
    mask = absv < node_level
    safe = np.where(mask, 1.0, psi_values)
    scale = params.hbar / params.m
    ratios = [differentiate(psi_values, grid, axis=ax, order=1) / safe
              for ax in range(grid.dim)]
    filled = _nearest_valid_fill(mask, *[scale * r.imag for r in ratios],
                                 *[scale * r.real for r in ratios])
    return VelocityField(grid=grid, v=filled[:grid.dim], u=filled[grid.dim:],
                         valid_mask=~mask, abs_psi=absv, node_level=node_level)


def interpolate_grid(field: np.ndarray, grid: Grid,
                     points: np.ndarray) -> np.ndarray:
    """Evaluate a gridded field at arbitrary positions (periodic).

    points: array (..., dim); multilinear interpolation with periodic wrap.
    """
    pts = np.atleast_2d(points)
    frac = (pts + 0.5 * grid.length) / grid.dx  # fractional index
    base = np.floor(frac).astype(int)
    w = frac - base
    n = grid.npoints
    if grid.dim == 1:
        i0 = base[:, 0] % n
        i1 = (i0 + 1) % n
        wx = w[:, 0]
        return field[i0] * (1 - wx) + field[i1] * wx
    i0 = base[:, 0] % n
    i1 = (i0 + 1) % n
    j0 = base[:, 1] % n
    j1 = (j0 + 1) % n
    wx = w[:, 0]
    wy = w[:, 1]
    return (field[i0, j0] * (1 - wx) * (1 - wy)
            + field[i1, j0] * wx * (1 - wy)
            + field[i0, j1] * (1 - wx) * wy
            + field[i1, j1] * wx * wy)


class FrameInterpolator:
    """Linear-in-time (Re, Im) interpolation of trace snapshots, with
    velocity grids computed from the interpolated field on demand."""

    def __init__(self, trace: EvolutionTrace, params: PhysicalParams):
        self.params = params
        self.grid = trace.snapshots[0].psi.grid
        self.times = trace.times
        self.frames = [s.psi.values for s in trace.snapshots]
        self.static = len(self.frames) == 1
        self._cache_t = None
        self._cache_vf = None

    def psi_at(self, t: float) -> np.ndarray:
        if self.static:
            return self.frames[0]
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = min(max(idx, 0), len(self.frames) - 2)
        t0, t1 = self.times[idx], self.times[idx + 1]
        w = (t - t0) / (t1 - t0)
        w = min(max(w, 0.0), 1.0)
        return (1.0 - w) * self.frames[idx] + w * self.frames[idx + 1]

    def velocity_at(self, t: float) -> VelocityField:
        if self.static:
            t = 0.0
        if self._cache_t is not None and t == self._cache_t:
            return self._cache_vf
        vf = velocity_field(self.psi_at(t), self.grid, self.params)
        self._cache_t, self._cache_vf = t, vf
        return vf


def _velocity(vf: VelocityField, x, osmotic: bool) -> np.ndarray:
    """Current velocity v, or with `osmotic` the forward drift b = v + u,
    interpolated at position(s) x."""
    pts = np.atleast_2d(x)
    out = np.stack([
        interpolate_grid(vf.v[ax] + vf.u[ax] if osmotic else vf.v[ax],
                         vf.grid, pts)
        for ax in range(vf.grid.dim)], axis=-1)
    return out[0] if np.ndim(x) <= 1 else out


def bohm_velocity(psi_frame: Wavefunction, x,
                  params: PhysicalParams) -> np.ndarray:
    """Pilot-wave velocity (hbar/m) Im(grad psi / psi) at position(s) x."""
    vf = velocity_field(psi_frame.values, psi_frame.grid, params)
    return _velocity(vf, x, osmotic=False)


def nelson_drift(psi_frame: Wavefunction, x,
                 params: PhysicalParams) -> np.ndarray:
    """Forward drift b = v + u at position(s) x."""
    vf = velocity_field(psi_frame.values, psi_frame.grid, params)
    return _velocity(vf, x, osmotic=True)


def _transport(trace: EvolutionTrace, q0_list, dt: float,
               steps: Optional[int], params: PhysicalParams, kind: str,
               make_step: Callable) -> TrajectoryEnsemble:
    """The one step loop of both integrators.

    make_step(interp, npart, nsteps) returns the step rule
    step(t, vf, q) -> q one dt later, given the velocity field vf at t.  A
    particle is flagged when |psi| at its position is below vf's node
    level at the start of a step.
    """
    interp = FrameInterpolator(trace, params)
    grid = interp.grid
    q = grid.wrap(np.atleast_2d(np.asarray(q0_list, dtype=float)
                                .reshape(len(q0_list), grid.dim)))
    t0 = float(interp.times[0])
    if interp.static:
        if steps is None:
            raise ValueError("static trace needs an explicit step count")
        nsteps = steps
    else:
        span = float(interp.times[-1]) - t0
        nsteps = int(round(span / dt))
        if abs(nsteps * dt - span) > 1e-9 * max(1.0, span):
            raise ValueError(
                f"dt={dt} does not divide the trace span {span:.6g} evenly")
        if steps is not None:
            nsteps = min(nsteps, steps)
    npart = q.shape[0]
    if npart == 0:
        raise ValueError("need at least one initial position")

    positions = np.empty((npart, nsteps + 1, grid.dim))
    positions[:, 0, :] = q
    flags = np.zeros(npart, dtype=bool)
    step = make_step(interp, npart, nsteps)

    for i in range(nsteps):
        t = t0 + i * dt
        vf = interp.velocity_at(t)
        flags |= interpolate_grid(vf.abs_psi, grid, q) < vf.node_level
        q = step(t, vf, q)
        positions[:, i + 1, :] = q

    times = t0 + dt * np.arange(nsteps + 1)
    return TrajectoryEnsemble(times=times, positions=positions, kind=kind,
                              node_flags=flags)


def integrate_bohmian(trace: EvolutionTrace, q0_list, dt: float,
                      params: PhysicalParams, steps: Optional[int] = None,
                      drift_extra: Optional[Callable] = None) -> TrajectoryEnsemble:
    """RK4 integration of the pilot-wave velocity through the trace frames.

    Deterministic: identical inputs give bit-identical paths.  Particles
    that enter a near-node region are flagged but integration continues
    (the drift there falls back to the nearest valid grid point).
    """
    def make_step(interp, npart, nsteps):
        grid = interp.grid

        def vel(t, qq, vf):
            out = _velocity(vf, qq, osmotic=False)
            return out if drift_extra is None else out + drift_extra(t, qq)

        def step(t, vf, q):
            h = t + 0.5 * dt
            k1 = vel(t, q, vf)
            k2 = vel(h, grid.wrap(q + 0.5 * dt * k1), interp.velocity_at(h))
            k3 = vel(h, grid.wrap(q + 0.5 * dt * k2), interp.velocity_at(h))
            k4 = vel(t + dt, grid.wrap(q + dt * k3), interp.velocity_at(t + dt))
            return grid.wrap(q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))

        return step

    return _transport(trace, q0_list, dt, steps, params, "bohmian", make_step)


def _philox_noise(seed: int, npart: int, nsteps: int, dim: int):
    """Standard normal increments, one (npart, dim) array per step, drawn in
    blocks of _NOISE_BLOCK steps from particle i's Philox stream keyed by
    (seed, i), so a path does not depend on the ensemble size."""
    streams = [np.random.Generator(np.random.Philox(key=[seed, i]))
               for i in range(npart)]
    for start in range(0, nsteps, _NOISE_BLOCK):
        width = min(_NOISE_BLOCK, nsteps - start)
        block = np.empty((npart, width, dim))
        for j, gen in enumerate(streams):
            block[j] = gen.standard_normal((width, dim))
        yield from block.swapaxes(0, 1)


def integrate_nelson(trace: EvolutionTrace, q0_list, cfg: SdeConfig,
                     params: PhysicalParams,
                     drift_extra: Optional[Callable] = None,
                     drift_override: Optional[str] = None) -> TrajectoryEnsemble:
    """Euler-Maruyama integration dq = b dt + sqrt(2 nu) dW through frames.

    drift_override: None for the full forward drift v + u, "zero" for a
    pure-Brownian control run (b forced to 0).
    """
    if drift_override not in (None, "zero"):
        raise ValueError(
            f"drift_override must be None or 'zero', got {drift_override!r}")
    amp = np.sqrt(2.0 * params.nu * cfg.dt)

    def make_step(interp, npart, nsteps):
        grid = interp.grid
        noise = _philox_noise(cfg.rng_seed, npart, nsteps, grid.dim)

        def step(t, vf, q):
            if drift_override == "zero":
                b = np.zeros_like(q)
            else:
                b = _velocity(vf, q, osmotic=True)
            if drift_extra is not None:
                b = b + drift_extra(t, q)
            return grid.wrap(q + b * cfg.dt + amp * next(noise))

        return step

    return _transport(trace, q0_list, cfg.dt, cfg.steps, params, "nelson",
                      make_step)


def static_trace(psi: Wavefunction) -> EvolutionTrace:
    """Wrap a single stationary frame as a trace for trajectory integration."""
    from .dynamics import Snapshot

    snap = Snapshot(t=float(psi.t), psi=psi, norm=psi.norm, energy=0.0, max_q=0.0)
    return EvolutionTrace(snapshots=[snap])
