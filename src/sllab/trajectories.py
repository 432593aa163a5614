"""Particle kinematics on top of wave-field frames.

Deterministic pilot-wave integration (RK4 on the current velocity
Im(grad psi / psi) * hbar/m) and stochastic diffusion integration
(Euler-Maruyama on the forward drift v + u with diffusion coefficient
nu = hbar/2m).  Both are vectorized across particles; fields are shared
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
    """Current velocity v and osmotic velocity u on a grid (per axis)."""

    grid: Grid
    v: tuple
    u: tuple
    valid_mask: np.ndarray


@dataclass(frozen=True)
class SdeConfig:
    dt: float
    rng_seed: int
    steps: Optional[int] = None  # required for static (single-frame) traces
    nu: Optional[float] = None   # default hbar/(2m) from the params in use

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.nu is not None and self.nu < 0:
            raise ValueError("diffusion coefficient must be nonnegative")


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


def velocity_field(psi_values: np.ndarray, grid: Grid, params: PhysicalParams,
                   eps_node: float | None = None) -> VelocityField:
    """Current and osmotic velocity grids from a complex field.

    grad(psi)/psi splits as Re -> osmotic * m/hbar, Im -> current * m/hbar.
    Near-node points take the value of the nearest valid point.
    """
    absv = np.abs(psi_values)
    if eps_node is None:
        eps_node = 1e-6 * float(absv.max())
    mask = absv < eps_node
    safe = np.where(mask, 1.0, psi_values)
    scale = params.hbar / params.m
    v, u = [], []
    for ax in range(grid.dim):
        ratio = differentiate(psi_values, grid, axis=ax, order=1) / safe
        v.append(_nearest_valid_fill(scale * ratio.imag, mask))
        u.append(_nearest_valid_fill(scale * ratio.real, mask))
    return VelocityField(grid=grid, v=tuple(v), u=tuple(u), valid_mask=~mask)


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

    def span(self):
        return float(self.times[0]), float(self.times[-1])

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


def _node_check(interp: FrameInterpolator, t: float, q: np.ndarray) -> np.ndarray:
    absv = np.abs(interp.psi_at(t))
    vals = interpolate_grid(absv, interp.grid, q)
    return vals < 1e-6 * float(absv.max())


def _resolve_steps(interp: FrameInterpolator, dt: float, steps: Optional[int]):
    t0, t1 = interp.span()
    if interp.static:
        if steps is None:
            raise ValueError("static trace needs an explicit step count")
        return t0, steps
    span = t1 - t0
    nsteps = int(round(span / dt))
    if abs(nsteps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(
            f"dt={dt} does not divide the trace span {span:.6g} evenly")
    if steps is not None:
        nsteps = min(nsteps, steps)
    return t0, nsteps


def integrate_bohmian(trace: EvolutionTrace, q0_list, dt: float,
                      params: PhysicalParams, steps: Optional[int] = None,
                      drift_extra: Optional[Callable] = None) -> TrajectoryEnsemble:
    """RK4 integration of the pilot-wave velocity through the trace frames.

    Deterministic: identical inputs give bit-identical paths.  Particles
    that enter a near-node region are flagged but integration continues
    (the drift there falls back to the nearest valid grid point).
    """
    interp = FrameInterpolator(trace, params)
    grid = interp.grid
    q = grid.wrap(np.atleast_2d(np.asarray(q0_list, dtype=float)
                                .reshape(len(q0_list), grid.dim)))
    t0, nsteps = _resolve_steps(interp, dt, steps)
    npart = q.shape[0]
    if npart == 0:
        raise ValueError("need at least one initial position")

    positions = np.empty((npart, nsteps + 1, grid.dim))
    positions[:, 0, :] = q
    flags = np.zeros(npart, dtype=bool)

    def vel(t, qq):
        out = _velocity(interp.velocity_at(t), qq, osmotic=False)
        return out if drift_extra is None else out + drift_extra(t, qq)

    t = t0
    for i in range(1, nsteps + 1):
        flags |= _node_check(interp, t, q)
        k1 = vel(t, q)
        k2 = vel(t + 0.5 * dt, grid.wrap(q + 0.5 * dt * k1))
        k3 = vel(t + 0.5 * dt, grid.wrap(q + 0.5 * dt * k2))
        k4 = vel(t + dt, grid.wrap(q + dt * k3))
        q = grid.wrap(q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        positions[:, i, :] = q
        t = t0 + i * dt

    times = t0 + dt * np.arange(nsteps + 1)
    return TrajectoryEnsemble(times=times, positions=positions,
                              kind="bohmian", node_flags=flags)


def _noise_streams(seed: int, npart: int):
    return [np.random.Generator(np.random.Philox(key=[seed, i]))
            for i in range(npart)]


def integrate_nelson(trace: EvolutionTrace, q0_list, cfg: SdeConfig,
                     params: PhysicalParams,
                     drift_extra: Optional[Callable] = None,
                     drift_override: Optional[str] = None) -> TrajectoryEnsemble:
    """Euler-Maruyama integration dq = b dt + sqrt(2 nu) dW through frames.

    drift_override: None for the full forward drift v + u, "zero" for a
    pure-Brownian control run (b forced to 0).
    """
    interp = FrameInterpolator(trace, params)
    grid = interp.grid
    q = grid.wrap(np.atleast_2d(np.asarray(q0_list, dtype=float)
                                .reshape(len(q0_list), grid.dim)))
    t0, nsteps = _resolve_steps(interp, cfg.dt, cfg.steps)
    npart = q.shape[0]
    if npart == 0:
        raise ValueError("need at least one initial position")
    nu = params.nu if cfg.nu is None else cfg.nu
    amp = np.sqrt(2.0 * nu * cfg.dt)

    streams = _noise_streams(cfg.rng_seed, npart)
    positions = np.empty((npart, nsteps + 1, grid.dim))
    positions[:, 0, :] = q
    flags = np.zeros(npart, dtype=bool)

    t = t0
    block = None
    block_start = 0
    for i in range(1, nsteps + 1):
        step_in_run = i - 1
        if block is None or step_in_run >= block_start + block.shape[1]:
            block_start = step_in_run
            width = min(_NOISE_BLOCK, nsteps - block_start)
            block = np.empty((npart, width, grid.dim))
            for j, gen in enumerate(streams):
                block[j] = gen.standard_normal((width, grid.dim))
        noise = block[:, step_in_run - block_start, :]

        flags |= _node_check(interp, t, q)
        if drift_override == "zero":
            b = np.zeros_like(q)
        else:
            b = _velocity(interp.velocity_at(t), q, osmotic=True)
        if drift_extra is not None:
            b = b + drift_extra(t, q)
        q = grid.wrap(q + b * cfg.dt + amp * noise)
        positions[:, i, :] = q
        t = t0 + i * cfg.dt

    times = t0 + cfg.dt * np.arange(nsteps + 1)
    return TrajectoryEnsemble(times=times, positions=positions,
                              kind="nelson", node_flags=flags)


def static_trace(psi: Wavefunction) -> EvolutionTrace:
    """Wrap a single stationary frame as a trace for trajectory integration."""
    from .dynamics import Snapshot

    snap = Snapshot(t=float(psi.t), psi=psi, norm=psi.norm, energy=0.0, max_q=0.0)
    return EvolutionTrace(snapshots=[snap])
