"""Particle kinematics on top of wave-field frames.

Deterministic pilot-wave integration (RK4 on the current velocity
Im(grad psi / psi) * hbar/m) and stochastic diffusion integration
(Euler-Maruyama on the forward drift v + u with diffusion coefficient
nu = hbar/2m) run one transport loop, `_transport`, and differ only in
their step rule.  Both are vectorized across particles; fields are shared
read-only and every stochastic path owns a counter-based RNG stream
keyed by (seed, particle index), so paths are reproducible regardless of
ensemble size or execution order.

The loop records positions only at the steps a schedule (`keep`) names,
so memory grows with the ensemble, not with the step count.  Several
Nelson drift rules can advance in lockstep over one noise stream
(`integrate_nelson_lockstep`), which draws each noise row once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    """Current velocity v and forward drift b = v + u (u the osmotic
    velocity) on a grid (per axis), with |psi| and the level 1e-6 max|psi|
    below which a point is a node."""

    grid: Grid
    v: tuple
    b: tuple
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
    """N particle paths at the recorded times.

    positions has shape (N, len(times), dim): one column per step of the
    recording schedule, which is every step (T+1 columns for T steps)
    unless the integrator was given `keep`.
    """

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
    v, u = filled[:grid.dim], filled[grid.dim:]
    return VelocityField(grid=grid, v=v,
                         b=tuple(va + ua for va, ua in zip(v, u)),
                         valid_mask=~mask, abs_psi=absv, node_level=node_level)


def _cells(grid: Grid, points: np.ndarray) -> list:
    """The grid-cell corners around each point of an (N, dim) array, as
    (flat index, weight factors) pairs in the order `_gather` sums them.

    npoints is a power of two (Grid checks it), so `& (n - 1)` is the
    periodic fold `% n` without an integer division.  It also folds the
    base index n that a point at +L/2 gets (see Grid.wrap) to 0.
    """
    frac = (points + 0.5 * grid.length) / grid.dx  # fractional index
    floor = np.floor(frac)
    base = floor.astype(int)
    w = frac - floor
    fold = grid.npoints - 1
    lo = base & fold
    hi = (base + 1) & fold
    wlo = 1 - w
    if grid.dim == 1:
        return [(lo[:, 0], (wlo[:, 0],)), (hi[:, 0], (w[:, 0],))]
    n = grid.npoints
    i0, i1 = lo[:, 0] * n, hi[:, 0] * n
    j0, j1 = lo[:, 1], hi[:, 1]
    ax, wx, ay, wy = wlo[:, 0], w[:, 0], wlo[:, 1], w[:, 1]
    return [(i0 + j0, (ax, ay)), (i1 + j0, (wx, ay)),
            (i0 + j1, (ax, wy)), (i1 + j1, (wx, wy))]


def _gather(field: np.ndarray, cells: list) -> np.ndarray:
    """Multilinear interpolation of a float `field` at the points of
    `cells`: the corner terms (f * wx) * wy summed left to right, the order
    whose bytes tests/test_bit_identity.py pins."""
    flat = field.ravel()
    out = None
    for idx, weights in cells:
        term = flat.take(idx)
        for w in weights:
            term *= w
        if out is None:
            out = term
        else:
            out += term
    return out


def _gather_axes(fields: tuple, cells: list) -> np.ndarray:
    """One field per axis gathered at the points of `cells`: (N, dim)."""
    cols = [_gather(f, cells) for f in fields]
    return cols[0][:, None] if len(cols) == 1 else np.stack(cols, axis=-1)


def interpolate_grid(field: np.ndarray, grid: Grid,
                     points: np.ndarray) -> np.ndarray:
    """Evaluate a gridded field at arbitrary positions (periodic).

    points: array (..., dim); multilinear interpolation with periodic wrap.
    """
    field = np.asarray(field)
    field = field.astype(np.result_type(field, np.float64), copy=False)
    return _gather(field, _cells(grid, np.atleast_2d(points)))


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


def _at_points(fields: tuple, grid: Grid, x) -> np.ndarray:
    """Per-axis fields interpolated at position(s) x."""
    out = _gather_axes(fields, _cells(grid, np.atleast_2d(x)))
    return out[0] if np.ndim(x) <= 1 else out


def bohm_velocity(psi_frame: Wavefunction, x,
                  params: PhysicalParams) -> np.ndarray:
    """Pilot-wave velocity (hbar/m) Im(grad psi / psi) at position(s) x."""
    vf = velocity_field(psi_frame.values, psi_frame.grid, params)
    return _at_points(vf.v, vf.grid, x)


def nelson_drift(psi_frame: Wavefunction, x,
                 params: PhysicalParams) -> np.ndarray:
    """Forward drift b = v + u at position(s) x."""
    vf = velocity_field(psi_frame.values, psi_frame.grid, params)
    return _at_points(vf.b, vf.grid, x)


def step_times(trace: EvolutionTrace, dt: float,
               steps: Optional[int] = None) -> np.ndarray:
    """Times t0, t0 + dt, ... of every step of a transport through `trace`:
    one entry per column of a full record.

    A moving trace is crossed in whole steps of dt (at most `steps` of
    them); a static (single-frame) trace needs an explicit step count.
    """
    times = trace.times
    t0 = float(times[0])
    if len(times) == 1:
        if steps is None:
            raise ValueError("static trace needs an explicit step count")
        nsteps = steps
    else:
        span = float(times[-1]) - t0
        nsteps = int(round(span / dt))
        if abs(nsteps * dt - span) > 1e-9 * max(1.0, span):
            raise ValueError(
                f"dt={dt} does not divide the trace span {span:.6g} evenly")
        if steps is not None:
            nsteps = min(nsteps, steps)
    return t0 + dt * np.arange(nsteps + 1)


def _schedule(keep, nsteps: int) -> np.ndarray:
    """The step indices to record: all of 0..nsteps when keep is None, else
    keep's indices (negative ones count from the end), strictly increasing."""
    cols = np.arange(nsteps + 1)
    if keep is None:
        return cols
    idx = np.asarray(keep, dtype=int).ravel()
    if idx.size == 0 or np.any((idx > nsteps) | (idx < -nsteps - 1)):
        raise ValueError(
            f"keep must name step indices in [-{nsteps + 1}, {nsteps}]")
    cols = cols[idx]
    if np.any(np.diff(cols) <= 0):
        raise ValueError("keep must name strictly increasing step indices")
    return cols


def _transport(trace: EvolutionTrace, q0_list, dt: float,
               steps: Optional[int], params: PhysicalParams, kind: str,
               keep, n_rules: int, make_step: Callable) -> list:
    """The one step loop of both integrators; returns one ensemble for each
    of n_rules step rules advanced in lockstep from the same q0.

    make_step(interp, npart, nsteps) returns
    advance(t, vf, qs, cells) -> qs one dt later, given the velocity field
    vf at t, the n_rules position arrays and their `_cells`.  A particle is
    flagged when |psi| at its position is below vf's node level at the
    start of a step.  Positions are recorded at the steps `keep` names.
    """
    interp = FrameInterpolator(trace, params)
    grid = interp.grid
    q = grid.wrap(np.atleast_2d(np.asarray(q0_list, dtype=float)
                                .reshape(len(q0_list), grid.dim)))
    all_times = step_times(trace, dt, steps)
    nsteps = len(all_times) - 1
    npart = q.shape[0]
    if npart == 0:
        raise ValueError("need at least one initial position")
    cols = _schedule(keep, nsteps)
    slot = {int(c): s for s, c in enumerate(cols)}

    positions = [np.empty((npart, len(cols), grid.dim))
                 for _ in range(n_rules)]
    flags = [np.zeros(npart, dtype=bool) for _ in range(n_rules)]

    def record(i, qs):
        s = slot.get(i)
        if s is not None:
            for pos, qq in zip(positions, qs):
                pos[:, s, :] = qq

    qs = [q] * n_rules
    record(0, qs)
    advance = make_step(interp, npart, nsteps)
    t0 = float(all_times[0])
    for i in range(nsteps):
        t = t0 + i * dt
        vf = interp.velocity_at(t)
        cells = [_cells(grid, qq) for qq in qs]
        for flag, cell in zip(flags, cells):
            flag |= _gather(vf.abs_psi, cell) < vf.node_level
        qs = advance(t, vf, qs, cells)
        record(i + 1, qs)

    times = all_times[cols]
    return [TrajectoryEnsemble(times=times, positions=pos, kind=kind,
                               node_flags=flag)
            for pos, flag in zip(positions, flags)]


def integrate_bohmian(trace: EvolutionTrace, q0_list, dt: float,
                      params: PhysicalParams, steps: Optional[int] = None,
                      drift_extra: Optional[Callable] = None,
                      keep: Optional[Sequence[int]] = None) -> TrajectoryEnsemble:
    """RK4 integration of the pilot-wave velocity through the trace frames.

    Deterministic: identical inputs give bit-identical paths.  Particles
    that enter a near-node region are flagged but integration continues
    (the drift there falls back to the nearest valid grid point).
    keep: the step indices to record (negative ones count from the end);
    None records every step.
    """
    def make_step(interp, npart, nsteps):
        grid = interp.grid

        def vel(t, vf, cells, qq):
            out = _gather_axes(vf.v, cells)
            return out if drift_extra is None else out + drift_extra(t, qq)

        def vel_at(t, qq):
            return vel(t, interp.velocity_at(t), _cells(grid, qq), qq)

        def advance(t, vf, qs, cells):
            (q,), (cell,) = qs, cells
            h = t + 0.5 * dt
            k1 = vel(t, vf, cell, q)
            k2 = vel_at(h, grid.wrap(q + 0.5 * dt * k1))
            k3 = vel_at(h, grid.wrap(q + 0.5 * dt * k2))
            k4 = vel_at(t + dt, grid.wrap(q + dt * k3))
            return [grid.wrap(q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))]

        return advance

    return _transport(trace, q0_list, dt, steps, params, "bohmian", keep, 1,
                      make_step)[0]


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


def integrate_nelson_lockstep(trace: EvolutionTrace, q0_list, cfg: SdeConfig,
                              params: PhysicalParams,
                              drift_overrides: Sequence[Optional[str]],
                              drift_extra: Optional[Callable] = None,
                              keep: Optional[Sequence[int]] = None) -> list:
    """Euler-Maruyama integration dq = b dt + sqrt(2 nu) dW of one ensemble
    per drift rule, all from q0 and driven by the same noise rows.

    Each ensemble equals what `integrate_nelson` returns for its rule with
    the same arguments, but every noise row is drawn once for all rules.
    drift_overrides: one entry per ensemble, None for the full forward
    drift v + u, "zero" for a pure-Brownian control run (b forced to 0).
    keep: the step indices to record (negative ones count from the end);
    None records every step.
    """
    overrides = tuple(drift_overrides)
    for override in overrides:
        if override not in (None, "zero"):
            raise ValueError(
                f"drift_override must be None or 'zero', got {override!r}")
    if not overrides:
        raise ValueError("need at least one drift rule")
    amp = np.sqrt(2.0 * params.nu * cfg.dt)

    def make_step(interp, npart, nsteps):
        grid = interp.grid
        noise = _philox_noise(cfg.rng_seed, npart, nsteps, grid.dim)

        def advance(t, vf, qs, cells):
            kick = amp * next(noise)
            out = []
            for override, q, cell in zip(overrides, qs, cells):
                b = 0.0 if override == "zero" else _gather_axes(vf.b, cell)
                if drift_extra is not None:
                    b = b + drift_extra(t, q)
                out.append(grid.wrap(q + b * cfg.dt + kick))
            return out

        return advance

    return _transport(trace, q0_list, cfg.dt, cfg.steps, params, "nelson",
                      keep, len(overrides), make_step)


def integrate_nelson(trace: EvolutionTrace, q0_list, cfg: SdeConfig,
                     params: PhysicalParams,
                     drift_extra: Optional[Callable] = None,
                     drift_override: Optional[str] = None,
                     keep: Optional[Sequence[int]] = None) -> TrajectoryEnsemble:
    """Euler-Maruyama integration dq = b dt + sqrt(2 nu) dW through frames.

    drift_override: None for the full forward drift v + u, "zero" for a
    pure-Brownian control run (b forced to 0).
    keep: the step indices to record (negative ones count from the end);
    None records every step.
    """
    return integrate_nelson_lockstep(trace, q0_list, cfg, params,
                                     (drift_override,), drift_extra,
                                     keep)[0]


def static_trace(psi: Wavefunction) -> EvolutionTrace:
    """Wrap a single stationary frame as a trace for trajectory integration."""
    from .dynamics import Snapshot

    snap = Snapshot(t=float(psi.t), psi=psi, norm=psi.norm, energy=0.0, max_q=0.0)
    return EvolutionTrace(snapshots=[snap])
