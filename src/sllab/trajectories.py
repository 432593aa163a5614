"""Particle kinematics on top of wave-field frames.

Deterministic pilot-wave integration (RK4 on the current velocity
Im(grad psi / psi) * hbar/m) and stochastic diffusion integration
(Euler-Maruyama on the forward drift v + u with diffusion coefficient
nu = hbar/2m) are step rules (`StepRule`) of one transport loop,
`transport`.  Both are vectorized across particles; fields are shared
read-only and every stochastic path owns a counter-based RNG stream keyed
by (seed, particle index), so paths are reproducible regardless of
ensemble size or execution order.

One transport advances any number of ensembles through a trace in
lockstep, each with its own initial positions and step rule, and each
bit for bit as it would run alone: every velocity field is built once per
time for all of them, and rules that share a seed and an ensemble size
draw each noise row once.  Noise is drawn through one Philox bit
generator re-keyed to each particle's stream, which costs less than
building a generator per particle and gives the same values.  Its rows
come from one step-major buffer per stream, refilled every _NOISE_BLOCK
steps: a row is contiguous and valid until the next one is drawn, so a
transport uses each row at once.

The loop records positions only at the steps a schedule (`keep`) names,
so memory grows with the ensembles, not with the step count.
`integrate_bohmian` and `integrate_nelson` are its one-ensemble cases,
and `step_times`, which every transport calls, checks dt and the step
count.  Velocities at points are read from `velocity_field` grids through
`interpolate_grid`; node points take the nearest valid value
(`grid_field.fill_nodes`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid_field import (
    Grid,
    PhysicalParams,
    Wavefunction,
    differentiate,
    fill_nodes,
    node_level,
)
from .dynamics import EvolutionTrace

_NOISE_BLOCK = 512  # time steps of noise generated per particle at once
_NOISE_TILE = 64  # particles drawn into the scratch before one copy-in


@dataclass(frozen=True)
class VelocityField:
    """Current velocity v and forward drift b = v + u (u the osmotic
    velocity) on a grid (per axis), with |psi| and the level 1e-6 max|psi|
    below which a point is a node."""

    v: tuple
    b: tuple
    abs_psi: np.ndarray
    node_level: float


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
    level = node_level(absv, grid.dim).item()
    mask = absv < level
    safe = np.where(mask, 1.0, psi_values)
    scale = params.hbar / params.m
    ratios = [differentiate(psi_values, grid, axis=ax, order=1) / safe
              for ax in range(grid.dim)]
    filled = fill_nodes(mask, grid.dim, *[scale * r.imag for r in ratios],
                        *[scale * r.real for r in ratios])
    v, u = filled[:grid.dim], filled[grid.dim:]
    return VelocityField(v=v, b=tuple(va + ua for va, ua in zip(v, u)),
                         abs_psi=absv, node_level=level)


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
    velocity grids computed from the interpolated field on demand.

    The velocity fields of the last two times asked for are kept.  Those
    are the fields an RK4 step reads after its start, at t + dt/2 and
    t + dt, so every ensemble of a transport shares them, and the next
    step starts from the field at t + dt.
    """

    def __init__(self, trace: EvolutionTrace, params: PhysicalParams):
        self.params = params
        self.grid = trace.snapshots[0].psi.grid
        self.times = trace.times
        self.frames = [s.psi.values for s in trace.snapshots]
        self.static = len(self.frames) == 1
        self._fields = {}  # time -> VelocityField, the last two asked for

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
        vf = self._fields.get(t)
        if vf is None:
            vf = velocity_field(self.psi_at(t), self.grid, self.params)
            if len(self._fields) == 2:
                del self._fields[next(iter(self._fields))]
            self._fields[t] = vf
        return vf


def step_times(trace: EvolutionTrace, dt: float,
               steps: Optional[int] = None) -> np.ndarray:
    """Times t0, t0 + dt, ... of every step of a transport through `trace`:
    one entry per column of a full record.

    A moving trace is crossed in whole steps of dt (at most `steps` of
    them); a static (single-frame) trace needs an explicit step count.
    Every transport starts here, so this is where dt must be a finite
    number > 0 and steps None or an int >= 0.
    """
    if not (isinstance(dt, numbers.Real) and math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a finite number > 0, got {dt!r}")
    if steps is not None and (isinstance(steps, bool) or not isinstance(
            steps, numbers.Integral) or steps < 0):
        raise ValueError(f"steps must be None or an int >= 0, got {steps!r}")
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


@dataclass(frozen=True)
class StepRule:
    """How one ensemble of a transport advances by dt.

    kind "bohmian": RK4 on the pilot-wave velocity v.  kind "nelson":
    Euler-Maruyama dq = b dt + sqrt(2 nu) dW on the forward drift
    b = v + u, with particle i's noise from the stream keyed by
    (rng_seed, i); drift_override "zero" forces b to 0 (a pure-Brownian
    control run).  drift_extra(t, q), when given, is added to the velocity
    or drift.
    """

    kind: str
    drift_extra: Optional[Callable] = None
    rng_seed: Optional[int] = None
    drift_override: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("bohmian", "nelson"):
            raise ValueError(f"unknown step rule kind {self.kind!r}")
        if self.drift_override not in (None, "zero"):
            raise ValueError("drift_override must be None or 'zero', got "
                             f"{self.drift_override!r}")
        seed = self.rng_seed
        if seed is None:
            if self.kind == "nelson":
                raise ValueError("a 'nelson' step rule needs an rng_seed")
        elif (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
              or not 0 <= seed < 2 ** 64):
            raise ValueError(
                f"rng_seed must be an int in [0, 2**64), got {seed!r}")


def _pilot_wave_step(rule: StepRule, interp: FrameInterpolator, dt: float):
    """advance(t, vf, q, cells, kick) -> q one RK4 step later."""
    grid = interp.grid
    extra = rule.drift_extra

    def vel(t, vf, cells, q):
        out = _gather_axes(vf.v, cells)
        return out if extra is None else out + extra(t, q)

    def vel_at(t, q):
        return vel(t, interp.velocity_at(t), _cells(grid, q), q)

    def advance(t, vf, q, cells, kick):
        h = t + 0.5 * dt
        k1 = vel(t, vf, cells, q)
        k2 = vel_at(h, grid.wrap(q + 0.5 * dt * k1))
        k3 = vel_at(h, grid.wrap(q + 0.5 * dt * k2))
        k4 = vel_at(t + dt, grid.wrap(q + dt * k3))
        return grid.wrap(q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))

    return advance


def _diffusion_step(rule: StepRule, interp: FrameInterpolator, dt: float):
    """advance(t, vf, q, cells, kick) -> q one Euler-Maruyama step later,
    kick being the step's noise row times sqrt(2 nu dt)."""
    grid = interp.grid
    extra = rule.drift_extra
    zero = rule.drift_override == "zero"

    def advance(t, vf, q, cells, kick):
        b = 0.0 if zero else _gather_axes(vf.b, cells)
        if extra is not None:
            b = b + extra(t, q)
        return grid.wrap(q + b * dt + kick)

    return advance


def transport(trace: EvolutionTrace, runs: Sequence, dt: float,
              params: PhysicalParams, steps: Optional[int] = None,
              keep: Optional[Sequence[int]] = None) -> list:
    """The one step loop of every integrator: one TrajectoryEnsemble for
    each (q0, StepRule) pair of `runs`, all advanced through the trace in
    lockstep, in the order given.

    Each ensemble equals, bit for bit, what its pair gives alone; the
    velocity field of each time is built once for all of them, and Nelson
    rules with the same seed and ensemble size draw each noise row once.
    A particle is flagged when |psi| at its position is below the field's
    node level at the start of a step.
    steps: at most this many steps (required for a static trace).
    keep: the step indices to record (negative ones count from the end);
    None records every step.
    """
    if not runs:
        raise ValueError("need at least one ensemble")
    interp = FrameInterpolator(trace, params)
    grid = interp.grid
    all_times = step_times(trace, dt, steps)
    nsteps = len(all_times) - 1
    cols = _schedule(keep, nsteps)
    slot = {int(c): s for s, c in enumerate(cols)}
    amp = np.sqrt(2.0 * params.nu * dt)

    qs, advances, streams, positions, flags = [], [], [], [], []
    noise = {}  # (seed, ensemble size) -> its noise rows
    for q0, rule in runs:
        q = grid.wrap(np.atleast_2d(np.asarray(q0, dtype=float)
                                    .reshape(len(q0), grid.dim)))
        npart = q.shape[0]
        if npart == 0:
            raise ValueError("need at least one initial position")
        if rule.kind == "bohmian":
            advances.append(_pilot_wave_step(rule, interp, dt))
            streams.append(None)
        else:
            key = (rule.rng_seed, npart)
            if key not in noise:
                noise[key] = _philox_noise(rule.rng_seed, npart, nsteps,
                                           grid.dim)
            advances.append(_diffusion_step(rule, interp, dt))
            streams.append(key)
        qs.append(q)
        positions.append(np.empty((npart, len(cols), grid.dim)))
        flags.append(np.zeros(npart, dtype=bool))

    def record(i):
        s = slot.get(i)
        if s is not None:
            for pos, q in zip(positions, qs):
                pos[:, s, :] = q

    record(0)
    t0 = float(all_times[0])
    for i in range(nsteps):
        t = t0 + i * dt
        vf = interp.velocity_at(t)
        # a noise row is valid only until its stream's next row is drawn
        kicks = {key: amp * next(rows) for key, rows in noise.items()}
        for k, advance in enumerate(advances):
            cells = _cells(grid, qs[k])
            flags[k] |= _gather(vf.abs_psi, cells) < vf.node_level
            qs[k] = advance(t, vf, qs[k], cells, kicks.get(streams[k]))
        record(i + 1)

    times = all_times[cols]
    return [TrajectoryEnsemble(times=times, positions=pos, kind=rule.kind,
                               node_flags=flag)
            for pos, flag, (_, rule) in zip(positions, flags, runs)]


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
    return transport(trace, [(q0_list, StepRule("bohmian", drift_extra))],
                     dt, params, steps, keep)[0]


def _philox_start(seed: int, i: int, zeros: np.ndarray) -> dict:
    """The state of np.random.Philox(key=[seed, i]) before its first draw."""
    return {"bit_generator": "Philox",
            "state": {"counter": zeros, "key": np.array([seed, i], np.uint64)},
            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _philox_noise(seed: int, npart: int, nsteps: int, dim: int):
    """Standard normal increments, one (npart, dim) row per step, drawn in
    blocks of _NOISE_BLOCK steps from particle i's Philox stream keyed by
    (seed, i), so a path does not depend on the ensemble size.

    Every stream is drawn through one bit generator: it is set to particle
    i's state before i's draws, and that state is read back only when
    another block follows.  The rows are the steps of one step-major buffer
    that every block refills, so each is C-contiguous and valid only until
    the next row is requested.  A block is drawn _NOISE_TILE particles at a
    time into a small particle-major scratch and copied in transposed.
    """
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, np.uint64)
    states = [None] * npart
    rows = np.empty((min(_NOISE_BLOCK, nsteps), npart, dim))
    tile = np.empty((min(_NOISE_TILE, npart), len(rows), dim))
    for start in range(0, nsteps, _NOISE_BLOCK):
        width = min(_NOISE_BLOCK, nsteps - start)
        more = start + width < nsteps
        for lo in range(0, npart, _NOISE_TILE):
            hi = min(lo + _NOISE_TILE, npart)
            for j in range(lo, hi):
                state = states[j]
                bitgen.state = (_philox_start(seed, j, zeros) if state is None
                                else state)
                gen.standard_normal(out=tile[j - lo, :width])
                if more:
                    states[j] = bitgen.state
            rows[:width, lo:hi] = tile[:hi - lo, :width].swapaxes(0, 1)
        yield from rows[:width]


def integrate_nelson(trace: EvolutionTrace, q0_list, dt: float,
                     params: PhysicalParams, rng_seed: int,
                     steps: Optional[int] = None,
                     drift_extra: Optional[Callable] = None,
                     drift_override: Optional[str] = None,
                     keep: Optional[Sequence[int]] = None) -> TrajectoryEnsemble:
    """Euler-Maruyama integration dq = b dt + sqrt(2 nu) dW through frames.

    Particle i's noise comes from the stream keyed by (rng_seed, i).
    drift_override: None for the full forward drift v + u, "zero" for a
    pure-Brownian control run (b forced to 0).
    keep: the step indices to record (negative ones count from the end);
    None records every step.
    """
    rule = StepRule("nelson", drift_extra, rng_seed, drift_override)
    return transport(trace, [(q0_list, rule)], dt, params, steps, keep)[0]


def static_trace(psi: Wavefunction) -> EvolutionTrace:
    """Wrap a single stationary frame as a trace for trajectory integration."""
    from .dynamics import Snapshot

    snap = Snapshot(t=float(psi.t), psi=psi, norm=psi.norm, energy=0.0, max_q=0.0)
    return EvolutionTrace(snapshots=[snap])
