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
generator, set to each particle's stream by one copy of a 12-word uint64
row into a slice of its state struct, whose private layout is checked
once per stream; this costs less than a generator per particle or numpy's
state dicts and gives the same values.  A stream is drawn in equal blocks
of at most _NOISE_BLOCK = 100 steps, scaled by the noise amplitude as
they are filled: a row is contiguous and valid until the next one is
drawn, so a transport uses each row at once.  A one-block stream is drawn
in place into one step-major buffer.

Two kinds of forked producer process (`_forked_ring`) fill a ring of
slots in a shared anonymous mmap ahead of the transport, so their work,
which holds the interpreter lock, runs on another core while the
transport steps (a thread would hold the lock): a longer noise stream,
one block ahead in two slots, and, when two CPUs are usable, the velocity
fields of a moving trace on at least FORK_FIELD_POINTS grid points, three
fields ahead in six slots, at the times `_field_times` gives.  A child is
reaped after its last item, and `transport` closes every producer when
its step loop ends or raises.  The bytes are those of the in-process
path.  This needs `os.fork`.  (The only other processes sllab forks are
the row-range writers of `io_formats` and the child that evolves half
of a `dynamics.lambda_sweep`.)

The loop records positions only at the steps a schedule (`keep`) names,
so memory grows with the ensembles, not with the step count.
`integrate_bohmian` and `integrate_nelson` are its one-ensemble cases,
and `step_times`, which every transport calls, checks dt and the step
count.  Velocities at points are read from `velocity_field` grids through
`interpolate_grid`; node points take the nearest valid value
(`grid_field.fill_nodes`).  A field is filled only when a gather reaches a
cell with a node corner, once for v and b together, and the gathered bytes
are those of a field filled when it was built.  One look-up per step of
each particle's cell in a table of the field (`_cell_codes`) tells both
whether some cell can flag its particle, so |psi| is interpolated only
then, and whether one has a node corner, for the step's first gather.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import numbers
import os
import signal
import traceback
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

_NOISE_BLOCK = 100  # most time steps of noise drawn per particle at once
_NOISE_TILE = 64  # particles drawn into the scratch before one copy-in
# a moving trace's velocity fields are built by a forked producer from this
# many grid points up, _FIELD_LAG fields ahead, in _FIELD_SLOTS slots
FORK_FIELD_POINTS = 1 << 12
_FIELD_SLOTS, _FIELD_LAG = 6, 3


class VelocityField:
    """Current velocity v and forward drift b = v + u (u the osmotic
    velocity) on a grid (per axis), with |psi| and the level 1e-6 max|psi|
    below which a point is a node.

    v and b are built raw and filled at node points (`grid_field.fill_nodes`)
    on first need, at most once: when a gather reaches a cell with a node
    corner, or when `v` or `b` is read.  A point away from the nodes is its
    own fill source, and at a node the filled b is v + u of the same source
    point, so every gathered value has the bytes of a field filled up front.
    """

    def __init__(self, v: tuple, b: tuple, abs_psi: np.ndarray,
                 node_level: float, mask: np.ndarray):
        self.abs_psi = abs_psi
        self.node_level = node_level
        self._grids = {"v": v, "b": b}
        self._mask = mask if mask.any() else None  # None: nothing to fill
        self._codes = None

    @property
    def v(self) -> tuple:
        """The current velocity grids, node points filled."""
        self._fill()
        return self._grids["v"]

    @property
    def b(self) -> tuple:
        """The forward drift grids, node points filled."""
        self._fill()
        return self._grids["b"]

    def lookup(self, cells: list) -> np.ndarray:
        """The code of each cell of `cells`, one look-up of its lower corner
        in a table built once per field (`_cell_codes`): 2 if a corner is a
        node point, else 1 if a point of the cell can flag, else 0."""
        if self._codes is None:
            self._codes = _cell_codes(self.abs_psi, self.node_level)
        return self._codes.take(cells[0][0])

    def flag(self, cells: list, codes: np.ndarray, flags: np.ndarray) -> None:
        """Set flags[i] where |psi| at point i of `cells` is below the node
        level.  |psi| is interpolated only if some cell can flag (`codes`,
        the cells' `lookup`, > 0): no point of any other cell reads below
        the level."""
        if codes.any():
            flags |= _gather(self.abs_psi, cells) < self.node_level

    def gather(self, name: str, cells: list,
               codes: Optional[np.ndarray]) -> np.ndarray:
        """The grids `name` ("v" or "b") at the points of `cells`: (N, dim).
        The field is filled first if a cell has a node corner; `codes` is the
        cells' `lookup` when the caller has made it, else None."""
        if self._mask is not None:
            if codes is None:
                codes = self.lookup(cells)
            if codes.max() > 1:
                self._fill()
        return _gather_axes(self._grids[name], cells)

    def _fill(self) -> None:
        """Fill v and b at the node points, unless that is done already."""
        if self._mask is not None:
            v, b = self._grids["v"], self._grids["b"]
            filled = fill_nodes(self._mask, len(v), *v, *b)
            self._grids = {"v": filled[:len(v)], "b": filled[len(v):]}
            self._mask = None


# A point is flagged when the interpolated |psi| there is below the node
# level L.  Along each axis `_cells` gives a wrapped point (frac >= 0) the
# weights w = frac - floor(frac), exact, and 1 - w, rounded once, which sum
# to at least 1 - u (u = 2**-53).  `_gather` rounds each 2-D corner term
# twice and each of its three sums once, so the interpolant is at least
# (1 - u)**7 times the cell's least corner |psi| (fewer roundings in 1-D;
# |psi| clear of the underflow range).  The threshold fl(L (1 + 64u)) is at
# least L (1 + 64u)(1 - u), and (1 + 64u)(1 - u)**8 > 1, so no point of a
# cell whose corners all reach the threshold can flag.
_FLAG_MARGIN = 32 * np.finfo(float).eps


def _cell_codes(abs_psi: np.ndarray, level: float) -> np.ndarray:
    """Per grid cell, flat-indexed by its lower corner, an int8 code: 2 if a
    corner's |psi| is below `level` (a node corner), else 1 if one is below
    level * (1 + _FLAG_MARGIN), else 0 (the cell cannot flag).  That is the
    largest of its corners' own codes."""
    codes = (abs_psi < level * (1 + _FLAG_MARGIN)).view(np.int8)
    codes += abs_psi < level
    for ax in range(abs_psi.ndim):
        codes = np.maximum(codes, np.roll(codes, -1, axis=ax))
    return codes.ravel()


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
    """Current velocity and forward drift grids from a complex field.

    grad(psi)/psi splits as Re -> osmotic * m/hbar, Im -> current * m/hbar.
    Near-node points take the value of the nearest valid point, filled only
    when a gather reaches a cell with a node corner (see VelocityField).
    """
    absv = np.abs(psi_values)
    level = node_level(absv, grid.dim).item()
    mask = absv < level
    safe = np.where(mask, 1.0, psi_values)
    scale = params.hbar / params.m
    ratios = [differentiate(psi_values, grid, axis=ax, order=1) / safe
              for ax in range(grid.dim)]
    v = tuple(scale * r.imag for r in ratios)
    b = tuple(va + scale * r.real for va, r in zip(v, ratios))
    return VelocityField(v, b, absv, level, mask)


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
    Returns one value per point, shaped points.shape[:-1].
    """
    field = np.asarray(field)
    field = field.astype(np.result_type(field, np.float64), copy=False)
    points = np.asarray(points, dtype=float)
    if points.ndim == 0 or points.shape[-1] != grid.dim:
        raise ValueError(f"points must have shape (..., {grid.dim}), got "
                         f"{points.shape}")
    flat = points.reshape(-1, grid.dim)
    return _gather(field, _cells(grid, flat)).reshape(points.shape[:-1])


class FrameInterpolator:
    """Linear-in-time (Re, Im) interpolation of trace snapshots, and the
    velocity fields of a transport built from it at `field_times` (see
    `_field_times`), in order.

    The velocity fields of the last two times asked for are kept.  Those
    are the fields an RK4 step reads after its start, at t + dt/2 and
    t + dt, so every ensemble of a transport shares them, and the next
    step starts from the field at t + dt.  A miss takes the next field,
    which must be at the time asked for.  A moving trace's fields are built
    by a forked producer (`_forked_fields`) from FORK_FIELD_POINTS grid
    points up when two CPUs are usable, else in-process; `close` ends the
    producer at once.
    """

    def __init__(self, trace: EvolutionTrace, params: PhysicalParams,
                 field_times: list):
        self.params = params
        self.grid = trace.snapshots[0].psi.grid
        self.times = trace.times
        self.frames = [s.psi.values for s in trace.snapshots]
        self.static = len(self.frames) == 1
        self._fields = {}  # time -> VelocityField, the last two asked for
        if (not self.static and self.grid.size >= FORK_FIELD_POINTS
                and len(os.sched_getaffinity(0)) > 1):
            self._built = _forked_fields(self, field_times)
        else:
            self._built = ((t, velocity_field(self.psi_at(t), self.grid,
                                              params))
                           for t in ([0.0] if self.static else field_times))

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
            made, vf = next(self._built, (None, None))
            if made != t:
                raise RuntimeError(f"the next velocity field is at "
                                   f"t={made!r}, not at t={t!r}")
            if len(self._fields) == 2:
                del self._fields[next(iter(self._fields))]
            self._fields[t] = vf
        return vf

    def close(self) -> None:
        """End the field producer, if one runs, at once."""
        self._built.close()


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


def _field_times(t0: float, dt: float, nsteps: int, rk4: bool) -> list:
    """The times, in order, at which `FrameInterpolator.velocity_at` misses
    its two-field cache in a transport of `nsteps` steps from t0: each step
    start t, then, if an RK4 rule is present, t + dt/2 and t + dt, the
    expressions the steps use (so an RK4 stage that misses the next start
    by an ulp is a field of its own)."""
    times = []
    for i in range(nsteps):
        t = t0 + i * dt
        for s in (t, t + 0.5 * dt, t + dt) if rk4 else (t,):
            if s not in times[-2:]:  # the two fields cached
                times.append(s)
    return times


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
    """advance(t, vf, q, cells, codes, kick) -> q one RK4 step later."""
    grid = interp.grid
    extra = rule.drift_extra

    def vel(t, vf, cells, codes, q):
        out = vf.gather("v", cells, codes)
        return out if extra is None else out + extra(t, q)

    def vel_at(t, q):
        return vel(t, interp.velocity_at(t), _cells(grid, q), None, q)

    def advance(t, vf, q, cells, codes, kick):
        h = t + 0.5 * dt
        k1 = vel(t, vf, cells, codes, q)
        k2 = vel_at(h, grid.wrap(q + 0.5 * dt * k1))
        k3 = vel_at(h, grid.wrap(q + 0.5 * dt * k2))
        k4 = vel_at(t + dt, grid.wrap(q + dt * k3))
        return grid.wrap(q + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))

    return advance


def _diffusion_step(rule: StepRule, interp: FrameInterpolator, dt: float):
    """advance(t, vf, q, cells, codes, kick) -> q one Euler-Maruyama step
    later, kick being the step's noise row times sqrt(2 nu dt)."""
    grid = interp.grid
    extra = rule.drift_extra
    zero = rule.drift_override == "zero"

    def advance(t, vf, q, cells, codes, kick):
        b = 0.0 if zero else vf.gather("b", cells, codes)
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
    node level at the start of a step.  Initial positions must be finite.
    steps: at most this many steps (required for a static trace).
    keep: the step indices to record (negative ones count from the end);
    None records every step.
    """
    if not runs:
        raise ValueError("need at least one ensemble")
    all_times = step_times(trace, dt, steps)
    nsteps = len(all_times) - 1
    t0 = float(all_times[0])
    rk4 = any(rule.kind == "bohmian" for _, rule in runs)
    interp = FrameInterpolator(trace, params,
                               _field_times(t0, dt, nsteps, rk4))
    grid = interp.grid
    cols = _schedule(keep, nsteps)
    slot = {int(c): s for s, c in enumerate(cols)}
    amp = np.sqrt(2.0 * params.nu * dt)

    qs, advances, streams, positions, flags = [], [], [], [], []
    noise = {}  # (seed, ensemble size) -> its noise rows
    for k, (q0, rule) in enumerate(runs):
        q = np.atleast_2d(np.asarray(q0, dtype=float)
                          .reshape(len(q0), grid.dim))
        npart = q.shape[0]
        if npart == 0:
            raise ValueError("need at least one initial position")
        finite = np.isfinite(q).all(axis=1)
        if not finite.all():
            raise ValueError(f"run {k}: {npart - np.count_nonzero(finite)} "
                             f"of {npart} initial positions are not finite")
        q = grid.wrap(q)
        if rule.kind == "bohmian":
            advances.append(_pilot_wave_step(rule, interp, dt))
            streams.append(None)
        else:
            key = (rule.rng_seed, npart)
            if key not in noise:
                noise[key] = _philox_noise(rule.rng_seed, npart, nsteps,
                                           grid.dim, amp)
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
    try:
        for i in range(nsteps):
            t = t0 + i * dt
            vf = interp.velocity_at(t)
            # a noise row is valid only until its stream's next row is drawn
            kicks = {key: next(rows) for key, rows in noise.items()}
            for k, advance in enumerate(advances):
                cells = _cells(grid, qs[k])
                codes = vf.lookup(cells)
                vf.flag(cells, codes, flags[k])
                qs[k] = advance(t, vf, qs[k], cells, codes,
                                kicks.get(streams[k]))
            record(i + 1)
    finally:
        for producer in (*noise.values(), interp):
            producer.close()  # ends a producer process at once

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


def _philox_noise(seed: int, npart: int, nsteps: int, dim: int,
                 scale: float):
    """Standard normal increments times `scale`, one (npart, dim) row per
    step, from particle i's Philox stream keyed by (seed, i), so a path does
    not depend on the ensemble size.  The steps are drawn in the fewest
    blocks of at most _NOISE_BLOCK (100) steps, of equal width give or take
    one, carrying each particle's state as a 12-word row through a checked
    slice of the generator (`_noise_blocks`).  Each row is C-contiguous and
    valid only until the next row is requested.

    A one-block stream is drawn in place, into one step-major buffer, before
    its first row is handed out: there is nothing to overlap.  A longer
    stream forks one producer process (`_forked_ring`) that draws the
    blocks into two slots of a shared anonymous mmap, one block ahead of
    the rows handed out (a slot is freed when the first row of the next
    block is requested), so the draws, which hold the interpreter lock, run
    on another core while the caller steps; a thread would share the lock.
    The child touches only numpy.random and the slots.  The bytes are the
    same either way.  This needs `os.fork`.
    """
    if nsteps == 0:
        return
    nblocks = -(-nsteps // _NOISE_BLOCK)
    bounds = [nsteps * k // nblocks for k in range(nblocks + 1)]
    shape = (-(-nsteps // nblocks), npart, dim)
    if nblocks > 1:
        shared = mmap.mmap(-1, 2 * math.prod(shape) * 8)
        slots = np.frombuffer(shared).reshape((2,) + shape)
        yield from _forked_ring(
            _noise_blocks(seed, scale, bounds, slots),
            lambda b, s: slots[s, :bounds[b + 1] - bounds[b]],
            nblocks, 2, 1, "noise producer", "block")
        return
    rows = np.empty(shape)
    next(_noise_blocks(seed, scale, bounds, [rows]))
    yield from rows


def _forked_fields(interp: FrameInterpolator, times: list):
    """(t, VelocityField) for each time of `times`, built by a forked
    producer (`_forked_ring`) with the in-process call
    `velocity_field(interp.psi_at(t), grid, params)` into _FIELD_SLOTS slots
    of a shared anonymous mmap: v and b per axis, |psi|, the time and the
    node level.  The child never fills nodes, and the parent's fill makes
    new arrays, so nothing writes into a slot.  A field is valid until
    _FIELD_LAG newer ones are requested: the step's field and the two that
    `FrameInterpolator` caches."""
    grid = interp.grid
    shape = (_FIELD_SLOTS, 2 * grid.dim + 1) + grid.shape
    planes = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)
    stamps = np.frombuffer(mmap.mmap(-1, _FIELD_SLOTS * 16)).reshape(-1, 2)

    def fill():
        for j, t in enumerate(times):
            vf = velocity_field(interp.psi_at(t), grid, interp.params)
            np.stack((*vf._grids["v"], *vf._grids["b"], vf.abs_psi),
                     out=planes[j % _FIELD_SLOTS])
            stamps[j % _FIELD_SLOTS] = t, vf.node_level
            yield

    def take(j, s):
        (t, level), abs_psi = stamps[s].tolist(), planes[s, -1]
        yield t, VelocityField(tuple(planes[s, :grid.dim]),
                               tuple(planes[s, grid.dim:-1]), abs_psi, level,
                               abs_psi < level)

    return _forked_ring(fill(), take, len(times), _FIELD_SLOTS, _FIELD_LAG,
                        "field producer", "field")


def _forked_ring(fill, take, nitems: int, nslots: int, lag: int, what: str,
                 unit: str):
    """Yield from take(j, j % nslots) for each item j = 0..nitems - 1 of a
    forked producer, once the child has filled slot j % nslots with it.

    The child advances the iterator `fill` once per item and writes a byte
    to one pipe when the item is done; before item j >= nslots it waits for
    a byte on a second pipe saying item j - nslots is freed.  The parent
    frees item j - lag as it requests item j.  The child ends with
    os._exit; the parent reaps it after the last item, or kills and reaps
    it when the generator is closed early or an error ends it.  A child
    that ends before its last item is a RuntimeError naming `what`, its pid
    and exit status and the `unit` it ended at.  (Python 3.12 and later
    warn on a fork while other threads run, such as scipy's OpenBLAS pool;
    the child calls no code of theirs.)
    """
    full_r, full_w = os.pipe()
    free_r, free_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (full_r, full_w, free_r, free_w):
            os.close(fd)
        raise
    if pid == 0:  # the producer; nothing may return past os._exit
        status = 1
        try:
            os.close(full_r)
            os.close(free_w)
            for j in range(nitems):
                if j >= nslots and not os.read(free_r, 1):
                    break  # the parent closed the ring
                next(fill)
                os.write(full_w, b"\0")
            status = 0
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)
    os.close(full_w)
    os.close(free_r)
    reaped = False
    try:
        for j in range(nitems):
            try:
                if lag <= j < nitems + lag - nslots:
                    os.write(free_w, b"\0")  # item j - lag's slot
                full = os.read(full_r, 1)
            except BrokenPipeError:
                full = b""
            if not full or j == nitems - 1:
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                reaped = True
                if not full or status:
                    raise RuntimeError(
                        f"{what} (pid {pid}) ended with exit status "
                        f"{status} at {unit} {j} of {nitems}")
            yield from take(j, j % nslots)
    finally:
        os.close(full_r)
        os.close(free_w)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _noise_blocks(seed: int, scale: float, bounds: list,
                  slots: Sequence[np.ndarray]):
    """Draw the blocks of a stream in turn, block b (steps bounds[b] to
    bounds[b + 1]) into the first rows of slots[b % len(slots)], each slot a
    step-major (steps, npart, dim) array, and yield after each.

    One bit generator draws every stream; its whole state is a 12-word slice
    (`_philox_state`) set by one copy of particle i's uint64 row: key
    (seed, i) and an empty buffer, or the state i ended the last block with.
    A multi-block stream keeps these rows in one (npart, 12) array, copied
    back from the slice while another block follows; a one-block stream
    builds them per tile.  A block is drawn _NOISE_TILE particles at a time
    into a small particle-major scratch and copied in transposed and scaled.
    """
    nblocks = len(bounds) - 1
    width_max, npart, dim = slots[0].shape
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    live = _philox_state(bitgen)
    ntile = min(_NOISE_TILE, npart)
    states = np.zeros((npart if nblocks > 1 else ntile, 12), np.uint64)
    states[:, 0] = 4  # an empty buffer
    states[:, 6] = seed
    tile = np.empty((ntile, width_max, dim))
    for b in range(nblocks):
        rows = slots[b % len(slots)]
        width = bounds[b + 1] - bounds[b]
        more = b + 1 < nblocks
        outs = [tile[j, :width] for j in range(ntile)]
        for lo in range(0, npart, _NOISE_TILE):
            hi = min(lo + _NOISE_TILE, npart)
            tile_states = states[lo:hi] if nblocks > 1 else states[:hi - lo]
            if b == 0:
                tile_states[:, 7] = range(lo, hi)
            for state, out in zip(tile_states, outs):
                live[...] = state
                gen.standard_normal(out=out)
                if more:
                    state[...] = live
            np.multiply(tile[:hi - lo, :width].swapaxes(0, 1), scale,
                        out=rows[:width, lo:hi])
        yield


_PHILOX_KEY_AT, _PHILOX_COUNTER_AT = 64, 80  # byte offsets in the struct


def _philox_state(bitgen: np.random.Philox) -> np.ndarray:
    """The whole state of `bitgen` as a writable (12,) uint64 view of its
    struct, valid while `bitgen` lives: buffer position, buffer[4],
    has_uint32 | uinteger << 32, key[2], counter[4].  numpy's layout is
    private, so its key and counter pointers are checked before any word is
    mapped, then a state through numpy's setter and the slice and one back
    through its getter and setter; a mismatch is a RuntimeError."""
    addr = bitgen.ctypes.state_address
    if tuple((ctypes.c_uint64 * 2).from_address(addr)) == (
            addr + _PHILOX_COUNTER_AT, addr + _PHILOX_KEY_AT):
        live = np.frombuffer((ctypes.c_uint64 * 14).from_address(addr),
                             np.uint64)[2:]
        bitgen.state = {
            "bit_generator": "Philox", "buffer_pos": 3, "buffer": (7, 8, 9, 10),
            "has_uint32": 1, "uinteger": 2 ** 31,
            "state": {"key": (2 ** 64 - 1, 6), "counter": (1, 2, 3, 4)}}
        if live.tolist() == [3, 7, 8, 9, 10, 2 ** 63 + 1, 2 ** 64 - 1, 6,
                             1, 2, 3, 4]:
            live[...] = written = list(range(4, 16))
            bitgen.state = bitgen.state
            if live.tolist() == written:
                return live
    raise RuntimeError("numpy's Philox state layout is not the expected one")


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
