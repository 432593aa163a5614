"""Time evolution of the wave field for any lambda in [0, 1].

lambda = 1 is the ordinary linear Schrodinger propagator; lambda < 1
evolves i*hbar dpsi/dt = [-(hbar^2/2m) lap + V + (lam - 1) Q_psi] psi
with Q_psi = -(hbar^2/2m) lap|psi|/|psi|.  Writing psi = R e^{iS/hbar}
and splitting into real equations, the (lam - 1) Q term cancels the
quantum potential down to a weight of lam while leaving the continuity
equation untouched, so this single wave equation carries the whole
quantum-to-classical interpolation.  A useful corollary (used as a test
oracle): the lam-dynamics of (R, S) is identical to ordinary Schrodinger
dynamics with an effective action scale hbar_eff = sqrt(lam) * hbar.

Integrator: Strang-split spectral stepping (half kick, kinetic factor in
Fourier space, half kick), shared with the pointer model of
`measurement`.  The kick changes only the phase of psi, so the factor
that closes one step also opens the next: at lam < 1 the quantum
potential is evaluated once per step, from |psi| after the kinetic
factor (first order in dt for the nonlinear part), and at lam = 1 the
kick factor is exponentiated once per run.  The lam < 1 kick owns its Q
kernel (`_QKernel`): a real transform of R along the last field axis
and complex ones along the others, the |k|^2 multiply on the half
spectrum, the inverse transforms, the division by R and the node fill,
on arrays kept while the stack keeps its shape.  The fill's source map
is kept while the node mask holds still, which it does on most steps,
and found again only when the mask changes.  The stepper advances a
stack of fields at once, each with its own lam; `lambda_sweep` runs all
its fields in one stack, and each row gives the bytes a separate
`evolve` call gives.  A step whose norms hold is checked from the norms
alone; the fields are scanned for non-finite values only at snapshots
and at a step that fails, and each snapshot's <H> serves its lam-energy
check.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .grid_field import (
    Grid,
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    differentiate,
    laplacian,
    node_level,
    node_sources,
)


class EvolutionAbort(RuntimeError):
    """Numerical abort (norm drift or non-finite values) with partial trace."""

    def __init__(self, message: str, trace: "EvolutionTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    params: PhysicalParams
    potential: PotentialSpec
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (isinstance(self.dt, numbers.Real) and math.isfinite(self.dt)
                and self.dt > 0):
            raise ValueError(f"dt must be a finite number > 0, got {self.dt!r}")
        for name in ("steps", "snapshot_stride"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
                    or v < 1):
                raise ValueError(f"{name} must be an int >= 1, got {v!r}")

    def check_stability(self, grid: Grid) -> None:
        # Guard against aliasing of the kinetic phase factor at the grid's
        # Nyquist wavenumber.
        dt_max = grid.dx ** 2 * self.params.m / (np.pi * self.params.hbar)
        if self.dt > dt_max:
            raise ValueError(
                f"dt={self.dt} exceeds kinetic sampling bound {dt_max:.3e} "
                f"for dx={grid.dx:.3e}"
            )


@dataclass
class Snapshot:
    t: float
    psi: Wavefunction
    norm: float
    energy: float
    max_q: float


@dataclass
class EvolutionTrace:
    snapshots: list = field(default_factory=list)
    status: str = "ok"
    detail: str = ""

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    def final(self) -> Wavefunction:
        return self.snapshots[-1].psi


def energy_expectation(psi: Wavefunction, potential: PotentialSpec,
                       params: PhysicalParams) -> float:
    """<psi| -(hbar^2/2m) lap + V |psi> with spectral kinetic term."""
    grid = psi.grid
    v = potential.evaluate(grid)
    kin = -(params.hbar ** 2 / (2.0 * params.m)) * laplacian(psi.values, grid)
    integrand = np.conj(psi.values) * (kin + v * psi.values)
    return float(np.sum(integrand).real * grid.cell_volume)


def lambda_energy(snap: Snapshot, params: PhysicalParams) -> float:
    """The conserved energy of the lam-dynamics at a snapshot:
    int rho [ (grad S)^2/2m + V + lam*Q ] = <H> - (1 - lam) int rho Q,
    using int rho Q = (hbar^2/2m) int (grad R)^2.  <H> is the snapshot's
    `energy`, so it is computed once per snapshot."""
    e = snap.energy
    if params.lam == 1.0:
        return e
    grid = snap.psi.grid
    R = np.abs(snap.psi.values)
    grad_sq = sum(np.abs(differentiate(R, grid, axis=ax, order=1)) ** 2
                  for ax in range(grid.dim))
    int_rho_q = (params.hbar ** 2 / (2.0 * params.m)) \
        * float(np.sum(grad_sq) * grid.cell_volume)
    return e - (1.0 - params.lam) * int_rho_q


def _split_step(psi: np.ndarray, kinetic: np.ndarray, steps: int,
                half_kick=None, axes=None):
    """Strang split-step propagation of a stack of fields.

    psi holds one field per row along its leading axis.  Each step is half
    kick, `kinetic` factor applied in Fourier space over the field `axes`
    (None: all field axes), half kick.  half_kick(psi) returns the phase
    factor of a half-step kick for the stack in its current
    representation; without it the steps are free flight.  A kick changes
    only the phase, so the factor that closes one step also opens the
    next: half_kick runs once here, before the first step, and then once
    per step.  A factor with the stack's ndim holds one row per field;
    one with the field's ndim is shared by all rows.

    Returns a generator over the stack after each step.  psi is copied
    once and then advanced in place: every step yields the same array,
    which the next step overwrites, so a caller that keeps a step's field
    copies it.  Sending the generator a boolean row mask keeps only those
    rows from then on, in a new array.  The kinetic product is
    `kinetic * spectrum` in that operand order, whatever the stack's
    height: numpy's complex multiply is not commutative to the last bit.
    """
    fft_axes = tuple(range(1, psi.ndim)) if axes is None else \
        tuple(ax + 1 for ax in axes)
    psi = psi.copy()
    spec = np.empty_like(psi)
    # the stack's shape, so that the product broadcasts nothing
    kinetic = np.broadcast_to(kinetic, psi.shape).copy()
    factor = None if half_kick is None else half_kick(psi)

    def transform(fn, a, b):
        # np.fft.fftn's sequence of 1-D transforms, last axis first, each
        # from one of the two arrays into the other (numpy copies an array
        # transformed onto itself); returns the one holding the result
        for ax in reversed(fft_axes):
            fn(a, axis=ax, out=b)
            a, b = b, a
        return a

    def run(psi, spec, kinetic, factor):
        for _ in range(steps):
            if factor is not None:
                np.multiply(psi, factor, out=psi)
            spectrum = transform(np.fft.fft, psi, spec)
            np.multiply(kinetic, spectrum, out=spectrum)
            # as many transforms back as forth: the field ends in psi
            transform(np.fft.ifft, spectrum, spec if spectrum is psi else psi)
            if half_kick is not None:
                factor = half_kick(psi)
                np.multiply(psi, factor, out=psi)
            keep = yield psi
            if keep is not None:
                psi, kinetic = psi[keep], kinetic[keep]
                spec = np.empty_like(psi)
                if factor is not None and factor.ndim == psi.ndim:
                    factor = factor[keep]
                yield None

    return run(psi, spec, kinetic, factor)


class _QKernel:
    """The quantum potential of some rows of a stack of fields, on arrays
    kept from one call to the next.

    The lam < 1 kick evaluates Q every step on a stack of one shape.
    Stack-sized temporaries made anew each step would be freed at the top
    of the heap, given back to the system and faulted in again on the next
    step, so the kernel keeps its own.  R is real, so a real transform
    along the last field axis and complex ones along the others give the
    half spectrum, as `np.fft.rfftn` does, called axis by axis:
    Q = (hbar^2/2m) irfft(|k|^2 rfft R) / R where R is at or above its
    field's `node_level`; a node point takes the value of the nearest
    point that is not, as in `quantum_potential_from_abs`.  The node mask
    seldom changes from one step to the next, so the kernel keeps the
    fill's source map (`node_sources`) with the mask it was found for,
    finds it again only when the mask differs, and fills with one `take`.
    """

    def __init__(self, grid: Grid, params: PhysicalParams, rows: int):
        shape = (rows,) + grid.shape
        half = grid.npoints // 2 + 1
        self.dim = grid.dim
        # the transforms' axes: complex ones, then the real one
        *self.other_axes, self.last_axis = range(1, grid.dim + 1)
        self.psi = np.empty(shape, complex)
        self.R = np.empty(shape)
        self.mask = np.empty(shape, bool)
        self.valid = np.empty(shape, bool)
        self.spec = np.empty(shape[:-1] + (half,), complex)
        self.q = np.empty(shape)
        self.filled = np.empty(shape)
        # the fill's source map and the mask it was found for: an empty
        # mask needs none
        self.src = None
        self.src_mask = np.zeros(shape, bool)
        # |k|^2 of the last axis's first n/2 + 1 wavenumbers, those the
        # real transform keeps
        self.ksq = (params.hbar ** 2 / (2.0 * params.m)) \
            * grid.ksq()[..., :half]

    def __call__(self, psi: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Q of the fields psi[rows].  The result, and `mask`, their node
        points, live in the kernel until its next call."""
        R = np.abs(np.take(psi, rows, axis=0, mode="clip", out=self.psi),
                   out=self.R)
        mask = np.less(R, node_level(R, self.dim), out=self.mask)
        if not np.array_equal(mask, self.src_mask):
            self.src = node_sources(mask, self.dim)
            np.copyto(self.src_mask, mask)
        # the 1-D transforms np.fft.rfftn and irfftn make, in their order,
        # without their per-call argument handling
        spec = np.fft.rfft(R, axis=self.last_axis, out=self.spec)
        for ax in reversed(self.other_axes):
            np.fft.fft(spec, axis=ax, out=spec)
        np.multiply(spec, self.ksq, out=spec)
        for ax in self.other_axes:
            np.fft.ifft(spec, axis=ax, out=spec)
        q = np.fft.irfft(spec, n=R.shape[-1], axis=self.last_axis,
                         out=self.q)
        # node points are divided by nothing: the fill overwrites them
        np.divide(q, R, out=q, where=np.logical_not(mask, out=self.valid))
        if self.src is None:
            return q
        # every source is in range; "clip" writes straight into `filled`
        # where the default mode would buffer the result
        return np.take(q, self.src, mode="clip", out=self.filled)


def _evolve_rows(psi0s: list, cfg: EvolutionConfig, lams) -> list:
    """Propagate the fields psi0s side by side, row i at weight lams[i],
    and return one trace per row.

    Each row gets the snapshots and checks `evolve` describes.  A row that
    fails a check is frozen with status "aborted", its detail and the
    snapshots it had, including one that tripped the lam-energy check; it
    leaves the stack and the other rows go on.
    """
    grid = psi0s[0].grid
    if any(p.grid != grid for p in psi0s):
        raise ValueError("all fields of a stack must share one grid")
    cfg.check_stability(grid)
    params = cfg.params
    v = cfg.potential.evaluate(grid)
    kinetic_phase = np.exp(-1j * params.hbar * grid.ksq() * cfg.dt / (2.0 * params.m))
    half = np.exp(-0.5j * v * cfg.dt / params.hbar)
    row_params = [params.with_lambda(lam) for lam in lams]
    traces = [EvolutionTrace() for _ in psi0s]
    field_shape = (-1,) + (1,) * grid.dim

    # per row of the stack: its trace index and lam, the norm after the
    # last step, and max |Q| of the last two kick evaluations (entry 0 at
    # the start, entry n at the end of step n, so step n spans entries
    # n - 1 and n; always 0 at lam = 1, where Q is not evaluated)
    live = np.arange(len(psi0s))
    lam = np.array(lams, dtype=float)
    prev_norm = np.ones(len(live))
    q_prev = np.zeros(len(live))
    q_last = np.zeros(len(live))

    # the kick's arrays live while the stack keeps its shape, for the
    # reason `_QKernel` keeps its own; so do the lam < 1 rows and their
    # lam - 1, since lam changes only when rows leave the stack
    factor = kernel = theta = kick = sub = lam_col = None

    def half_kick(cur_psi):
        nonlocal q_prev, q_last, factor, kernel, theta, kick, sub, lam_col
        if factor is None or factor.shape != cur_psi.shape:
            sub = np.flatnonzero(lam < 1.0)
            lam_col = (lam[sub] - 1.0).reshape(field_shape)
            factor = np.empty(cur_psi.shape, complex)
            factor[...] = half
            kernel = _QKernel(grid, params, len(sub))
            theta = np.empty(kernel.R.shape)
            kick = np.empty(kernel.R.shape, complex)
        if not len(sub):
            return factor
        q = kernel(cur_psi, sub)
        q_prev, q_last = q_last, q_last.copy()
        q_last[sub] = np.abs(q, out=theta).reshape(len(q), -1).max(axis=1)
        # theta = ((-0.5 * veff) * dt) / hbar with veff = v + (lam - 1) q,
        # and the kick factor exp(i theta) as cos theta + i sin theta
        np.multiply(lam_col, q, out=theta)
        np.add(v, theta, out=theta)
        np.multiply(-0.5, theta, out=theta)
        np.multiply(theta, cfg.dt, out=theta)
        np.divide(theta, params.hbar, out=theta)
        np.cos(theta, out=kick.real)
        np.sin(theta, out=kick.imag)
        factor[sub] = kick
        return factor

    def snap(i, cur_psi, cur_t, q):
        wf = Wavefunction(grid, cur_psi.copy(), cur_t)
        traces[i].snapshots.append(Snapshot(
            t=cur_t, psi=wf, norm=wf.norm,
            energy=energy_expectation(wf, cfg.potential, params),
            max_q=q,
        ))

    psi = np.stack([p.normalized().values for p in psi0s])
    t0 = [float(p.t) for p in psi0s]
    stepper = _split_step(psi, kinetic_phase, cfg.steps, half_kick)
    for i in live:
        snap(i, psi[i], t0[i], float(q_last[i]))
    e_lam0 = [lambda_energy(tr.snapshots[0], rp)
              if rp.lam < 1.0 else None
              for tr, rp in zip(traces, row_params)]

    rho = None
    for step, psi in enumerate(stepper, 1):
        rows = len(live)
        if rho is None or rho.shape != psi.shape:
            rho = np.empty(psi.shape)
        np.square(np.abs(psi, out=rho), out=rho)
        norm = np.sqrt(np.sum(rho.reshape(rows, -1), axis=1)
                       * grid.cell_volume)
        drift = np.abs(norm - prev_norm)
        prev_norm = norm
        snapshot = step % cfg.snapshot_stride == 0 or step == cfg.steps
        # a drift <= 1e-6 implies a finite norm (prev_norm is finite), and
        # a finite norm implies finite values, so a quiet step needs no
        # finiteness pass
        if not snapshot and (drift <= 1e-6).all():
            continue
        finite = np.isfinite(psi.reshape(rows, -1).view(float)).all(axis=1)
        keep = np.ones(rows, dtype=bool)
        for r, i in enumerate(live):
            t = t0[i] + step * cfg.dt
            detail = ""
            if not finite[r]:
                detail = f"non-finite field at step {step} (t={t:.6g})"
            elif drift[r] > 1e-6:
                detail = (f"norm drifted by {drift[r]:.3e} at step {step} "
                          f"(t={t:.6g}); caustic or nonlinear instability")
            elif snapshot:
                snap(i, psi[r], t, max(float(q_prev[r]), float(q_last[r])))
                if e_lam0[i] is not None:
                    # the propagator is unitary even at lam < 1, so caustic
                    # formation shows up as drift of the conserved
                    # lam-energy, not of the norm
                    e_lam = lambda_energy(traces[i].snapshots[-1],
                                          row_params[i])
                    if abs(e_lam - e_lam0[i]) > 1e-3 * max(1.0, abs(e_lam0[i])):
                        detail = (f"lam-energy drifted from {e_lam0[i]:.6g} "
                                  f"to {e_lam:.6g} at step {step} "
                                  f"(t={t:.6g}); caustic formation or "
                                  "nonlinear breakdown")
            if detail:
                traces[i].status = "aborted"
                traces[i].detail = detail
                keep[r] = False
        if not keep.all():
            if not keep.any():
                break
            live, lam, prev_norm, q_prev, q_last = (
                a[keep] for a in (live, lam, prev_norm, q_prev, q_last))
            stepper.send(keep)

    return traces


def evolve(psi0: Wavefunction, cfg: EvolutionConfig) -> EvolutionTrace:
    """Propagate psi0 for cfg.steps steps, with a snapshot at the start,
    after every cfg.snapshot_stride steps and after the last step.

    Raises EvolutionAbort (carrying the partial trace) if the norm drifts
    by more than 1e-6 in a single step or a non-finite value appears, or,
    for lam < 1, if the conserved lam-energy E of a snapshot differs from
    the start's E0 by more than 1e-3 * max(1, |E0|); for lam < 1 each
    signals caustic formation / nonlinear breakdown.
    """
    trace, = _evolve_rows([psi0], cfg, [cfg.params.lam])
    if trace.status == "aborted":
        raise EvolutionAbort(trace.detail, trace)
    return trace


def density_width(psi: Wavefunction) -> float:
    """Rms width of |psi|^2 about its mean along the first axis."""
    grid = psi.grid
    rho = psi.density()
    x = grid.meshgrid()[0]
    w = rho * grid.cell_volume
    mean = float(np.sum(x * w))
    return float(np.sqrt(np.sum((x - mean) ** 2 * w)))


def fringe_visibility(rho_coherent: np.ndarray, rho_incoherent: np.ndarray,
                      grid: Grid) -> float:
    """Interference strength: half the L1 distance between the coherent
    density and the incoherent (separately evolved components) density.

    Zero when the components do not overlap or have lost phase coherence;
    bounded by 1.
    """
    return min(1.0, 0.5 * float(
        np.sum(np.abs(rho_coherent - rho_incoherent)) * grid.cell_volume))


@dataclass
class SweepEntry:
    lam: float
    status: str
    detail: str
    visibility: float | None
    final_density: np.ndarray | None
    max_q_history: list


def lambda_sweep(psi0: Wavefunction, cfg_base: EvolutionConfig, lambdas,
                 reference_components=None) -> list:
    """Run identical initial data across a sorted list of lambda values.

    If `reference_components` is a list of (wavefunction, weight) pairs,
    each component is also evolved alone at the same lambda and the
    summary's visibility is the coherent-vs-incoherent fringe metric;
    otherwise visibility is None.  All fields at all lambdas advance in one
    stack.  Per-lambda aborts are recorded and the sweep continues; a
    lambda whose reference component aborts is recorded as aborted, with
    visibility None and the component named in its detail.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda sweep needs at least one lambda value")
    if any(not 0.0 <= l <= 1.0 for l in lambdas):
        raise ValueError("lambda values must lie in [0, 1]")
    if sorted(lambdas) != lambdas:
        raise ValueError("lambda values must be sorted ascending")

    # one stack: per lambda the coherent field, then each component
    comps = [] if reference_components is None else reference_components
    group = 1 + len(comps)
    fields = [psi0] + [comp.normalized() for comp, _ in comps]
    traces = _evolve_rows(fields * len(lambdas), cfg_base,
                          [lam for lam in lambdas for _ in range(group)])

    entries = []
    for k, lam in enumerate(lambdas):
        trace, *comp_traces = traces[k * group:(k + 1) * group]
        status, detail = trace.status, trace.detail
        failed = [(c, tr) for c, tr in enumerate(comp_traces)
                  if tr.status != "ok"]
        if status == "ok" and failed:
            c, tr = failed[0]
            status = "aborted"
            detail = f"reference component {c}: {tr.detail}"
        final_rho = trace.final().density() if trace.snapshots else None
        visibility = None
        if status == "ok" and reference_components is not None:
            rho_inc = np.zeros(psi0.grid.shape)
            for (_, weight), tr in zip(comps, comp_traces):
                rho_inc = rho_inc + weight * tr.final().density()
            visibility = fringe_visibility(final_rho, rho_inc, psi0.grid)

        entries.append(SweepEntry(
            lam=lam, status=status, detail=detail, visibility=visibility,
            final_density=final_rho,
            max_q_history=[s.max_q for s in trace.snapshots],
        ))
    return entries
