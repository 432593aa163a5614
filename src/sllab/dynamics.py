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
kick factor is exponentiated once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid_field import (
    Grid,
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    laplacian,
    quantum_potential_from_abs,
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
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

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

    def frame_dt(self) -> float:
        ts = self.times
        if len(ts) < 2:
            raise ValueError("trace has fewer than two snapshots")
        return float(ts[1] - ts[0])


def energy_expectation(psi: Wavefunction, potential: PotentialSpec,
                       params: PhysicalParams) -> float:
    """<psi| -(hbar^2/2m) lap + V |psi> with spectral kinetic term."""
    grid = psi.grid
    v = potential.evaluate(grid)
    kin = -(params.hbar ** 2 / (2.0 * params.m)) * laplacian(psi.values, grid)
    integrand = np.conj(psi.values) * (kin + v * psi.values)
    return float(np.sum(integrand).real * grid.cell_volume)


def lambda_energy(psi: Wavefunction, potential: PotentialSpec,
                  params: PhysicalParams) -> float:
    """The conserved energy of the lam-dynamics:
    int rho [ (grad S)^2/2m + V + lam*Q ] = <H> - (1 - lam) int rho Q,
    using int rho Q = (hbar^2/2m) int (grad R)^2."""
    e = energy_expectation(psi, potential, params)
    if params.lam == 1.0:
        return e
    grid = psi.grid
    from .grid_field import differentiate
    R = np.abs(psi.values)
    grad_sq = sum(np.abs(differentiate(R, grid, axis=ax, order=1)) ** 2
                  for ax in range(grid.dim))
    int_rho_q = (params.hbar ** 2 / (2.0 * params.m)) \
        * float(np.sum(grad_sq) * grid.cell_volume)
    return e - (1.0 - params.lam) * int_rho_q


def _split_step(psi: np.ndarray, kinetic: np.ndarray, steps: int,
                half_kick=None, axes=None):
    """Strang split-step propagation of the field array psi.

    Each step is half kick, `kinetic` factor applied in Fourier space over
    `axes` (None: all axes), half kick.  half_kick(psi) returns the phase
    factor of a half-step kick for the field in its current representation;
    without it the steps are free flight.  A kick changes only the phase,
    so the factor that closes one step also opens the next: half_kick runs
    once here, before the first step, and then once per step.  Returns an
    iterator over the field after each step.
    """
    factor = None if half_kick is None else half_kick(psi)

    def run(psi, factor):
        for _ in range(steps):
            if factor is not None:
                psi = psi * factor
            psi = np.fft.ifftn(kinetic * np.fft.fftn(psi, axes=axes), axes=axes)
            if half_kick is not None:
                factor = half_kick(psi)
                psi = psi * factor
            yield psi

    return run(psi, factor)


def evolve(psi0: Wavefunction, cfg: EvolutionConfig) -> EvolutionTrace:
    """Propagate psi0 for cfg.steps steps, collecting strided snapshots.

    Raises EvolutionAbort (carrying the partial trace) if the norm drifts
    by more than 1e-6 in a single step or a non-finite value appears;
    for lam < 1 this signals caustic formation / nonlinear breakdown.
    """
    grid = psi0.grid
    cfg.check_stability(grid)
    params = cfg.params
    v = cfg.potential.evaluate(grid)
    kinetic_phase = np.exp(-1j * params.hbar * grid.ksq() * cfg.dt / (2.0 * params.m))

    if params.lam == 1.0:
        half = np.exp(-0.5j * v * cfg.dt / params.hbar)
        max_q = [0.0]

        def half_kick(cur_psi):
            return half
    else:
        # max |Q| of each kick evaluation: entry 0 at the start, entry n at
        # the end of step n, so step n spans entries n - 1 and n
        max_q = []

        def half_kick(cur_psi):
            q = quantum_potential_from_abs(np.abs(cur_psi), grid, params)
            max_q.append(float(np.max(np.abs(q))))
            veff = v + (params.lam - 1.0) * q
            return np.exp(-0.5j * veff * cfg.dt / params.hbar)

    psi = psi0.normalized().values
    trace = EvolutionTrace()

    def snap(cur_psi, cur_t, q):
        wf = Wavefunction(grid, cur_psi.copy(), cur_t)
        trace.snapshots.append(Snapshot(
            t=cur_t, psi=wf, norm=wf.norm,
            energy=energy_expectation(wf, cfg.potential, params),
            max_q=q,
        ))

    stepper = _split_step(psi, kinetic_phase, cfg.steps, half_kick)
    snap(psi, float(psi0.t), max_q[0])
    prev_norm = 1.0
    e_lam0 = (lambda_energy(trace.snapshots[0].psi, cfg.potential, params)
              if params.lam < 1.0 else None)

    for step, psi in enumerate(stepper, 1):
        t = float(psi0.t) + step * cfg.dt

        if not np.all(np.isfinite(psi.view(float))):
            trace.status = "aborted"
            trace.detail = f"non-finite field at step {step} (t={t:.6g})"
            raise EvolutionAbort(trace.detail, trace)
        norm = float(np.sqrt(np.sum(np.abs(psi) ** 2) * grid.cell_volume))
        if abs(norm - prev_norm) > 1e-6:
            trace.status = "aborted"
            trace.detail = (
                f"norm drifted by {abs(norm - prev_norm):.3e} at step {step} "
                f"(t={t:.6g}); caustic or nonlinear instability"
            )
            raise EvolutionAbort(trace.detail, trace)
        prev_norm = norm

        if step % cfg.snapshot_stride == 0:
            snap(psi, t, max(max_q[-2:]))
            if params.lam < 1.0:
                # the propagator is unitary even at lam < 1, so caustic
                # formation shows up as drift of the conserved lam-energy,
                # not of the norm
                wf = trace.snapshots[-1].psi
                e_lam = lambda_energy(wf, cfg.potential, params)
                if abs(e_lam - e_lam0) > 1e-3 * max(1.0, abs(e_lam0)):
                    trace.status = "aborted"
                    trace.detail = (
                        f"lam-energy drifted from {e_lam0:.6g} to "
                        f"{e_lam:.6g} at step {step} (t={t:.6g}); caustic "
                        "formation or nonlinear breakdown"
                    )
                    raise EvolutionAbort(trace.detail, trace)

    return trace


def density_width(psi: Wavefunction, axis: int = 0) -> float:
    """Rms width of |psi|^2 about its mean along one axis."""
    grid = psi.grid
    rho = psi.density()
    x = grid.meshgrid()[axis]
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
    otherwise visibility is None.  Per-lambda aborts are recorded and the
    sweep continues.
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda sweep needs at least one lambda value")
    if any(not 0.0 <= l <= 1.0 for l in lambdas):
        raise ValueError("lambda values must lie in [0, 1]")
    if sorted(lambdas) != lambdas:
        raise ValueError("lambda values must be sorted ascending")

    entries = []
    for lam in lambdas:
        cfg = replace(cfg_base, params=cfg_base.params.with_lambda(lam))
        try:
            trace = evolve(psi0, cfg)
            status, detail = "ok", ""
        except EvolutionAbort as exc:
            trace = exc.trace
            status, detail = "aborted", str(exc)

        final_rho = trace.final().density() if trace.snapshots else None
        visibility = None
        if status == "ok" and reference_components is not None:
            rho_inc = np.zeros(psi0.grid.shape)
            for comp, weight in reference_components:
                comp_trace = evolve(comp.normalized(), cfg)
                rho_inc = rho_inc + weight * comp_trace.final().density()
            visibility = fringe_visibility(final_rho, rho_inc, psi0.grid)

        entries.append(SweepEntry(
            lam=lam, status=status, detail=detail, visibility=visibility,
            final_density=final_rho,
            max_q_history=[s.max_q for s in trace.snapshots],
        ))
    return entries
