"""Two-outcome pointer measurement as plain dynamics on a 2D grid.

A system coordinate x (superposition of two packets) couples to a heavy
pointer coordinate y through the impulsive-readout interaction
H_int = g * x * p_y, applied during a finite window.  In the mixed
(x, k_y) representation this term is diagonal, so its propagator is an
exact x-conditioned translation of the pointer: no operator-splitting
error enters the amplification step.  The field is therefore held in the
(x, k_y) representation throughout and stepped by the split-step kernel
of `dynamics` with its Fourier transform along x only; it is transformed
back along y only for a snapshot.  Outcome registration is branch
assignment of particle trajectories; frequencies reproduce the weights
|c_k|^2 without any collapse rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import EvolutionTrace, Snapshot, _split_step
from .grid_field import Grid, PhysicalParams, Wavefunction
from .trajectories import StepRule, transport
from .ensemble import sample_density, chi2_against_target


TRAJECTORY_KINDS = ("bohmian", "nelson")


class MeasurementError(RuntimeError):
    pass


@dataclass(frozen=True)
class PointerModel:
    """System superposition coupled to a pointer ready-state.

    The system state is c[0]*packet(+x_sep) + c[1]*packet(-x_sep); the
    pointer starts in a Gaussian of rms density width pointer_width at
    y = 0 with mass mass_ratio * m (heavy, quasi-classical).
    """

    grid: Grid
    c: tuple                    # two complex amplitudes, |c0|^2+|c1|^2 = 1
    x_sep: float = 2.5          # packet centers at +/- x_sep
    system_width: float = 0.6
    pointer_width: float = 0.7
    coupling: float = 6.0       # g
    t_coupling: float = 0.4
    t_settle: float = 0.2       # amplification/settling epoch after decoupling
    mass_ratio: float = 50.0
    dy_min: float = 4.0         # minimum branch separation for a valid run

    def __post_init__(self):
        if self.grid.dim != 2:
            raise MeasurementError("pointer model needs a 2D grid")
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (2,):
            raise MeasurementError("exactly two branch amplitudes required")
        if abs(float(np.sum(np.abs(c) ** 2)) - 1.0) > 1e-9:
            raise MeasurementError("branch amplitudes must satisfy sum |c|^2 = 1")
        object.__setattr__(self, "c", (complex(c[0]), complex(c[1])))

    def expected_pointer_centers(self):
        shift = self.coupling * self.x_sep * self.t_coupling
        return (+shift, -shift)

    def initial_state(self) -> Wavefunction:
        x, y = self.grid.meshgrid()
        sys = (self.c[0] * np.exp(-(x - self.x_sep) ** 2 / (4 * self.system_width ** 2))
               + self.c[1] * np.exp(-(x + self.x_sep) ** 2 / (4 * self.system_width ** 2)))
        pointer = np.exp(-y ** 2 / (4 * self.pointer_width ** 2))
        return Wavefunction(self.grid, sys * pointer, 0.0).normalized()


@dataclass
class OutcomeReport:
    kind: str
    n_traj: int
    counts: list
    frequencies: list
    expected: list
    ci3sigma: list            # 3-sigma binomial half-widths around expected
    ambiguous: int
    overlap: float
    branch_centers: list
    branch_norm_drift: float  # max per-branch mass drift after decoupling
    conditional_fit_p: float  # chi2 p of branch-0 conditional x density
    status: str

    def as_dict(self) -> dict:
        return asdict(self)


def evolve_pointer(model: PointerModel, params: PhysicalParams,
                   dt: float = 5e-3, snapshot_stride: int = 2) -> EvolutionTrace:
    """Quantum (lam = 1) evolution of system + pointer through coupling and
    settling epochs.  Kinetic terms are spectral; the coupling term acts in
    the (x, k_y) representation where it is exact."""
    grid = model.grid
    hbar, m = params.hbar, params.m
    mass_y = model.mass_ratio * m
    psi = model.initial_state().values

    kx = grid.wavenumbers(0)
    ky = grid.wavenumbers(1)
    kin = np.exp(-1j * hbar * dt * (kx ** 2 / (2 * m) + ky ** 2 / (2 * mass_y)))
    x = grid.meshgrid()[0]

    n_couple = int(round(model.t_coupling / dt))
    n_settle = int(round(model.t_settle / dt))
    # exact x-conditioned pointer translation (half step, Strang-split
    # around the kinetic factor) while coupled
    couple_half = np.exp(-0.5j * model.coupling * x * ky * dt)

    trace = EvolutionTrace()

    def snap(cur, t):
        wf = Wavefunction(grid, cur, t)
        trace.snapshots.append(Snapshot(t=t, psi=wf, norm=wf.norm,
                                        energy=0.0, max_q=0.0))

    snap(psi, 0.0)
    mixed = np.fft.fft(psi, axis=1)   # (x, k_y) representation
    step = 0
    for epoch_steps, kick in ((n_couple, lambda _: couple_half),
                              (n_settle, None)):
        for rows in _split_step(mixed[None], kin, epoch_steps, kick,
                                axes=(0,)):
            # the kernel's own array, overwritten by its next step: read
            # here, and snapshots transform it into new arrays
            mixed = rows[0]
            step += 1
            if not np.all(np.isfinite(mixed.view(float))):
                raise MeasurementError(f"non-finite field at t={step * dt:.4g}")
            if step % snapshot_stride == 0:
                snap(np.fft.ifft(mixed, axis=1), step * dt)
    if step % snapshot_stride != 0:
        snap(np.fft.ifft(mixed, axis=1), step * dt)
    return trace


def coupling_drift(model: PointerModel):
    """Extra pointer velocity dy/dt = g * x while the coupling is on; the
    x * p_y term enters the probability current, so trajectory transport
    must include it for equivariance to hold."""
    g = model.coupling
    t_c = model.t_coupling

    def drift(t, q):
        out = np.zeros_like(q)
        if t < t_c - 1e-12:
            out[:, 1] = g * q[:, 0]
        return out

    return drift


def _branch_centers_from_marginal(trace: EvolutionTrace) -> list:
    final = trace.final()
    grid = final.grid
    rho_y = final.density().sum(axis=0) * grid.dx
    y = grid.axis_coords
    pos = rho_y * (y > 0)
    neg = rho_y * (y <= 0)
    if pos.sum() == 0 or neg.sum() == 0:
        raise MeasurementError("pointer marginal is single-sided; cannot "
                               "locate two branches")
    return [float(np.sum(y * pos) / pos.sum()), float(np.sum(y * neg) / neg.sum())]


def branch_overlap(trace: EvolutionTrace, centers, dy_min: float) -> float:
    """Probability mass in the band of width dy_min/2 around the midpoint
    between branch centers."""
    final = trace.final()
    grid = final.grid
    rho_y = final.density().sum(axis=0) * grid.dx * grid.dx
    y = grid.axis_coords
    mid = 0.5 * (centers[0] + centers[1])
    band = np.abs(y - mid) < dy_min / 4.0
    return float(rho_y[band].sum())


def branch_assign(final_positions: np.ndarray, centers, dy_min: float):
    """Nearest-center assignment in the pointer coordinate; positions
    within dy_min/10 of the midpoint are counted as ambiguous (-1)."""
    y = final_positions[:, 1]
    centers = np.asarray(centers, dtype=float)
    if abs(centers[0] - centers[1]) <= dy_min:
        raise MeasurementError(
            f"branch centers {centers} closer than dy_min={dy_min}")
    d = np.abs(y[:, None] - centers[None, :])
    assign = np.argmin(d, axis=1)
    mid = 0.5 * (centers[0] + centers[1])
    ambiguous = np.abs(y - mid) < dy_min / 10.0
    assign = assign.astype(int)
    assign[ambiguous] = -1
    return assign


def _branch_mass_drift(trace: EvolutionTrace, t_coupling: float) -> float:
    """Max drift of per-branch probability mass after decoupling: the full
    field stays a superposition and neither branch gains or loses weight."""
    grid = trace.snapshots[0].psi.grid
    y = grid.axis_coords
    post = [s for s in trace.snapshots if s.t >= t_coupling - 1e-12]
    masses = []
    for s in post:
        rho_y = s.psi.density().sum(axis=0) * grid.cell_volume
        masses.append(float(rho_y[y > 0].sum()))
    masses = np.array(masses)
    return float(np.max(np.abs(masses - masses[0])))


def run_measurement(model: PointerModel, params: PhysicalParams, n_traj: int,
                    seed: int, kind: str = "bohmian") -> OutcomeReport:
    """Full readout: 2D evolution at the default step, then `read_out` of
    one trajectory kind with a transport step of 0.01."""
    trace = evolve_pointer(model, params)
    return read_out(model, params, trace, n_traj, seed, (kind,), 1e-2)[0]


def read_out(model: PointerModel, params: PhysicalParams,
             trace: EvolutionTrace, n_traj: int, seed: int, kinds,
             traj_dt: float) -> list:
    """Trajectory transport through an evolved pointer trace and branch
    statistics: one OutcomeReport per entry of `kinds`, in order.

    `kinds` is a sequence of kind names, such as ("bohmian",); a bare
    string is rejected.  Every kind starts from the same sampled positions,
    and all of them run in one transport, so each velocity field is built
    once.
    Fails (raises MeasurementError) when branch overlap at assignment time
    exceeds 1% of probability mass; with no coupling there is a single
    pointer blob and the outcome is ill-defined by construction.
    """
    if isinstance(kinds, str):
        raise MeasurementError(
            f"kinds must be a sequence of trajectory kinds, got the string "
            f"{kinds!r}; pass ({kinds!r},)")
    for kind in kinds:
        if kind not in TRAJECTORY_KINDS:
            raise MeasurementError(f"unknown trajectory kind {kind!r}")
    centers = _branch_centers_from_marginal(trace)
    if abs(centers[0] - centers[1]) <= model.dy_min:
        raise MeasurementError(
            f"branch centers {centers} separated by less than "
            f"dy_min={model.dy_min}; no amplification")
    overlap = branch_overlap(trace, centers, model.dy_min)
    if overlap > 0.01:
        raise MeasurementError(
            f"branch overlap {overlap:.3g} exceeds 1% of probability mass; "
            "outcome ill-defined")

    rho0 = trace.snapshots[0].psi.density()
    q0 = sample_density(rho0, model.grid, n_traj, seed)
    extra = coupling_drift(model)
    rules = {"bohmian": StepRule("bohmian", extra),
             "nelson": StepRule("nelson", extra, rng_seed=seed)}
    ensembles = transport(trace, [(q0, rules[kind]) for kind in kinds],
                          traj_dt, params, keep=[-1])
    drift = _branch_mass_drift(trace, model.t_coupling)
    expected = [abs(model.c[0]) ** 2, abs(model.c[1]) ** 2]
    reports = []
    for ens in ensembles:
        assign = branch_assign(ens.final_positions(), centers, model.dy_min)
        counts = [int(np.sum(assign == 0)), int(np.sum(assign == 1))]
        ambiguous = int(np.sum(assign == -1))
        n_assigned = counts[0] + counts[1]
        freqs = [c / max(n_assigned, 1) for c in counts]
        ci = [3.0 * np.sqrt(p * (1 - p) / max(n_assigned, 1))
              for p in expected]

        # effective collapse: branch-0 conditional x density vs the
        # normalized branch packet
        cond_p = _conditional_branch_fit(model, ens, assign, trace, centers)

        ok = all(abs(f - e) <= w for f, e, w in zip(freqs, expected, ci))
        reports.append(OutcomeReport(
            kind=ens.kind, n_traj=n_traj, counts=counts, frequencies=freqs,
            expected=expected, ci3sigma=ci, ambiguous=ambiguous,
            overlap=overlap, branch_centers=centers,
            branch_norm_drift=drift, conditional_fit_p=cond_p,
            status="pass" if ok else "fail",
        ))
    return reports


def _conditional_branch_fit(model, ens, assign, trace, centers) -> float:
    grid = model.grid
    sel = assign == 0
    if sel.sum() < 200:
        return float("nan")
    xs = ens.final_positions()[sel, 0]
    final = trace.final()
    y = grid.axis_coords
    mid = 0.5 * (centers[0] + centers[1])
    # branch-restricted wave density in x, conditioned on the branch-0 side
    rho = final.density()
    side = y > mid
    rho_x = (rho[:, side].sum(axis=1) * grid.dx)
    rho_x = rho_x / (rho_x.sum() * grid.dx)
    grid_x = Grid(dim=1, length=grid.length, npoints=grid.npoints)
    return chi2_against_target(xs, rho_x, grid_x, bins=30).p_value
