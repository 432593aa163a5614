"""Ensemble statistics: sampling, equilibrium tests and the
coarse-grained relaxation functional.

A gridded density is read as cells centred on the grid points: cell j
spans [x_j - dx/2, x_j + dx/2) and carries rho_j * dx of mass.  Sampling
draws from those cells, and a density's mass in a histogram bin is read
off the piecewise-linear CDF of the same cells (`_bin_masses`), so that
samples and their target are binned alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grid_field import Grid
from .trajectories import TrajectoryEnsemble


@dataclass
class EquilibriumReport:
    chi2: float
    dof: int
    p_value: float
    max_abs_deviation: float
    verdict: str

    def as_dict(self) -> dict:
        return asdict(self)


def sample_density(rho_on_grid: np.ndarray, grid: Grid, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. positions from a gridded density (inverse CDF over
    the cells centred on the grid points, uniform jitter within each
    cell).  The density need not be normalized.  Reproducible from seed."""
    rho = np.asarray(rho_on_grid, dtype=float)
    if np.any(rho < -1e-12):
        raise ValueError("density has negative entries")
    rho = np.clip(rho, 0.0, None)
    weights = rho.ravel() * grid.cell_volume
    if n == 0:
        return np.empty((0, grid.dim))

    rng = np.random.default_rng(seed)
    cum = np.cumsum(weights / weights.sum())
    cells = np.searchsorted(cum, rng.random(n), side="right")
    cells = np.clip(cells, 0, weights.size - 1)
    jitter = rng.uniform(-0.5, 0.5, size=(n, grid.dim))
    coords = np.column_stack(np.unravel_index(cells, rho.shape))
    # cell j is centered on the grid point x_j
    return -0.5 * grid.length + (coords + jitter) * grid.dx


def _merge_low_bins(observed: np.ndarray, expected: np.ndarray):
    """Greedily merge adjacent bins until every expected count >= 5."""
    obs = list(observed.astype(float))
    exp = list(expected.astype(float))
    i = 0
    while i < len(exp):
        if exp[i] >= 5.0 or len(exp) == 1:
            i += 1
            continue
        j = i + 1 if i + 1 < len(exp) else i - 1
        obs[j] += obs[i]
        exp[j] += exp[i]
        del obs[i], exp[i]
        i = 0
    return np.array(obs), np.array(exp)


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with `dof` degrees of freedom: equal bit
    for bit to scipy.stats.chi2.sf, without importing scipy.stats."""
    from scipy.special import chdtrc

    return float(chdtrc(dof, x))


def _bin_masses(rho: np.ndarray, grid: Grid, edges: np.ndarray) -> np.ndarray:
    """The share of a gridded 1-D density's mass between each pair of
    consecutive `edges`, from the piecewise-linear CDF of its cells; cell
    j spans [x_j - dx/2, x_j + dx/2)."""
    lo = -0.5 * grid.length
    cum = np.concatenate([[0.0], np.cumsum(rho.ravel() * grid.cell_volume)])
    cum = cum / cum[-1]
    frac = (np.asarray(edges) - lo) / grid.dx + 0.5
    idx = np.clip(np.floor(frac).astype(int), 0, grid.npoints - 1)
    w = np.clip(frac - idx, 0.0, 1.0)
    return np.diff(cum[idx] + w * (cum[idx + 1] - cum[idx]))


def chi2_against_target(positions_1d: np.ndarray, target_rho: np.ndarray,
                        grid: Grid, bins: int) -> EquilibriumReport:
    """Chi-square goodness of fit of samples against a gridded target
    density; expected counts integrate the target over each bin."""
    lo, hi = -0.5 * grid.length, 0.5 * grid.length
    counts, edges = np.histogram(positions_1d, bins=bins, range=(lo, hi))
    n = len(positions_1d)
    expected = n * _bin_masses(target_rho, grid, edges)
    obs, exp = _merge_low_bins(counts, expected)
    dof = len(exp) - 1
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    p = _chi2_sf(chi2, dof)

    width = edges[1] - edges[0]
    dev = np.abs(counts / (n * width) - expected / (n * width))
    return EquilibriumReport(chi2=chi2, dof=dof, p_value=p,
                             max_abs_deviation=float(dev.max()),
                             verdict="pass" if p > 0.01 else "fail")


def equivariance_test(traj_ensemble: TrajectoryEnsemble, target_rho: np.ndarray,
                      grid: Grid, t_index: int, bins: int) -> EquilibriumReport:
    """Test whether the time-t empirical density matches a target density
    along the first axis (its marginal there, in 2D)."""
    if traj_ensemble.n_trajectories < 1000:
        raise ValueError("equivariance test needs at least 1000 trajectories")
    pos = traj_ensemble.at_time_index(t_index)[:, 0]
    if grid.dim == 2:
        target_rho = target_rho.sum(axis=1) * grid.dx
    return chi2_against_target(pos, target_rho, grid, bins)


def coarse_grained_h(positions_1d: np.ndarray, psi_density: np.ndarray,
                     grid: Grid, coarse_bins: int) -> float:
    """Relative-entropy functional sum_i P_i ln(P_i / Q_i) over coarse bins,
    where P is the empirical bin mass and Q the wave density's bin mass,
    read as `chi2_against_target` reads it and normalized over the bins.
    Nonnegative by the Gibbs inequality."""
    lo, hi = -0.5 * grid.length, 0.5 * grid.length
    counts, edges = np.histogram(positions_1d, bins=coarse_bins, range=(lo, hi))
    p = counts / counts.sum()
    q = _bin_masses(psi_density, grid, edges)
    q = q / q.sum()

    live = p > 0
    if np.any(q[live] <= 0):
        return float("inf")
    return float(np.sum(p[live] * np.log(p[live] / q[live])))


def nearest_time_indices(times: np.ndarray, frame_times) -> list:
    """For each frame time, the index of the nearest of `times` (the first
    one on a tie).  Run on a transport's step times, it gives the steps
    that relaxation_h_series reads, so a run can record only those."""
    return [int(np.argmin(np.abs(times - t))) for t in frame_times]


def relaxation_h_series(traj_ensemble: TrajectoryEnsemble, psi_frames,
                        frame_times, grid: Grid, coarse_bins: int):
    """H(t) along the first axis for each supplied frame time; frames are
    (time, density) pairs matched to the nearest trajectory time index."""
    series = []
    indices = nearest_time_indices(traj_ensemble.times, frame_times)
    for t, rho, idx in zip(frame_times, psi_frames, indices):
        pos = traj_ensemble.at_time_index(idx)[:, 0]
        if grid.dim == 2:
            rho = rho.sum(axis=1) * grid.dx
        h = coarse_grained_h(pos, rho, grid, coarse_bins)
        if h < -1e-9:
            raise AssertionError(f"relative entropy went negative: {h}")
        series.append((float(t), h))
    return series
