"""Ensemble statistics: sampling, equilibrium tests and the
coarse-grained relaxation functional."""

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
    cells, uniform jitter within each cell).  Reproducible from seed."""
    rho = np.asarray(rho_on_grid, dtype=float)
    if np.any(rho < -1e-12):
        raise ValueError("density has negative entries")
    rho = np.clip(rho, 0.0, None)
    weights = rho.ravel() * grid.cell_volume
    total = weights.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        weights = weights / total
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


def _merge_low_bins(observed: np.ndarray, expected: np.ndarray, min_expected=5.0):
    """Greedily merge adjacent bins until every expected count >= min_expected."""
    obs = list(observed.astype(float))
    exp = list(expected.astype(float))
    i = 0
    while i < len(exp):
        if exp[i] >= min_expected or len(exp) == 1:
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


def chi2_against_target(positions_1d: np.ndarray, target_rho: np.ndarray,
                        grid: Grid, bins: int) -> EquilibriumReport:
    """Chi-square goodness of fit of samples against a gridded target
    density; expected counts integrate the target over each bin."""
    lo, hi = -0.5 * grid.length, 0.5 * grid.length
    counts, edges = np.histogram(positions_1d, bins=bins, range=(lo, hi))
    n = len(positions_1d)

    cellw = target_rho.ravel() * grid.cell_volume
    cum = np.concatenate([[0.0], np.cumsum(cellw)])
    cum = cum / cum[-1]

    def cdf(x):
        # cells are centered on grid points, so cell j spans
        # [x_j - dx/2, x_j + dx/2)
        frac = (np.asarray(x) - lo) / grid.dx + 0.5
        idx = np.clip(np.floor(frac).astype(int), 0, grid.npoints - 1)
        w = np.clip(frac - idx, 0.0, 1.0)
        return cum[idx] + w * (cum[idx + 1] - cum[idx])

    expected = n * np.diff(cdf(edges))
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
                      grid: Grid, t_index: int, bins: int,
                      axis: int = 0) -> EquilibriumReport:
    """Test whether the time-t empirical density matches a target density."""
    if traj_ensemble.n_trajectories < 1000:
        raise ValueError("equivariance test needs at least 1000 trajectories")
    pos = traj_ensemble.at_time_index(t_index)[:, axis]
    if grid.dim == 2:
        target_rho = target_rho.sum(axis=1 - axis) * grid.dx
    return chi2_against_target(pos, target_rho, grid, bins)


def coarse_grained_h(positions_1d: np.ndarray, psi_density: np.ndarray,
                     grid: Grid, coarse_bins: int) -> float:
    """Relative-entropy functional sum_i P_i ln(P_i / Q_i) over coarse bins,
    where P is the empirical bin mass and Q the wave density bin mass.
    Nonnegative by the Gibbs inequality."""
    lo, hi = -0.5 * grid.length, 0.5 * grid.length
    counts, edges = np.histogram(positions_1d, bins=coarse_bins, range=(lo, hi))
    p = counts / counts.sum()

    cellw = psi_density.ravel() * grid.cell_volume
    cells_per_bin = grid.npoints // coarse_bins
    if cells_per_bin * coarse_bins == grid.npoints:
        q = cellw.reshape(coarse_bins, cells_per_bin).sum(axis=1)
    else:
        centers = grid.axis_coords + 0.5 * grid.dx
        idx = np.clip(((centers - lo) / (hi - lo) * coarse_bins).astype(int),
                      0, coarse_bins - 1)
        q = np.bincount(idx, weights=cellw, minlength=coarse_bins)
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
                        frame_times, grid: Grid, coarse_bins: int,
                        axis: int = 0):
    """H(t) for each supplied frame time; frames are (time, density) pairs
    matched to the nearest trajectory time index."""
    series = []
    indices = nearest_time_indices(traj_ensemble.times, frame_times)
    for t, rho, idx in zip(frame_times, psi_frames, indices):
        pos = traj_ensemble.at_time_index(idx)[:, axis]
        if grid.dim == 2:
            rho = rho.sum(axis=1 - axis) * grid.dx
        h = coarse_grained_h(pos, rho, grid, coarse_bins)
        if h < -1e-9:
            raise AssertionError(f"relative entropy went negative: {h}")
        series.append((float(t), h))
    return series
