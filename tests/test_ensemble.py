import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sllab.ensemble import (
    _chi2_sf,
    chi2_against_target,
    coarse_grained_h,
    equivariance_test,
    relaxation_h_series,
    sample_density,
)
from sllab.grid_field import gaussian_packet, harmonic_ground_state, make_grid
from sllab.trajectories import TrajectoryEnsemble, integrate_nelson, \
    static_trace
from sllab.grid_field import PhysicalParams

QUANTUM = PhysicalParams.quantum()


class TestSampler:
    def test_reproducible(self):
        g = make_grid(1, 20.0, 256)
        rho = gaussian_packet(g).density()
        a = sample_density(rho, g, 100, seed=5)
        b = sample_density(rho, g, 100, seed=5)
        assert np.array_equal(a, b)

    def test_rejects_negative_density(self):
        g = make_grid(1, 20.0, 256)
        rho = np.full(256, 1.0 / 20.0)
        rho[7] = -0.1
        with pytest.raises(ValueError):
            sample_density(rho, g, 10, seed=0)

    def test_calibration_moments(self):
        g = make_grid(1, 20.0, 256)
        rho = gaussian_packet(g, rho_width=1.0).density()
        x = sample_density(rho, g, 200_000, seed=1)[:, 0]
        assert abs(np.mean(x)) < 0.02
        assert np.std(x) == pytest.approx(1.0, abs=0.02)

    def test_chi2_self_consistency(self):
        g = make_grid(1, 20.0, 256)
        rho = gaussian_packet(g, rho_width=1.0).density()
        x = sample_density(rho, g, 20_000, seed=2)[:, 0]
        rep = chi2_against_target(x, rho, g, bins=40)
        assert rep.p_value > 0.01

    def test_2d_sampling(self):
        g = make_grid(2, 20.0, 64)
        rho = gaussian_packet(g).density()
        pts = sample_density(rho, g, 5000, seed=3)
        assert pts.shape == (5000, 2)
        assert np.all(np.abs(pts) <= 10.0)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=15)
    def test_samples_in_box(self, seed):
        g = make_grid(1, 12.0, 64)
        rho = gaussian_packet(g, rho_width=0.8).density()
        x = sample_density(rho, g, 50, seed=seed)
        assert np.all(x >= -6.0)
        assert np.all(x < 6.0)


class TestChi2:
    def test_detects_wrong_density(self):
        g = make_grid(1, 20.0, 256)
        rho_narrow = gaussian_packet(g, rho_width=0.8).density()
        rho_wide = gaussian_packet(g, rho_width=1.2).density()
        x = sample_density(rho_narrow, g, 20_000, seed=4)[:, 0]
        rep = chi2_against_target(x, rho_wide, g, bins=40)
        assert rep.p_value < 1e-6
        assert rep.verdict == "fail"

    def test_merges_low_bins(self):
        # heavy binning against a narrow target: tails must be merged so
        # every expected count is >= 5, keeping the statistic valid
        g = make_grid(1, 20.0, 256)
        rho = gaussian_packet(g, rho_width=0.5).density()
        x = sample_density(rho, g, 2000, seed=6)[:, 0]
        rep = chi2_against_target(x, rho, g, bins=60)
        assert rep.dof < 59
        assert np.isfinite(rep.chi2)


    def test_p_value_is_scipy_stats_bit_for_bit(self):
        from scipy import stats

        for dof in range(1, 201):
            xs = np.concatenate([[0.0, 1e-300, 1e-12],
                                 dof * np.geomspace(1e-4, 1e2, 25),
                                 [1e4, 1e300, np.inf]])
            for x in xs:
                want = float(stats.chi2.sf(x, dof))
                assert np.float64(_chi2_sf(float(x), dof)).tobytes() == \
                    np.float64(want).tobytes(), (dof, x)

    def test_report_p_value(self):
        from scipy import stats

        g = make_grid(1, 20.0, 256)
        rho = gaussian_packet(g).density()
        pos = sample_density(rho, g, 2000, seed=3)[:, 0]
        rep = chi2_against_target(pos, rho, g, bins=40)
        assert rep.p_value == float(stats.chi2.sf(rep.chi2, rep.dof))


class TestEquivariance:
    def test_requires_min_ensemble(self):
        g = make_grid(1, 20.0, 64)
        ens = TrajectoryEnsemble(
            times=np.array([0.0]), positions=np.zeros((10, 1, 1)),
            kind="bohmian",
            node_flags=np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="1000"):
            equivariance_test(ens, gaussian_packet(g).density(), g, -1, bins=20)


class TestHFunction:
    def test_equilibrium_h_near_zero(self):
        g = make_grid(1, 20.0, 256)
        rho = gaussian_packet(g).density()
        x = sample_density(rho, g, 50_000, seed=8)[:, 0]
        h = coarse_grained_h(x, rho, g, coarse_bins=16)
        assert 0.0 <= h < 5e-3

    def test_nonequilibrium_h_positive(self):
        g = make_grid(1, 20.0, 256)
        rho = gaussian_packet(g).density()
        x = np.random.default_rng(9).uniform(-5, 5, size=4000)
        h = coarse_grained_h(x, rho, g, coarse_bins=16)
        assert h > 0.5

    @given(seed=st.integers(0, 10 ** 6), width=st.floats(0.6, 2.0))
    @settings(max_examples=15)
    def test_h_nonnegative_property(self, seed, width):
        # Gibbs inequality: H >= 0 for any sample set
        g = make_grid(1, 20.0, 64)
        rho = gaussian_packet(g, rho_width=1.0).density()
        x = np.random.default_rng(seed).normal(0, width, size=500)
        x = np.clip(x, -9.9, 9.9)
        assert coarse_grained_h(x, rho, g, coarse_bins=8) >= 0.0

    def test_relaxation_series_monotone_trend(self):
        # uniform start diffusing in the ground state: H must fall overall
        g = make_grid(1, 20.0, 256)
        psi = harmonic_ground_state(g)
        trace = static_trace(psi)
        rng = np.random.default_rng(10)
        x0 = rng.uniform(-4, 4, size=(3000, 1))
        ens = integrate_nelson(trace, x0, 1e-2, QUANTUM, 11, steps=300)
        frames = [psi.density()] * 4
        times = [0.0, 1.0, 2.0, 3.0]
        series = relaxation_h_series(ens, frames, times, g, coarse_bins=16)
        hs = [h for _, h in series]
        assert hs[-1] < hs[0]
        assert all(h >= 0.0 for h in hs)
