import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.special import ndtr

from sllab import trajectories
from sllab.dynamics import EvolutionConfig, evolve
from sllab.ensemble import coarse_grained_h
from sllab.grid_field import (
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    gaussian_packet,
    harmonic_ground_state,
    make_grid,
)
from sllab.measurement import PointerModel, coupling_drift, evolve_pointer
from sllab.trajectories import (
    StepRule,
    VelocityField,
    _philox_noise,
    integrate_bohmian,
    integrate_nelson,
    interpolate_grid,
    static_trace,
    transport,
    velocity_field,
)
from oracles import free_gaussian_bohm_path, ou_euler_law
from test_bit_identity import _ensemble_digest, _node_state

QUANTUM = PhysicalParams.quantum()


def _v_and_b(psi, pts):
    """Pilot-wave velocity and forward drift of a 1-D field at pts."""
    vf = velocity_field(psi.values, psi.grid, QUANTUM)
    return (interpolate_grid(vf.v[0], psi.grid, pts),
            interpolate_grid(vf.b[0], psi.grid, pts))


class TestVelocityFields:
    def test_plane_wave_velocity(self):
        g = make_grid(1, 2 * np.pi * 8, 256)
        k = 2.0 * np.pi / g.length * 6
        psi = Wavefunction(g, np.exp(1j * k * g.axis_coords)).normalized()
        v, _ = _v_and_b(psi, np.array([[0.3], [1.7]]))
        assert np.allclose(v, k, atol=1e-9)  # v = hbar k / m

    def test_ground_state_zero_current(self):
        g = make_grid(1, 20.0, 256)
        psi = harmonic_ground_state(g)
        vf = velocity_field(psi.values, g, QUANTUM)
        valid = vf.abs_psi >= vf.node_level
        assert np.max(np.abs(vf.v[0])[valid]) < 1e-9

    def test_osmotic_velocity_gaussian(self):
        # u = (hbar/2m) grad rho / rho = -x/(2 s0^2) for a Gaussian
        g = make_grid(1, 20.0, 256)
        x = np.array([[0.5], [-1.2]])
        v, b = _v_and_b(gaussian_packet(g, rho_width=1.0), x)
        assert np.allclose(b - v, -x[:, 0] / 2.0, atol=1e-6)

    def test_drift_decomposition_consistency(self):
        g = make_grid(1, 20.0, 256)
        psi = gaussian_packet(g, center=0.5, momentum=1.0)
        v, b = _v_and_b(psi, np.array([[0.0], [1.0], [-2.0]]))
        assert np.all(np.isfinite(b - v))


class TestInterpolation:
    def test_linear_matches_grid_values(self):
        g = make_grid(1, 20.0, 64)
        f = np.sin(2 * np.pi * g.axis_coords / g.length)
        pts = g.axis_coords[:5].reshape(-1, 1)
        out = interpolate_grid(f, g, pts)
        assert np.allclose(out, f[:5], atol=1e-12)

    def test_linear_periodic_wrap(self):
        g = make_grid(1, 20.0, 64)
        f = np.arange(64, dtype=float)
        out = interpolate_grid(f, g, np.array([[10.0 - 1e-9]]))
        # between last grid point (63) and its periodic neighbor (0)
        assert 0.0 <= out[0] <= 63.0

    def test_upper_edge_folds_to_first_point_1d(self):
        # Grid.wrap can return exactly +L/2, whose base index n folds to 0
        g = make_grid(1, 20.0, 64)
        f = np.random.default_rng(0).normal(size=64)
        assert interpolate_grid(f, g, np.array([[10.0]]))[0] == f[0]

    def test_upper_edge_folds_to_first_point_2d(self):
        g = make_grid(2, 20.0, 32)
        f = np.random.default_rng(0).normal(size=(32, 32))
        out = interpolate_grid(f, g, np.array([[10.0, 10.0], [10.0, -10.0],
                                               [-10.0, 10.0]]))
        assert list(out) == [f[0, 0], f[0, 0], f[0, 0]]

    def test_2d_interpolation(self):
        g = make_grid(2, 20.0, 32)
        x, y = g.meshgrid()
        f = x + 2.0 * y
        pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
        out = interpolate_grid(f, g, pts)
        assert np.allclose(out, pts[:, 0] + 2.0 * pts[:, 1], atol=1e-9)

    @pytest.mark.parametrize("dim, shape", [(1, (2, 2, 1)), (2, (2, 3, 2))])
    def test_leading_axes_keep_their_shape(self, dim, shape):
        g = make_grid(dim, 20.0, 32)
        f = np.random.default_rng(1).normal(size=(32,) * dim)
        pts = np.random.default_rng(2).uniform(-10.0, 10.0, size=shape)
        out = interpolate_grid(f, g, pts)
        assert out.shape == shape[:-1]
        flat = interpolate_grid(f, g, pts.reshape(-1, dim))
        assert _bits(out.ravel()) == _bits(flat)
        for i in np.ndindex(shape[:-1]):
            assert out[i] == interpolate_grid(f, g, pts[i][None])[0]

    @pytest.mark.parametrize("dim, shape", [(1, (3,)), (1, (3, 2)),
                                            (2, (3, 1)), (2, ()),
                                            (2, (2, 3))])
    def test_wrong_last_axis_rejected(self, dim, shape):
        g = make_grid(dim, 20.0, 32)
        f = np.zeros((32,) * dim)
        with pytest.raises(ValueError, match="shape"):
            interpolate_grid(f, g, np.zeros(shape))


class TestBohmian:
    def test_free_gaussian_streamlines(self):
        # [DERIVED] closed form x(t) = x0 * s(t)/s0 for the spreading packet
        g = make_grid(1, 40.0, 512)
        cfg = EvolutionConfig(dt=1e-3, steps=2000, params=QUANTUM,
                              potential=PotentialSpec.free(), snapshot_stride=10)
        trace = evolve(gaussian_packet(g), cfg)
        x0 = np.array([[0.5], [1.0], [-1.5]])
        ens = integrate_bohmian(trace, x0, 1e-2, QUANTUM)
        for i, x in enumerate(x0[:, 0]):
            expect = free_gaussian_bohm_path(x, 2.0)
            assert ens.final_positions()[i, 0] == pytest.approx(expect, abs=2e-3)

    def test_deterministic_repeat(self):
        g = make_grid(1, 40.0, 256)
        cfg = EvolutionConfig(dt=1e-3, steps=200, params=QUANTUM,
                              potential=PotentialSpec.free(), snapshot_stride=10)
        trace = evolve(gaussian_packet(g), cfg)
        x0 = np.linspace(-2, 2, 20).reshape(-1, 1)
        a = integrate_bohmian(trace, x0, 1e-2, QUANTUM)
        b = integrate_bohmian(trace, x0, 1e-2, QUANTUM)
        assert np.array_equal(a.positions, b.positions)

    def test_dt_must_divide_span(self):
        g = make_grid(1, 40.0, 256)
        cfg = EvolutionConfig(dt=1e-3, steps=100, params=QUANTUM,
                              potential=PotentialSpec.free(), snapshot_stride=10)
        trace = evolve(gaussian_packet(g), cfg)
        with pytest.raises(ValueError, match="does not divide"):
            integrate_bohmian(trace, [[0.0]], 0.03, QUANTUM)

    def test_empty_ensemble_rejected(self):
        psi = harmonic_ground_state(make_grid(1, 20.0, 256))
        with pytest.raises(ValueError):
            integrate_bohmian(static_trace(psi), np.empty((0, 1)), 1e-2,
                              QUANTUM, steps=10)

    def test_non_finite_start_rejected(self):
        # used to return NaN paths that were not node-flagged
        psi = harmonic_ground_state(make_grid(1, 20.0, 64))
        with pytest.raises(ValueError, match="run 0: 2 of 3 initial "
                                             "positions are not finite"):
            integrate_bohmian(static_trace(psi), [0.1, np.nan, np.inf], 1e-2,
                              QUANTUM, steps=5)

    def test_node_flagging(self):
        g = make_grid(1, 20.0, 256)
        vals = (g.axis_coords + 0j) * np.exp(-g.axis_coords ** 2 / 4)
        from sllab.grid_field import Wavefunction
        psi = Wavefunction(g, vals).normalized()
        ens = integrate_bohmian(static_trace(psi), [[0.0], [3.0]], 1e-2,
                                QUANTUM, steps=5)
        assert ens.node_flags[0]
        assert not ens.node_flags[1]


class TestNelson:
    def test_seed_reproducibility(self):
        psi = harmonic_ground_state(make_grid(1, 20.0, 256))
        trace = static_trace(psi)
        x0 = np.zeros((50, 1))
        a = integrate_nelson(trace, x0, 1e-2, QUANTUM, 42, steps=100)
        b = integrate_nelson(trace, x0, 1e-2, QUANTUM, 42, steps=100)
        assert np.array_equal(a.positions, b.positions)

    def test_paths_independent_of_ensemble_size(self):
        # per-path counter-based streams: path i is identical whether the
        # ensemble holds 10 or 100 particles
        psi = harmonic_ground_state(make_grid(1, 20.0, 256))
        trace = static_trace(psi)
        small = integrate_nelson(trace, np.zeros((10, 1)), 1e-2, QUANTUM, 7,
                                 steps=50)
        large = integrate_nelson(trace, np.zeros((100, 1)), 1e-2, QUANTUM, 7,
                                 steps=50)
        assert np.array_equal(small.positions, large.positions[:10])

    def test_different_seeds_differ(self):
        psi = harmonic_ground_state(make_grid(1, 20.0, 256))
        trace = static_trace(psi)
        x0 = np.zeros((10, 1))
        a = integrate_nelson(trace, x0, 1e-2, QUANTUM, 1, steps=50)
        b = integrate_nelson(trace, x0, 1e-2, QUANTUM, 2, steps=50)
        assert not np.array_equal(a.positions, b.positions)

    def test_non_finite_start_rejected(self):
        psi = harmonic_ground_state(make_grid(1, 20.0, 64))
        with pytest.raises(ValueError, match="run 0: 2 of 3 initial "
                                             "positions are not finite"):
            integrate_nelson(static_trace(psi), [0.1, np.nan, -np.inf], 1e-2,
                             QUANTUM, 0, steps=5)

    def test_static_trace_needs_steps(self):
        psi = harmonic_ground_state(make_grid(1, 20.0, 256))
        with pytest.raises(ValueError, match="step count"):
            integrate_nelson(static_trace(psi), [[0.0]], 1e-2, QUANTUM, 0)

    def test_brownian_control_spreads(self):
        # with the drift zeroed the stationary Gaussian must leak outward
        psi = harmonic_ground_state(make_grid(1, 20.0, 256))
        trace = static_trace(psi)
        rng = np.random.default_rng(0)
        x0 = rng.normal(0, 0.7, size=(500, 1))
        drifted = integrate_nelson(trace, x0, 1e-2, QUANTUM, 3, steps=500)
        control = integrate_nelson(trace, x0, 1e-2, QUANTUM, 3, steps=500,
                                   drift_override="zero")
        assert np.std(control.final_positions()) > \
            1.5 * np.std(drifted.final_positions())

    def test_harmonic_chain_follows_its_ar1_law(self):
        # in the harmonic ground state the forward drift is -omega q, so
        # the Euler-Maruyama chain is AR(1) with a known stationary law;
        # at omega dt = 0.2 its variance sits many sigma from Born's 0.5
        omega, dt, n = 1.0, 0.2, 40_000
        psi = harmonic_ground_state(make_grid(1, 20.0, 256), omega=omega)
        x0 = np.random.default_rng(5).normal(0.0, np.sqrt(0.5), (n, 1))
        ens = integrate_nelson(static_trace(psi), x0, dt, QUANTUM, 17,
                               steps=400, keep=[-2, -1])
        before, last = ens.positions[:, 0, 0], ens.positions[:, 1, 0]
        var, rho = ou_euler_law(omega, dt, QUANTUM.nu)
        var_sigma = var * np.sqrt(2.0 / (n - 1))
        assert abs(last.mean()) < 5.0 * np.sqrt(var / n)
        assert abs(last.var(ddof=1) - var) < 5.0 * var_sigma
        assert abs(last.var(ddof=1) - QUANTUM.nu / omega) > 5.0 * var_sigma
        r = np.corrcoef(before, last)[0, 1]
        assert abs(r - rho) < 5.0 * (1.0 - rho ** 2) / np.sqrt(n)

    def test_off_centre_gaussian_relaxes_by_its_ar1_law(self):
        # started from N(m0, s0) in the harmonic ground state's drift, the
        # AR(1) chain stays Gaussian with mean m0 a^k and variance
        # var + (s0 - var) a^2k after k steps, a = 1 - omega dt
        omega, dt, n, m0, s0 = 1.0, 0.2, 40_000, 1.5, 0.1
        steps = [1, 3, 6, 12, 24]
        psi = harmonic_ground_state(make_grid(1, 20.0, 256), omega=omega)
        x0 = np.random.default_rng(8).normal(m0, np.sqrt(s0), (n, 1))
        ens = integrate_nelson(static_trace(psi), x0, dt, QUANTUM, 23,
                               steps=steps[-1], keep=steps)
        var, a = ou_euler_law(omega, dt, QUANTUM.nu)
        for k, q in zip(steps, ens.positions[:, :, 0].T):
            mean_k = m0 * a ** k
            var_k = var + (s0 - var) * a ** (2 * k)
            assert abs(q.mean() - mean_k) < 5.0 * np.sqrt(var_k / n), k
            assert abs(q.var(ddof=1) - var_k) < \
                5.0 * var_k * np.sqrt(2.0 / (n - 1)), k

    def test_off_centre_gaussian_relaxes_by_its_ar1_law_in_2d(self):
        # in the isotropic 2-D well each axis is the same AR(1) chain, read
        # through the 2-D gather and node flags; 300 steps are three noise
        # blocks, so steps 151 and 300 come from the producer's second and
        # third
        omega, dt, n, s0 = 1.0, 0.2, 20_000, 0.1
        m0 = np.array([1.5, -1.0])
        steps = [1, 3, 6, 12, 24, 151, 300]
        psi = harmonic_ground_state(make_grid(2, 20.0, 64), omega=omega)
        x0 = np.random.default_rng(9).normal(m0, np.sqrt(s0), (n, 2))
        ens = integrate_nelson(static_trace(psi), x0, dt, QUANTUM, 29,
                               steps=steps[-1], keep=steps)
        var, a = ou_euler_law(omega, dt, QUANTUM.nu)
        for k, q in zip(steps, ens.positions.transpose(1, 0, 2)):
            mean_k = m0 * a ** k
            var_k = var + (s0 - var) * a ** (2 * k)
            assert np.all(abs(q.mean(axis=0) - mean_k)
                          < 5.0 * np.sqrt(var_k / n)), k
            assert np.all(abs(q.var(axis=0, ddof=1) - var_k)
                          < 5.0 * var_k * np.sqrt(2.0 / (n - 1))), k
        assert not ens.node_flags.any()

    def test_coarse_grained_h_stays_below_the_exact_relative_entropy(self):
        # coarse graining cannot raise a relative entropy, so H of the AR(1)
        # chain's N(m_k, v_k) against the ground state's N(0, 1/2 omega)
        # stays below their exact KL; the sample's H may exceed its binned
        # law's by the plug-in bias (bins - 1)/2n plus 5 sigma, sigma from
        # the delta method and the bias's own chi-square spread
        omega, dt, n, m0, s0, bins = 1.0, 0.2, 40_000, 1.5, 0.1, 40
        steps = [0, 1, 3, 6, 12, 24]
        grid = make_grid(1, 20.0, 256)
        psi = harmonic_ground_state(grid, omega=omega)
        x0 = np.random.default_rng(10).normal(m0, np.sqrt(s0), (n, 1))
        ens = integrate_nelson(static_trace(psi), x0, dt, QUANTUM, 31,
                               steps=steps[-1], keep=steps)
        var, a = ou_euler_law(omega, dt, QUANTUM.nu)
        s = 1.0 / (2.0 * omega)
        edges = np.linspace(-10.0, 10.0, bins + 1)
        q_bins = np.diff(ndtr(edges / np.sqrt(s)))
        for k, q in zip(steps, ens.positions[:, :, 0].T):
            m_k, v_k = m0 * a ** k, var + (s0 - var) * a ** (2 * k)
            kl = 0.5 * (v_k / s + m_k ** 2 / s - 1.0 - np.log(v_k / s))
            p_bins = np.diff(ndtr((edges - m_k) / np.sqrt(v_k)))
            live = p_bins > 1e-12
            log_ratio = np.log(p_bins[live] / q_bins[live])
            h_bins = p_bins[live] @ log_ratio
            sigma = np.sqrt((p_bins[live] @ log_ratio ** 2 - h_bins ** 2) / n
                            + (bins - 1) / (2.0 * n * n))
            h = coarse_grained_h(q, np.abs(psi.values) ** 2, grid, bins)
            assert h <= kl + (bins - 1) / (2.0 * n) + 5.0 * sigma, k

    def test_config_validation(self):
        # a seed that is not an int in [0, 2**64) used to run as int(seed)
        # or overflow inside the step loop
        psi = harmonic_ground_state(make_grid(1, 20.0, 64))
        for seed in (1.5, True, -1, 2 ** 64, "1"):
            with pytest.raises(ValueError, match="rng_seed"):
                integrate_nelson(static_trace(psi), [[0.0]], 1e-2, QUANTUM,
                                 seed, steps=5)
            with pytest.raises(ValueError, match="rng_seed"):
                StepRule("nelson", rng_seed=seed)
        StepRule("nelson", rng_seed=2 ** 64 - 1)
        StepRule("nelson", rng_seed=np.uint64(7))

    @pytest.mark.parametrize("override", ["Zero", "none"])
    def test_unknown_drift_override_rejected(self, override):
        psi = harmonic_ground_state(make_grid(1, 20.0, 64))
        with pytest.raises(ValueError, match="drift_override"):
            integrate_nelson(static_trace(psi), [[0.0]], 1e-2, QUANTUM, 0,
                             steps=5, drift_override=override)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=10)
    def test_paths_stay_in_box(self, seed):
        psi = harmonic_ground_state(make_grid(1, 20.0, 64))
        trace = static_trace(psi)
        ens = integrate_nelson(trace, np.zeros((5, 1)), 5e-2, QUANTUM, seed,
                               steps=40)
        assert np.all(ens.positions >= -10.0)
        assert np.all(ens.positions < 10.0)


def _moving_case():
    grid = make_grid(1, 20.0, 128)
    cfg = EvolutionConfig(dt=1e-3, steps=200, params=QUANTUM,
                          potential=PotentialSpec.harmonic(),
                          snapshot_stride=10)
    trace = evolve(_node_state(grid, 0.8), cfg)
    q0 = np.linspace(-3.0, 3.0, 13).reshape(-1, 1)  # q0[6] sits on the node

    def extra(t, q):
        return 0.3 * np.sin(q + t)

    return trace, q0, 1e-2, 5, None, None, extra


def _static_case():
    # 40 Bohmian steps; 600 Nelson steps: the noise crosses a block boundary
    trace = static_trace(_node_state(make_grid(1, 20.0, 64), 0.0))
    q0 = np.linspace(-2.0, 2.0, 5).reshape(-1, 1)  # q0[2] on the node
    return trace, q0, 1e-2, 3, 40, 600, None


def _pointer_case():
    model = PointerModel(grid=make_grid(2, 20.0, 32),
                         c=(np.sqrt(0.5), np.sqrt(0.5)))
    trace = evolve_pointer(model, QUANTUM)
    q0 = np.array([[2.5, 0.0], [-2.5, 0.3], [2.2, -0.4], [-2.8, 0.1],
                   [0.0, 0.0], [2.5, 9.0]])  # q0[5] in the node region
    return trace, q0, 1e-2, 9, None, None, coupling_drift(model)


CASES = {"moving": _moving_case, "static": _static_case,
         "pointer": _pointer_case}


def _bits(a):
    return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()


def _run(integrator, case, keep=None):
    trace, q0, dt, seed, bohm_steps, nelson_steps, extra = case
    if integrator == "bohmian":
        return integrate_bohmian(trace, q0, dt, QUANTUM, steps=bohm_steps,
                                 drift_extra=extra, keep=keep)
    return integrate_nelson(trace, q0, dt, QUANTUM, seed, steps=nelson_steps,
                            drift_extra=extra, keep=keep)


class TestRecordingSchedule:
    @pytest.mark.parametrize("integrator", ["bohmian", "nelson"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_kept_columns_equal_full_record(self, name, integrator):
        case = CASES[name]()
        full = _run(integrator, case)
        last = full.times.size - 1
        cols = [0, 1, 7, last // 2, last]
        for keep in (cols, [3, -1], [-1]):
            part = _run(integrator, case, keep=keep)
            idx = np.arange(last + 1)[keep]
            assert _bits(part.times) == _bits(full.times[idx])
            assert _bits(part.positions) == _bits(full.positions[:, idx])
            assert _bits(part.node_flags) == _bits(full.node_flags)

    @pytest.mark.parametrize("keep", [[], [5, 5], [9, 2], [41], [-42]])
    def test_bad_schedule_rejected(self, keep):
        trace, q0, dt, _, steps, _, _ = _static_case()
        with pytest.raises(ValueError, match="keep"):
            integrate_bohmian(trace, q0, dt, QUANTUM, steps=steps, keep=keep)


def _small_trace(moving):
    grid = make_grid(1, 20.0, 64)
    if not moving:
        return static_trace(harmonic_ground_state(grid))
    cfg = EvolutionConfig(dt=1e-3, steps=20, params=QUANTUM,
                          potential=PotentialSpec.harmonic(),
                          snapshot_stride=10)
    return evolve(gaussian_packet(grid, center=0.5), cfg)  # t = 0, .01, .02


def _integrate(how, trace, dt, steps):
    q0 = [[0.5], [-1.0]]
    if how == "bohmian":
        return [integrate_bohmian(trace, q0, dt, QUANTUM, steps=steps)]
    if how == "nelson":
        return [integrate_nelson(trace, q0, dt, QUANTUM, 0, steps=steps)]
    return transport(trace, [(q0, StepRule("bohmian")),
                             (q0, StepRule("nelson", rng_seed=0))],
                     dt, QUANTUM, steps)


class TestStepInputs:
    # step_times checks dt and steps for every transport; a moving trace
    # used to divide by dt = 0 or index an empty time array, a static one
    # ran at dt <= 0, and steps = 2.5 ran 3 steps
    @pytest.mark.parametrize("moving", [False, True])
    @pytest.mark.parametrize("how", ["bohmian", "nelson", "transport"])
    def test_bad_dt_and_steps_rejected(self, how, moving):
        trace = _small_trace(moving)
        for dt in (0, 0.0, -0.01, float("nan"), float("inf"), "0.01"):
            with pytest.raises(ValueError, match="dt"):
                _integrate(how, trace, dt, 2)
        for steps in (-1, 2.5, True, "2"):
            with pytest.raises(ValueError, match="steps"):
                _integrate(how, trace, 1e-2, steps)
        for steps, ncols in ((0, 1), (2, 3), (np.int64(1), 2)):
            for ens in _integrate(how, trace, 1e-2, steps):
                assert ens.positions.shape == (2, ncols, 1)


def _assert_same(got, want):
    assert got.kind == want.kind
    assert _bits(got.times) == _bits(want.times)
    assert _bits(got.positions) == _bits(want.positions)
    assert _bits(got.node_flags) == _bits(want.node_flags)


class TestLockstep:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_lockstep_equals_separate_runs(self, name):
        trace, q0, dt, seed, _, steps, extra = CASES[name]()
        rules = [StepRule("nelson", extra, seed, override)
                 for override in (None, "zero")]
        got = transport(trace, [(q0, rule) for rule in rules], dt, QUANTUM,
                        steps)
        for ens, rule in zip(got, rules):
            _assert_same(ens, integrate_nelson(
                trace, q0, dt, QUANTUM, seed, steps=steps, drift_extra=extra,
                drift_override=rule.drift_override))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            StepRule("classical")
        with pytest.raises(ValueError, match="drift_override"):
            StepRule("nelson", rng_seed=0, drift_override="off")
        with pytest.raises(ValueError, match="rng_seed"):
            StepRule("nelson")

    @pytest.mark.parametrize("name", ["moving", "pointer"])
    def test_kinds_in_one_transport_equal_separate_runs(self, name):
        # the fields each step builds are shared, the noise streams of two
        # seeds are not
        trace, q0, dt, seed, _, _, extra = CASES[name]()
        got = transport(trace, [(q0, StepRule("bohmian", extra)),
                                (q0, StepRule("nelson", extra, seed)),
                                (q0, StepRule("nelson", extra, seed + 1))],
                        dt, QUANTUM)
        want = [integrate_bohmian(trace, q0, dt, QUANTUM, drift_extra=extra),
                integrate_nelson(trace, q0, dt, QUANTUM, seed,
                                 drift_extra=extra),
                integrate_nelson(trace, q0, dt, QUANTUM, seed + 1,
                                 drift_extra=extra)]
        for g, w in zip(got, want):
            _assert_same(g, w)

    def test_seeds_in_lockstep_equal_per_seed_runs(self):
        trace, _, dt, _, _, _, extra = _moving_case()
        q0s = [np.random.default_rng(s).uniform(-3.0, 3.0, (n, 1))
               for s, n in ((0, 9), (1, 4), (2, 13))]
        got = transport(trace, [(q0, StepRule("bohmian", extra))
                                for q0 in q0s], dt, QUANTUM, keep=[0, -1])
        for ens, q0 in zip(got, q0s):
            _assert_same(ens, integrate_bohmian(
                trace, q0, dt, QUANTUM, drift_extra=extra, keep=[0, -1]))

    def test_non_finite_start_names_its_run(self):
        trace, q0, dt, _, steps, _, _ = _pointer_case()
        bad = q0.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="run 1: 1 of 6 initial "
                                             "positions are not finite"):
            transport(trace, [(q0, StepRule("bohmian")),
                              (bad, StepRule("nelson", rng_seed=0))],
                      dt, QUANTUM, steps)

    def test_no_ensemble_rejected(self):
        trace, _, dt, _, steps, _, _ = _static_case()
        with pytest.raises(ValueError, match="ensemble"):
            transport(trace, [], dt, QUANTUM, steps)


class TestNoise:
    @staticmethod
    def _check_streams(seed, npart, nsteps, dim, scale=0.3):
        rows = []
        for row in _philox_noise(seed, npart, nsteps, dim, scale):
            assert row.shape == (npart, dim) and row.flags.c_contiguous
            rows.append(row.copy())
        rows = np.array(rows)
        assert rows.shape == (nsteps, npart, dim)
        for i in range(npart):
            # a uint64 array: numpy casts a list key of ints >= 2**63 to 0
            key = np.array([seed, i], np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            assert _bits(rows[:, i]) == _bits(
                scale * gen.standard_normal((nsteps, dim)))

    # at 100-step blocks: less than one block and exactly one, drawn in
    # place; one block plus one step (101 = 50 + 51), two blocks with no
    # slot freed, and three to twenty-six from the producer, states carried
    # across block boundaries, blocks of equal width give or take a step
    # (201 = 67 * 3, 513 = 85 * 3 + 86 * 3, 1025 = 93 * 9 + 94 * 2),
    # reusing both slots
    @pytest.mark.parametrize("nsteps", [60, 100, 101, 200, 201, 400, 513,
                                        1000, 1025, 1100, 2600])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_streams_equal_per_particle_generators(self, nsteps, dim):
        self._check_streams(11, 7, nsteps, dim)

    # two full tiles of particles and a partial one, at 100-step blocks:
    # less than one block and exactly one, one block plus one step, two
    # blocks with no slot freed, and eleven that reuse both slots
    @pytest.mark.parametrize("nsteps", [60, 100, 101, 200, 1100])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_partial_tile(self, nsteps, dim):
        self._check_streams(5, 150, nsteps, dim)

    # the largest seed, a full key word of the start rows, in the first
    # block and after a carry
    @pytest.mark.parametrize("dim", [1, 2])
    def test_largest_seed(self, dim):
        self._check_streams(2 ** 64 - 1, 3, 1025, dim)

    def test_no_steps(self):
        assert list(_philox_noise(3, 4, 0, 1, 1.0)) == []

    def test_one_block_resident(self):
        # a multi-block stream's rows live in the producer's two shared
        # slots, together no larger than one block of 512 steps, and the
        # parent allocates no block, tile or carried states of its own
        # (tracemalloc cannot see the mmap, so the slots are measured as
        # the buffer behind the rows)
        npart, dim = 2000, 1
        block_bytes = 512 * npart * dim * 8
        list(_philox_noise(3, 1, 1, dim, 1.0))  # numpy's lazy imports
        buffers = {}
        tracemalloc.start()
        try:
            for row in _philox_noise(3, npart, 3 * 512, dim, 1.0):
                base = row
                while isinstance(base, np.ndarray) and base.base is not None:
                    base = base.base
                buffers[id(base)] = base
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(memoryview(b).nbytes for b in buffers.values()) \
            <= block_bytes
        assert peak < 0.01 * block_bytes

    # a stream closed after its first row, mid-stream, and one drained to
    # its last row, whose producer is reaped before that row is handed out
    @pytest.mark.parametrize("taken", [1, 300, 1100])
    def test_no_producer_left(self, taken, assert_no_child):
        rows = _philox_noise(3, 5, 1100, 1, 1.0)
        for _ in itertools.islice(rows, taken):
            pass
        if taken == 1100:
            assert_no_child()
        rows.close()
        assert_no_child()

    def test_producer_that_dies_is_an_error(self, monkeypatch, capfd,
                                             assert_no_child):
        draw = trajectories._noise_blocks

        def dies_in_block_1(*args):
            blocks = draw(*args)
            yield next(blocks)
            raise ArithmeticError("no block 1")

        monkeypatch.setattr(trajectories, "_noise_blocks", dies_in_block_1)
        rows = _philox_noise(3, 5, 1100, 1, 1.0)
        with pytest.raises(RuntimeError, match=r"noise producer \(pid \d+\) "
                           r"ended with exit status 1 at block 1 of 11"):
            for _ in rows:
                pass
        assert_no_child()
        assert "ArithmeticError: no block 1" in capfd.readouterr().err

    def test_one_block_carries_no_states(self):
        # a one-block stream builds its start rows per tile of particles:
        # beside its step rows it allocates far less than (npart, 12)
        # carried states of 96 B each
        npart = 20_000
        list(_philox_noise(3, 1, 1, 1, 1.0))  # numpy's lazy imports
        tracemalloc.start()
        try:
            list(_philox_noise(3, npart, 1, 1, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < npart * 8 + 0.1 * npart * 96

    # a state set through numpy's setter reads back through the 12-word
    # slice, and one written through the slice through numpy's getter, at
    # every buffer position, with full-width words; either way the draws
    # that follow are those of a generator set through the setter alone
    @pytest.mark.parametrize("buffer_pos", range(5))
    def test_state_slice_agrees_with_numpy(self, buffer_pos):
        rng = np.random.default_rng(buffer_pos)
        words = rng.integers(0, 2 ** 64, 12, np.uint64, endpoint=False)
        words[0], words[5] = buffer_pos, 0
        words[6] = 2 ** 64 - 1  # the largest seed
        state = {"bit_generator": "Philox", "buffer_pos": buffer_pos,
                 "buffer": words[1:5], "has_uint32": 0, "uinteger": 0,
                 "state": {"key": words[6:8], "counter": words[8:]}}
        expected = np.random.Philox()
        expected.state = state
        expected = expected.random_raw(9)

        bitgen = np.random.Philox()
        live = trajectories._philox_state(bitgen)
        bitgen.state = state
        assert live.tolist() == words.tolist()
        assert bitgen.random_raw(9).tolist() == expected.tolist()

        bitgen = np.random.Philox()
        live = trajectories._philox_state(bitgen)
        live[...] = words
        assert _state_words(bitgen.state) == words.tolist()
        assert bitgen.random_raw(9).tolist() == expected.tolist()

    @pytest.mark.parametrize("offset", ["_PHILOX_KEY_AT",
                                        "_PHILOX_COUNTER_AT"])
    def test_other_philox_layout_is_an_error(self, monkeypatch, offset):
        # pointer words other than the expected ones stop the slice before
        # it writes: the generator's state is untouched
        monkeypatch.setattr(trajectories, offset,
                            getattr(trajectories, offset) + 8)
        bitgen = np.random.Philox(key=np.array([5, 6], np.uint64))
        bitgen.random_raw(3)
        before = bitgen.state
        with pytest.raises(RuntimeError, match="numpy's Philox state layout"):
            trajectories._philox_state(bitgen)
        assert _state_words(bitgen.state) == _state_words(before)
        with pytest.raises(RuntimeError, match="numpy's Philox state layout"):
            next(_philox_noise(3, 5, 60, 1, 1.0))  # drawn in place

    def test_producer_that_meets_another_layout_is_an_error(
            self, monkeypatch, capfd, assert_no_child):
        monkeypatch.setattr(trajectories, "_PHILOX_KEY_AT", 72)
        rows = _philox_noise(3, 5, 1100, 1, 1.0)
        with pytest.raises(RuntimeError, match=r"noise producer \(pid \d+\) "
                           r"ended with exit status 1 at block 0 of 11"):
            next(rows)
        assert_no_child()
        assert "numpy's Philox state layout" in capfd.readouterr().err

    def test_error_in_a_step_ends_the_producer(self, assert_no_child):
        # the producer is reaped as the error leaves transport, not when
        # the traceback, which holds the stream, is collected: `err` keeps
        # it alive here
        psi = harmonic_ground_state(make_grid(1, 20.0, 64))
        calls = []

        def extra(t, q):
            if len(calls) == 300:
                raise ArithmeticError("step 300")
            calls.append(t)
            return 0.0

        with pytest.raises(ArithmeticError, match="step 300") as err:
            integrate_nelson(static_trace(psi), np.zeros((5, 1)), 1e-2,
                             QUANTUM, 0, steps=1100, drift_extra=extra)
        assert_no_child()
        assert "extra" in str(err.traceback[-1])

    def test_two_producers_in_one_transport(self, assert_no_child):
        trace, q0, dt, seed, _, steps, _ = _static_case()
        rules = [StepRule("nelson", rng_seed=s) for s in (seed, seed + 1)]
        got = transport(trace, [(q0, rule) for rule in rules], dt, QUANTUM,
                        steps)
        for ens, rule in zip(got, rules):
            _assert_same(ens, integrate_nelson(trace, q0, dt, QUANTUM,
                                               rule.rng_seed, steps=steps))
        assert_no_child()


def _state_words(state: dict) -> list:
    """A Philox `bitgen.state` dict as the 12 words of its state slice."""
    inner = state["state"]
    return [int(w) for w in (
        state["buffer_pos"], *state["buffer"],
        state["has_uint32"] | state["uinteger"] << 32,
        *inner["key"], *inner["counter"])]


def _node_line_case():
    """A static 2-D field x exp(-(x^2 + y^2)/4) exp(iy): a node line on the
    grid column x = 0, and q0[:3] in cells with a corner on it."""
    grid = make_grid(2, 20.0, 32)
    x, y = grid.meshgrid()
    vals = x * np.exp(-(x ** 2 + y ** 2) / 4) * np.exp(1j * y)
    trace = static_trace(Wavefunction(grid, vals.astype(complex)).normalized())
    q0 = np.array([[0.2, 0.0], [-0.3, 1.0], [0.1, -1.2], [2.0, 0.5],
                   [-2.5, -0.4]])
    return trace, q0, 1e-2, 4, 30, 30, None


def _odd_moving_case():
    """x exp(-x^2/4) breathing in a harmonic well: odd in every frame, so
    the node stays on the grid point x = 0, and q0[:4] start in cells with
    a corner on it."""
    grid = make_grid(1, 20.0, 128)
    cfg = EvolutionConfig(dt=1e-3, steps=200, params=QUANTUM,
                          potential=PotentialSpec.harmonic(),
                          snapshot_stride=10)
    trace = evolve(_node_state(grid, 0.0), cfg)
    q0 = np.array([[0.05], [-0.1], [0.15], [-0.02], [1.5], [-2.0]])
    return trace, q0, 1e-2, 6, None, None, None


NODE_CASES = {"node_line": _node_line_case, "odd_moving": _odd_moving_case}

# recorded with every velocity field filled at its nodes when it was built
NODE_DIGESTS = {
    "node_line_bohmian":
        "13fd39416b8ec8ef390fc8b7141f9e7d8ea2221b936b803f143a7d753f0b211d",
    "node_line_nelson":
        "ae4b55f54427e51fec37724b30de110a97c83e225f46e7537128b164e97bef5a",
    "odd_moving_bohmian":
        "5097000bf923aa991fdb0471845a8ee486bb2a29ba9ad2a04e66aa22fa5dfadd",
    "odd_moving_nelson":
        "24fc27c8d3b2944060c4533e2f059e812c20b3a234e108b3e0f1983deae3f598",
}


@pytest.fixture
def fills(monkeypatch):
    """One entry per fill_nodes call made through the trajectories module."""
    calls = []
    real = trajectories.fill_nodes

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trajectories, "fill_nodes", counted)
    return calls


class TestLazyNodeFill:
    # velocity grids are filled at their nodes only once a gather reaches
    # a cell with a node corner; the bytes must be those of a field filled
    # up front
    @pytest.mark.parametrize("integrator", ["bohmian", "nelson"])
    @pytest.mark.parametrize("name", sorted(NODE_CASES))
    def test_node_cells_match_recorded_digest(self, name, integrator, fills):
        ens = _run(integrator, NODE_CASES[name]())
        assert _ensemble_digest(ens) == NODE_DIGESTS[f"{name}_{integrator}"]
        assert fills

    @pytest.mark.parametrize("integrator", ["bohmian", "nelson"])
    @pytest.mark.parametrize("name", ["moving", "static"])
    def test_bit_identity_cases_read_filled_values(self, name, integrator,
                                                   fills):
        _run(integrator, CASES[name]())
        assert fills

    def test_zero_drift_never_fills(self, fills):
        # the control run gathers no drift, only |psi| for the node flags
        trace, q0, dt, seed, _, steps, _ = _static_case()
        integrate_nelson(trace, q0, dt, QUANTUM, seed, steps=steps,
                         drift_override="zero")
        assert not fills

    def test_particles_inside_the_packet_never_fill(self, fills):
        trace, q0, dt, seed, _, _, extra = _pointer_case()
        inside = q0[:4]  # near the branch centres, far from every node
        transport(trace, [(inside, StepRule("bohmian", extra)),
                          (inside, StepRule("nelson", extra, seed))],
                  dt, QUANTUM)
        assert not fills

    def test_one_fill_per_field(self, fills):
        trace, q0, dt, seed, steps, _, _ = _node_line_case()
        transport(trace, [(q0, StepRule("bohmian")),
                          (q0, StepRule("nelson", rng_seed=seed))],
                  dt, QUANTUM, steps)
        assert len(fills) == 1  # one static field

    def test_static_run_looks_up_once_per_step(self, monkeypatch):
        # the node flags and the drift gather share one look-up per step in
        # the one table of the one field
        builds, lookups = [], []
        build, lookup = trajectories._cell_codes, VelocityField.lookup

        def counted_build(*args):
            builds.append(1)
            return build(*args)

        def counted_lookup(self, cells):
            lookups.append(1)
            return lookup(self, cells)

        monkeypatch.setattr(trajectories, "_cell_codes", counted_build)
        monkeypatch.setattr(VelocityField, "lookup", counted_lookup)
        trace, q0, dt, seed, _, steps, _ = _static_case()
        integrate_nelson(trace, q0, dt, QUANTUM, seed, steps=steps)
        assert len(builds) == 1 and len(lookups) == steps

    @pytest.mark.parametrize("dim", [1, 2])
    def test_masked_points_take_nearest_valid_value(self, dim):
        grid = make_grid(dim, 20.0, 32)
        coords = grid.meshgrid()
        x, r2 = coords[0], sum(c ** 2 for c in coords)
        psi = (x - 1.25) * np.exp(-r2 / 4 + 0.7j * x)  # node on x = 1.25
        vf = velocity_field(psi, grid, QUANTUM)
        mask = vf.abs_psi < vf.node_level
        assert mask.any() and not mask.all()
        pts = np.indices(mask.shape).reshape(dim, -1).T
        valid = pts[~mask.ravel()]
        for p in pts[mask.ravel()]:
            d2 = ((valid - p) ** 2).sum(axis=1)
            near = [tuple(q) for q in valid[d2 == d2.min()]]
            # one nearest valid point is the source of every grid
            got = [f[tuple(p)] for f in vf.v + vf.b]
            assert any(got == [f[q] for f in vf.v + vf.b] for q in near)


class TestNodeFlags:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_flags_at_the_node_edge(self, dim):
        # bands of grid rows whose |psi| is the node level L, one ulp above
        # it, the flag threshold L (1 + margin) and one ulp below L (nodes);
        # rounding puts the interpolant below L at some points of cells whose
        # corners are all at L, so only a margin finds every flag
        grid = make_grid(dim, 20.0, 32)
        amp = np.ones((32,) * dim)
        level = 1e-6  # node_level of a field whose maximum is 1
        edge = level * (1 + trajectories._FLAG_MARGIN)
        bands = {(2, 8): level, (10, 16): np.nextafter(level, 1.0),
                 (18, 24): edge, (26, 30): np.nextafter(level, 0.0)}
        for (lo, hi), value in bands.items():
            amp[lo:hi] = value
        vf = velocity_field(amp.astype(complex), grid, QUANTUM)
        assert vf.node_level == level
        pts = grid.wrap(np.random.default_rng(1).uniform(
            -10.0, 10.0, size=(200_000, dim)))
        cells = trajectories._cells(grid, pts)
        want = trajectories._gather(vf.abs_psi, cells) < level
        row = cells[0][0] // 32 ** (dim - 1)  # first index of the cell
        at_level = (row >= 2) & (row < 7)  # every corner at L
        assert want[at_level].any() and not want[(row >= 18) & (row < 23)].any()
        # a cell whose code is 0 holds no flagged point, so skipping |psi|
        # where no cell can flag leaves the flags those of a full gather
        codes = vf.lookup(cells)
        assert (codes[at_level] > 0).all() and not want[codes == 0].any()
        for pick in (slice(None), np.flatnonzero(codes == 0)):
            sub = trajectories._cells(grid, pts[pick])
            flags = np.zeros(len(pts[pick]), dtype=bool)
            vf.flag(sub, vf.lookup(sub), flags)
            assert _bits(flags) == _bits(want[pick])

    def test_abs_psi_is_read_only_near_a_node(self, monkeypatch):
        # particles near the pointer's branch centres sit in cells that
        # cannot flag, so no step interpolates |psi|; one particle in the
        # node region makes steps do so, and is flagged
        fields, gathered = [], []
        build, gather = trajectories.velocity_field, trajectories._gather

        def counted_build(*args):
            fields.append(build(*args))
            return fields[-1]

        def counted_gather(field, cells):
            gathered.append(field)
            return gather(field, cells)

        monkeypatch.setattr(trajectories, "velocity_field", counted_build)
        monkeypatch.setattr(trajectories, "_gather", counted_gather)
        trace, q0, dt, seed, _, _, extra = _pointer_case()

        def psi_reads(q):
            fields.clear()
            gathered.clear()
            ens = transport(trace, [(q, StepRule("nelson", extra, seed))],
                            dt, QUANTUM)[0]
            reads = sum(any(f is vf.abs_psi for vf in fields)
                        for f in gathered)
            return reads, len(ens.times) - 1, ens.node_flags

        reads, steps, flags = psi_reads(q0[:4])
        assert reads == 0 and steps > 0 and not flags.any()
        reads, steps, flags = psi_reads(q0)
        assert 0 < reads <= steps and flags[5]
