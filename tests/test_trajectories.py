import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sllab.dynamics import EvolutionConfig, evolve
from sllab.grid_field import (
    PhysicalParams,
    PotentialSpec,
    gaussian_packet,
    harmonic_ground_state,
    make_grid,
    plane_wave,
)
from sllab.measurement import PointerModel, coupling_drift, evolve_pointer
from sllab.trajectories import (
    StepRule,
    _philox_noise,
    integrate_bohmian,
    integrate_nelson,
    interpolate_grid,
    static_trace,
    transport,
    velocity_field,
)
from oracles import free_gaussian_bohm_path
from test_bit_identity import _node_state

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
        v, _ = _v_and_b(plane_wave(g, k), np.array([[0.3], [1.7]]))
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

    def test_no_ensemble_rejected(self):
        trace, _, dt, _, steps, _, _ = _static_case()
        with pytest.raises(ValueError, match="ensemble"):
            transport(trace, [], dt, QUANTUM, steps)


class TestNoise:
    @staticmethod
    def _check_streams(seed, npart, nsteps, dim):
        rows = []
        for row in _philox_noise(seed, npart, nsteps, dim):
            assert row.shape == (npart, dim) and row.flags.c_contiguous
            rows.append(row.copy())
        rows = np.array(rows)
        assert rows.shape == (nsteps, npart, dim)
        for i in range(npart):
            gen = np.random.Generator(np.random.Philox(key=[seed, i]))
            assert _bits(rows[:, i]) == _bits(gen.standard_normal((nsteps,
                                                                   dim)))

    # one block, three and six: states carried across block boundaries
    @pytest.mark.parametrize("nsteps", [60, 1100, 2600])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_streams_equal_per_particle_generators(self, nsteps, dim):
        self._check_streams(11, 7, nsteps, dim)

    # two full tiles of particles and a partial one, one block or a
    # partial last block
    @pytest.mark.parametrize("nsteps", [60, 1100])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_partial_tile(self, nsteps, dim):
        self._check_streams(5, 150, nsteps, dim)

    def test_one_block_resident(self):
        npart, dim = 2000, 1
        block_bytes = 512 * npart * dim * 8
        tracemalloc.start()
        try:
            for _ in _philox_noise(3, npart, 3 * 512, dim):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes
