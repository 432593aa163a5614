from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import ndimage

from sllab.grid_field import (
    FieldError,
    Grid,
    GridError,
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    differentiate,
    gaussian_packet,
    harmonic_ground_state,
    laplacian,
    make_grid,
    plane_wave,
    polar_compose,
    polar_decompose,
    quantum_potential,
    quantum_potential_from_abs,
    fill_nodes,
    _unwrap_phase,
)
from oracles import gaussian_quantum_potential


class TestGrid:
    def test_basic_geometry(self):
        g = make_grid(1, 20.0, 64)
        assert g.dx == pytest.approx(0.3125)
        assert g.axis_coords[0] == -10.0
        assert g.axis_coords[-1] == pytest.approx(10.0 - g.dx)
        assert g.cell_volume == g.dx

    def test_rejects_bad_points(self):
        with pytest.raises(GridError):
            make_grid(1, 10.0, 100)  # not a power of two
        with pytest.raises(GridError):
            make_grid(1, 10.0, 8)    # too few
        with pytest.raises(GridError):
            make_grid(3, 10.0, 32)

    def test_wrap_periodic(self):
        g = make_grid(1, 10.0, 32)
        assert g.wrap(np.array([5.0]))[0] == pytest.approx(-5.0)
        assert g.wrap(np.array([7.3]))[0] == pytest.approx(-2.7)

    @staticmethod
    def _assert_wrap_is_modulo(g, x):
        # the float-modulo form wrap replaced, compared bit for bit so that
        # the sign of zero counts
        half = 0.5 * g.length
        expect = (x + half) % g.length - half
        assert np.array_equal(g.wrap(x).view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("length", [7.3, 20.0, 30.0, 40.0])
    def test_wrap_equals_modulo_uniform(self, length):
        g = make_grid(1, length, 64)
        x = np.random.default_rng(1).uniform(-1.5 * length, 1.5 * length,
                                             10 ** 6)
        self._assert_wrap_is_modulo(g, x)

    @pytest.mark.parametrize("length", [7.3, 20.0, 30.0, 40.0])
    def test_wrap_equals_modulo_at_edges(self, length):
        g = make_grid(1, length, 64)
        half = 0.5 * length
        edges = np.array([half, -half, 0.0, -0.0, 5e-324, -5e-324])
        x = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf)])
        self._assert_wrap_is_modulo(g, x)

    def test_wrap_reaches_upper_edge(self):
        # the documented exception to [-L/2, L/2): a point just below -L/2
        # folds to exactly +L/2
        g = make_grid(1, 20.0, 64)
        assert g.wrap(np.array([np.nextafter(-10.0, -np.inf)]))[0] == 10.0

    def test_2d_shapes(self):
        g = make_grid(2, 10.0, 32)
        assert g.shape == (32, 32)
        x, y = g.meshgrid()
        assert x.shape == (32, 32)
        assert g.ksq().shape == (32, 32)


class TestParams:
    def test_lambda_range(self):
        with pytest.raises(ValueError):
            PhysicalParams(lam=1.5)
        with pytest.raises(ValueError):
            PhysicalParams(m=-1.0)

    def test_with_lambda(self):
        p = PhysicalParams.quantum().with_lambda(0.5)
        assert p.lam == 0.5
        assert p.hbar == 1.0
        assert PhysicalParams(m=2.0).nu == pytest.approx(0.25)


class TestPotentials:
    def test_harmonic_values(self):
        g = make_grid(1, 10.0, 64)
        v = PotentialSpec.harmonic(omega=2.0).evaluate(g)
        x = g.axis_coords
        assert np.allclose(v, 2.0 * x ** 2)

    @pytest.mark.parametrize("omega", [1e200, -1e200, 1e308])
    def test_harmonic_omega_squared_overflow_rejected(self, omega):
        g = make_grid(1, 10.0, 64)
        with pytest.raises(FieldError, match="non-finite"):
            PotentialSpec.harmonic(omega=omega).evaluate(g)


class TestStates:
    def test_packet_density_width(self):
        g = make_grid(1, 40.0, 512)
        psi = gaussian_packet(g, rho_width=1.3)
        rho = psi.density()
        x = g.axis_coords
        var = np.sum(x ** 2 * rho) * g.dx
        assert np.sqrt(var) == pytest.approx(1.3, rel=1e-9)

    def test_normalization(self):
        g = make_grid(1, 40.0, 256)
        psi = gaussian_packet(g, center=3.0, momentum=2.0)
        assert psi.norm == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        g = make_grid(1, 10.0, 64)
        with pytest.raises(FieldError):
            Wavefunction(g, np.zeros(32, dtype=complex))

    def test_zero_field_normalize(self):
        g = make_grid(1, 10.0, 64)
        with pytest.raises(FieldError):
            Wavefunction(g, np.zeros(64, dtype=complex)).normalized()


class TestDerivatives:
    def test_spectral_exact_on_plane_wave(self):
        g = make_grid(1, 2 * np.pi * 4, 64)
        k = 2.0 * np.pi / g.length * 5
        f = np.exp(1j * k * g.axis_coords)
        df = differentiate(f, g, order=1)
        assert np.max(np.abs(df - 1j * k * f)) < 1e-12

    def test_fd_cross_check(self):
        # [DERIVED] central FD converges at second order to the spectral value
        errs = []
        for n in (64, 128):
            g = make_grid(1, 20.0, n)
            f = np.exp(-g.axis_coords ** 2 / 2)
            d_sp = differentiate(f, g, order=1)
            d_fd = (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * g.dx)
            errs.append(np.max(np.abs(d_sp - d_fd)))
        assert errs[1] < errs[0] / 3.5  # ~ factor 4 per halving of dx

    def test_laplacian_2d(self):
        g = make_grid(2, 2 * np.pi * 4, 32)
        k = 2.0 * np.pi / g.length * 3
        x, y = g.meshgrid()
        f = np.exp(1j * (k * x + 2 * k * y))
        lap = laplacian(f, g)
        assert np.max(np.abs(lap - (-(k ** 2 + 4 * k ** 2)) * f)) < 1e-10


class TestPolar:
    def test_round_trip_smooth(self):
        g = make_grid(1, 20.0, 256)
        psi = gaussian_packet(g, center=1.0, momentum=1.5)
        polar = polar_decompose(psi)
        back = polar_compose(polar)
        ok = ~polar.node_mask
        assert np.max(np.abs(back.values - psi.values)[ok]) < 1e-12

    def test_plane_wave_phase_linear_mod_winding(self):
        # On a periodic box the unwrapped phase of e^{ikx} can only agree
        # with hbar*k*x up to a constant plus full-turn jumps where the
        # unwrapping fronts meet; off the seam the residual is one constant.
        g = make_grid(1, 2 * np.pi * 8, 256)
        k = 2.0 * np.pi / g.length * 6
        psi = plane_wave(g, k)
        polar = polar_decompose(psi)
        resid = (polar.S - k * g.axis_coords) / (2.0 * np.pi)
        assert np.max(np.abs(resid - np.round(resid))) < 1e-9

    def test_node_heavy_field_rejected(self):
        g = make_grid(1, 10.0, 64)
        vals = np.zeros(64, dtype=complex)
        vals[0] = 1.0
        with pytest.raises(FieldError):
            polar_decompose(Wavefunction(g, vals))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_non_finite_value_named(self, dim):
        psi = gaussian_packet(make_grid(dim, 10.0, 16))
        vals = psi.values.copy()
        vals.flat[5] = np.nan
        with pytest.raises(FieldError, match="1 non-finite values"):
            polar_decompose(Wavefunction(psi.grid, vals))

    def test_node_mask_flags_zero_crossing(self):
        g = make_grid(1, 20.0, 256)
        psi = Wavefunction(g, (g.axis_coords + 0j)
                           * np.exp(-g.axis_coords ** 2 / 4)).normalized()
        polar = polar_decompose(psi)
        assert polar.node_mask.any()
        assert polar.node_mask.mean() < 0.5

    @given(phase=st.floats(-np.pi, np.pi), center=st.floats(-3.0, 3.0),
           momentum=st.floats(-2.0, 2.0))
    def test_round_trip_property(self, phase, center, momentum):
        g = make_grid(1, 20.0, 128)
        psi = gaussian_packet(g, center=center, momentum=momentum)
        psi = Wavefunction(g, psi.values * np.exp(1j * phase))
        back = polar_compose(polar_decompose(psi))
        ok = ~polar_decompose(psi).node_mask
        assert np.max(np.abs(back.values - psi.values)[ok]) < 1e-10


def _bfs_unwrap(raw, mask, start):
    """Breadth-first phase unwrap with a Python queue, neighbours in the
    order (axis 0: -1, +1), (axis 1: -1, +1): the reference for the
    level-by-level search in polar_decompose."""
    shape = raw.shape
    raw_flat = raw.ravel()
    phase = np.full(raw.size, np.nan)
    phase[start] = raw_flat[start]
    visited = mask.ravel().copy()
    visited[start] = True
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        coords = np.unravel_index(cur, shape)
        for ax in range(len(shape)):
            for step in (-1, 1):
                c = list(coords)
                c[ax] = (c[ax] + step) % shape[ax]
                nb = np.ravel_multi_index(c, shape)
                if visited[nb]:
                    continue
                visited[nb] = True
                phase[nb] = raw_flat[nb] + 2.0 * np.pi * round(
                    (phase[cur] - raw_flat[nb]) / (2.0 * np.pi))
                queue.append(nb)
    return phase.reshape(shape)


class TestPhaseUnwrap:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 32)])
    def test_matches_queue_bfs(self, dim, n):
        rng = np.random.default_rng(dim * n)
        g = make_grid(dim, 10.0, n)
        coords = g.meshgrid()
        for trial in range(6):
            phase = sum(rng.normal(0, 2) * c ** 2 + rng.normal(0, 4) * c
                        for c in coords)
            amp = np.exp(-sum(c ** 2 for c in coords) / rng.uniform(2, 20))
            amp = amp * rng.random(g.shape) ** 2
            amp[rng.random(g.shape) < 0.1 * (trial % 3)] = 0.0
            psi = Wavefunction(g, amp * np.exp(1j * phase))
            polar = polar_decompose(psi)
            ref = _bfs_unwrap(np.angle(psi.values), polar.node_mask,
                              int(np.argmax(polar.R)))
            ok = np.isfinite(ref)
            assert polar.S[ok].tobytes() == ref[ok].tobytes()

    def test_negative_zero_phase(self):
        # np.angle gives -0.0 where the imaginary part is -0.0; unwrapped
        # from a slightly negative phase, the queue version's round()
        # returns int 0 there, so S must be +0.0, not -0.0
        g = make_grid(1, 10.0, 16)
        vals = np.full(16, complex(1.0, -0.0))
        vals[0] = 2.0 * np.exp(-0.1j)
        polar = polar_decompose(Wavefunction(g, vals))
        ref = _bfs_unwrap(np.angle(vals), polar.node_mask, 0)
        assert polar.S.tobytes() == ref.tobytes()

    @staticmethod
    def _check(raw, mask, start):
        got = _unwrap_phase(raw, mask, start)
        ref = _bfs_unwrap(raw, mask, start)
        assert got.tobytes() == ref.tobytes()
        return got

    @staticmethod
    def _raw(shape, seed):
        return np.random.default_rng(seed).uniform(-np.pi, np.pi, shape)

    @staticmethod
    def _square_starts(n):
        # corners and edge midpoints, whose neighbours wrap, and the centre
        return sorted({0, n - 1, n * n - 1, n // 2, (n // 2) * n,
                       (n // 2) * n + n - 1, (n // 2) * n + n // 2})

    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_unmasked_square(self, n):
        # from level 2 on, most points of a level have two neighbours in
        # the level before it; the first in neighbour order is the parent
        for start in self._square_starts(n):
            self._check(self._raw((n, n), n + start), np.zeros((n, n), bool),
                        start)

    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_masked_square(self, n):
        rng = np.random.default_rng(n)
        islands = 0
        for frac in (0.3, 0.45, 0.6):
            for start in self._square_starts(n):
                mask = rng.random((n, n)) < frac
                mask.flat[start] = False
                got = self._check(self._raw((n, n), start), mask, start)
                assert np.isnan(got[mask]).all()
                islands += np.isnan(got[~mask]).sum()
        # some unmasked points are cut off from the start and stay NaN
        assert islands > 0 or n < 16

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 64, 65])
    def test_unmasked_ring(self, n):
        for start in sorted({0, n // 3, n - 1}):
            self._check(self._raw(n, n + start), np.zeros(n, bool), start)

    @pytest.mark.parametrize("n", [16, 64])
    def test_even_ring_antipode_from_minus_side(self, n):
        # one winding: walking down from 0 the phase falls, walking up it
        # rises, so the sign at the antipode tells which walk reached it
        raw = np.angle(np.exp(2j * np.pi * np.arange(n) / n))
        got = self._check(raw, np.zeros(n, bool), 0)
        assert got[n // 2] == pytest.approx(-np.pi)
        assert got[n // 2 - 1] == pytest.approx(np.pi * (1 - 2 / n))

    @pytest.mark.parametrize("start", [0, 63])
    def test_start_at_either_end(self, start):
        raw = self._raw(64, 7)
        mask = np.zeros(64, bool)
        mask[[20, 41]] = True
        self._check(raw, mask, start)
        self._check(raw, np.zeros(64, bool), start)

    @pytest.mark.parametrize("arc,start", [((10, 30), 17), ((50, 70), 60),
                                           ((50, 70), 2)])
    def test_single_unmasked_arc(self, arc, start):
        # the arc (50, 70) wraps past the end of the 64-point ring
        n = 64
        mask = np.ones(n, bool)
        mask[np.arange(*arc) % n] = False
        got = self._check(self._raw(n, 3), mask, start)
        assert np.array_equal(np.isfinite(got), ~mask)

    def test_only_start_unmasked(self):
        raw = self._raw(32, 5)
        mask = np.ones(32, bool)
        mask[9] = False
        got = self._check(raw, mask, 9)
        assert got[9] == raw[9]
        assert np.isnan(np.delete(got, 9)).all()


class TestNearestValidIndex:
    # filling np.arange gives each entry's source index
    @staticmethod
    def _edt(mask):
        return ndimage.distance_transform_edt(
            mask, return_distances=False, return_indices=True)[0]

    def test_matches_edt_on_random_masks(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 16, 61):
            masks = rng.random((400, n)) < rng.random((400, 1))
            masks[masks.all(axis=1), rng.integers(n)] = False
            got = fill_nodes(masks, 1, np.tile(np.arange(n), (400, 1)))[0]
            for m, row in zip(masks, got):
                assert np.array_equal(row, self._edt(m))

    def test_ties_single_points_and_ends(self):
        rows = [
            [0, 1, 0],                   # exact tie at the middle
            [0, 1, 1, 1, 0, 1, 1, 0],    # ties at 2 and 6
            [1, 1, 1, 0, 1, 1, 1, 1],    # one unmasked point inside
            [0, 1, 1, 1, 1, 1, 1, 1],    # ... at the left end
            [1, 1, 1, 1, 1, 1, 1, 0],    # ... at the right end
            [1, 1, 0, 0, 1, 0, 1, 1],    # masked at both ends
        ]
        for r in rows:
            mask = np.array(r, dtype=bool)
            got = fill_nodes(mask, 1, np.arange(len(r)))[0]
            assert np.array_equal(got, self._edt(mask)), r
        assert fill_nodes(np.array([0, 1, 0], bool), 1, np.arange(3))[0][1] == 0


class TestAllMaskedField:
    def test_1d(self):
        with pytest.raises(FieldError, match="masked everywhere"):
            fill_nodes(np.ones(16, bool), 1, np.arange(16.0))

    def test_2d(self):
        with pytest.raises(FieldError, match="masked everywhere"):
            fill_nodes(np.ones((16, 16), bool), 2, np.zeros((16, 16)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_field_of_a_stack(self, dim):
        mask = np.zeros((3,) + (16,) * dim, bool)
        mask[0, 0] = True
        mask[1] = True
        with pytest.raises(FieldError, match="masked everywhere"):
            fill_nodes(mask, dim, np.zeros(mask.shape))


class TestNearestValidFill:
    @staticmethod
    def _edt_fill(mask, *values):
        idx = tuple(ndimage.distance_transform_edt(
            mask, return_distances=False, return_indices=True))
        return tuple(v[idx] for v in values)

    # one 1-D field, then stacks along axis 0 of 1-D and of 2-D fields
    @pytest.mark.parametrize("shape", [(61,), (4, 61), (3, 13, 7)])
    def test_matches_edt_gather(self, shape):
        dim = max(1, len(shape) - 1)
        stack = shape[:len(shape) - dim]
        nfields = int(np.prod(stack))
        rng = np.random.default_rng(8)
        masks = [np.zeros(shape, dtype=bool)]
        for frac in (0.3, 0.7, 0.95, 1.0):
            m = rng.random(shape) < frac
            # every field keeps an unmasked point; at 1.0 only that one
            flat = m.reshape(nfields, -1)
            flat[np.arange(nfields), rng.integers(flat.shape[1],
                                                  size=nfields)] = False
            masks.append(m)
        for mask in masks:
            values = (rng.normal(size=shape), rng.normal(size=shape))
            got = fill_nodes(mask, dim, *values)
            for k in np.ndindex(stack):
                want = self._edt_fill(mask[k], *(v[k] for v in values))
                alone = fill_nodes(mask[k], dim, *(v[k] for v in values))
                for g, a, w in zip(got, alone, want):
                    assert g[k].shape == w.shape
                    assert g[k].tobytes() == a.tobytes() == w.tobytes()


class TestQuantumPotential:
    # Frozen accuracy configuration: the Gaussian's exact Q has zero
    # crossings, so relative error is floored by max(1, |Q_exact|).
    def test_gaussian_q_accuracy(self):
        g = make_grid(1, 14.0, 512)
        params = PhysicalParams.quantum()
        psi = gaussian_packet(g, rho_width=1.0)
        polar = polar_decompose(psi)
        q = quantum_potential(polar, params)
        exact = gaussian_quantum_potential(g.axis_coords, s0=1.0)
        err = np.abs(q - exact) / np.maximum(1.0, np.abs(exact))
        # accuracy region |x| <= 3.5 (99.95% of probability mass); outside,
        # periodic wraparound contaminates lap(R)/R where R is ~1e-8
        core = np.abs(g.axis_coords) <= 3.5
        assert np.max(err[core]) < 1e-6

    def test_gauge_independence(self):
        # Q depends on R only; a global phase must not change it.
        g = make_grid(1, 20.0, 256)
        params = PhysicalParams.quantum()
        psi = gaussian_packet(g, momentum=1.0)
        q1 = quantum_potential(polar_decompose(psi), params)
        psi2 = Wavefunction(g, psi.values * np.exp(0.7j))
        q2 = quantum_potential(polar_decompose(psi2), params)
        assert np.max(np.abs(q1 - q2)) < 1e-6

    @given(s0=st.floats(0.7, 2.0))
    def test_q_scaling_property(self, s0):
        # [DERIVED] Q(0) = hbar^2/(4 m s0^2) for a Gaussian amplitude
        g = make_grid(1, 30.0, 256)
        params = PhysicalParams.quantum()
        psi = gaussian_packet(g, rho_width=s0)
        q = quantum_potential_from_abs(np.abs(psi.values), g, params)
        i0 = np.argmin(np.abs(g.axis_coords))
        assert q[i0] == pytest.approx(1.0 / (4.0 * s0 ** 2), rel=1e-4)

    def test_node_clamp_finite(self):
        g = make_grid(1, 20.0, 256)
        params = PhysicalParams.quantum()
        vals = np.abs(g.axis_coords) * np.exp(-g.axis_coords ** 2 / 4)
        q = quantum_potential_from_abs(vals, g, params)
        assert np.all(np.isfinite(q))

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_stack_equals_fields(self, dim, n):
        # each field of a stack gets its own node threshold and node fill
        g = make_grid(dim, 20.0, n)
        params = PhysicalParams.quantum()
        stack = np.stack([
            np.abs(gaussian_packet(g, center=c, rho_width=w).values) * s
            for c, w, s in ((0.0, 1.0, 1.0), (2.0, 0.7, 3.0),
                            (-3.0, 1.5, 1e-3))])
        stack[1].flat[::7] = 0.0
        got = quantum_potential_from_abs(stack, g, params)
        for field, q in zip(stack, got):
            assert q.tobytes() == \
                quantum_potential_from_abs(field, g, params).tobytes()
