from dataclasses import replace

import numpy as np
import pytest

from sllab import dynamics
from sllab.dynamics import (
    EvolutionAbort,
    EvolutionConfig,
    _QKernel,
    _evolve_rows,
    _split_step,
    density_width,
    energy_expectation,
    evolve,
    fringe_visibility,
    lambda_sweep,
)
from sllab.grid_field import (
    FieldError,
    PhysicalParams,
    PotentialSpec,
    Wavefunction,
    differentiate,
    gaussian_packet,
    harmonic_ground_state,
    make_grid,
    node_level,
    node_sources,
    polar_decompose,
    quantum_potential_from_abs,
)
from oracles import (
    crank_nicolson_evolve,
    free_gaussian_width,
    madelung_evolve,
    two_evaluation_lambda_evolve,
)

QUANTUM = PhysicalParams.quantum()


def _cfg(dt, steps, potential=None, params=QUANTUM, stride=None):
    return EvolutionConfig(dt=dt, steps=steps, params=params,
                           potential=potential or PotentialSpec.free(),
                           snapshot_stride=stride or steps)


def _chirp(g):
    """A Gaussian with a converging phase: at lam = 0 its classical flow
    focuses into a caustic near t = 1."""
    x = g.axis_coords
    vals = np.exp(-x ** 2 / 4.0) * np.exp(-0.5j * x ** 2)
    return Wavefunction(g, vals).normalized()


class TestConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            _cfg(-1e-3, 10)
        with pytest.raises(ValueError):
            _cfg(1e-3, 0)

    @pytest.mark.parametrize("dt,steps,stride", [
        (float("nan"), 10, 1), (float("inf"), 10, 1), ("1e-3", 10, 1),
        (1e-3, 2.5, 1), (1e-3, True, 1), (1e-3, np.int64(0), 1),
        (1e-3, 10, 1.5), (1e-3, 10, False), (1e-3, 10, 0)])
    def test_rejects_bad_numbers(self, dt, steps, stride):
        with pytest.raises(ValueError, match="dt|steps|snapshot_stride"):
            EvolutionConfig(dt=dt, steps=steps, params=QUANTUM,
                            potential=PotentialSpec.free(),
                            snapshot_stride=stride)

    def test_accepts_numpy_numbers(self):
        cfg = EvolutionConfig(dt=np.float64(1e-3), steps=np.int64(10),
                              params=QUANTUM, potential=PotentialSpec.free(),
                              snapshot_stride=np.int32(2))
        assert cfg.steps == 10

    def test_stability_guard(self):
        g = make_grid(1, 10.0, 256)  # dx ~ 0.039, dt_max ~ 4.9e-4
        cfg = _cfg(1e-2, 10)
        with pytest.raises(ValueError, match="kinetic sampling"):
            evolve(gaussian_packet(g), cfg)


class TestQuantumRegime:
    def test_free_packet_width(self):
        g = make_grid(1, 40.0, 512)
        trace = evolve(gaussian_packet(g), _cfg(1e-3, 2000))
        got = density_width(trace.final())
        assert got == pytest.approx(free_gaussian_width(2.0), rel=1e-4)

    def test_norm_and_energy_conserved(self):
        g = make_grid(1, 40.0, 512)
        pot = PotentialSpec.harmonic()
        psi0 = gaussian_packet(g, center=1.0)
        trace = evolve(psi0, _cfg(1e-3, 500, pot, stride=100))
        norms = [s.norm for s in trace.snapshots]
        energies = [s.energy for s in trace.snapshots]
        assert max(abs(n - 1.0) for n in norms) < 1e-10
        assert max(abs(e - energies[0]) for e in energies) < 1e-7

    def test_eigenstate_static(self):
        g = make_grid(1, 40.0, 512)
        psi0 = harmonic_ground_state(g)
        trace = evolve(psi0, _cfg(1e-3, 1000, PotentialSpec.harmonic()))
        drift = np.max(np.abs(trace.final().density() - psi0.density()))
        assert drift < 1e-6

    def test_matches_crank_nicolson(self):
        # independent time integrator, FD Hamiltonian, dense solve
        g = make_grid(1, 40.0, 128)
        pot = PotentialSpec.harmonic()
        psi0 = gaussian_packet(g, rho_width=2.0, center=1.0)
        trace = evolve(psi0, _cfg(1e-4, 100, pot))
        ref = crank_nicolson_evolve(psi0.values, g.length, pot.evaluate(g),
                                    1e-4, 100)
        assert np.max(np.abs(trace.final().values - ref)) < 1e-5


class TestLambdaRegimes:
    def test_classical_gaussian_static(self):
        # lam=0, zero phase: no quantum pressure, no classical force, so the
        # ensemble density must not move (before any caustic forms)
        g = make_grid(1, 40.0, 512)
        psi0 = gaussian_packet(g)
        params = PhysicalParams.classical()
        trace = evolve(psi0, _cfg(1e-3, 2000, params=params))
        assert np.max(np.abs(trace.final().density() - psi0.density())) < 1e-4

    def test_lambda_dynamics_matches_scaled_hbar(self):
        # [DERIVED] (R, S) under weight lam evolves exactly like ordinary
        # Schrodinger dynamics with hbar_eff = sqrt(lam) * hbar
        lam = 0.36
        g = make_grid(1, 40.0, 512)
        psi0 = gaussian_packet(g)
        trace = evolve(psi0, _cfg(1e-3, 400, params=QUANTUM.with_lambda(lam)))

        hbar_eff = np.sqrt(lam)
        params_eff = PhysicalParams(m=1.0, hbar=hbar_eff)
        psi0_eff = Wavefunction(
            g, np.abs(psi0.values).astype(complex)).normalized()
        trace_eff = evolve(psi0_eff, _cfg(1e-3, 400, params=params_eff))

        assert np.max(np.abs(trace.final().density()
                             - trace_eff.final().density())) < 1e-8

    def test_matches_madelung_oracle(self):
        # FD hydrodynamic integrator on (rho, S), short horizon, lam=0.5
        lam = 0.5
        g = make_grid(1, 40.0, 256)
        psi0 = gaussian_packet(g, rho_width=1.5)
        trace = evolve(psi0, _cfg(1e-4, 500, params=QUANTUM.with_lambda(lam)))
        rho_ref, _ = madelung_evolve(psi0.density(), np.zeros(g.npoints),
                                     g.length, np.zeros(g.npoints),
                                     1e-4, 500, lam=lam)
        core = np.abs(g.axis_coords) <= 5.0
        err = np.max(np.abs(trace.final().density() - rho_ref)[core])
        assert err < 1e-5

    def test_single_q_evaluation_matches_two_evaluation_step(self):
        # the kernel reuses the kick factor that closes one step to open
        # the next; a reference that re-evaluates Q at every half kick must
        # agree to rounding.  max |Q| sits at the node-mask edge
        # (R = 1e-6 max R), where lap R / R magnifies rounding ~1e6-fold:
        # a 1e-16 phase jitter of psi0 moves the reference's own values by
        # 3e-8, while reporting only the end-of-step Q moves them by 2e-4
        lam = 0.5
        g = make_grid(1, 40.0, 256)
        left = gaussian_packet(g, center=-4.0)
        right = gaussian_packet(g, center=+4.0)
        psi0 = Wavefunction(g, left.values + right.values).normalized()
        params = QUANTUM.with_lambda(lam)
        trace = evolve(psi0, _cfg(1e-3, 300, params=params, stride=10))
        ref_psi, ref_max_q = two_evaluation_lambda_evolve(
            psi0.values, g.length, np.zeros(g.npoints), 1e-3, 300, lam,
            lambda R: quantum_potential_from_abs(R, g, params), stride=10)
        assert np.max(np.abs(trace.final().values - ref_psi)) < 1e-12
        got_max_q = [s.max_q for s in trace.snapshots]
        assert len(got_max_q) == len(ref_max_q) == 31
        assert got_max_q == pytest.approx(ref_max_q, rel=1e-7)

    def test_2d_single_q_evaluation_matches_two_evaluation_step(self):
        # a field constant along axis 0 evolves as its profile along axis
        # 1; the oracle's FFT runs along the last axis, so it takes the
        # 2-D field and the 2-D quantum potential as they are
        lam = 0.5
        g = make_grid(2, 40.0, 64)
        y = g.meshgrid()[1]
        vals = np.exp(-(y - 4.0) ** 2 / 4.0) + np.exp(-(y + 4.0) ** 2 / 4.0)
        psi0 = Wavefunction(g, vals).normalized()
        params = QUANTUM.with_lambda(lam)
        trace = evolve(psi0, _cfg(1e-3, 300, params=params, stride=10))
        ref_psi, ref_max_q = two_evaluation_lambda_evolve(
            psi0.values, g.length, np.zeros(g.shape), 1e-3, 300, lam,
            lambda R: quantum_potential_from_abs(R, g, params), stride=10)
        assert np.max(np.abs(trace.final().values - ref_psi)) < 1e-12
        got_max_q = [s.max_q for s in trace.snapshots]
        assert len(got_max_q) == len(ref_max_q) == 31
        assert got_max_q == pytest.approx(ref_max_q, rel=1e-7)

    def test_classical_caustic_aborts(self):
        # converging classical flow focuses into a caustic; the conserved
        # lam-energy guard must abort rather than return garbage
        g = make_grid(1, 40.0, 512)
        psi0 = _chirp(g)
        with pytest.raises(EvolutionAbort) as exc:
            evolve(psi0, _cfg(1e-3, 4000, params=PhysicalParams.classical(),
                              stride=100))
        assert len(exc.value.trace.snapshots) >= 1
        assert exc.value.trace.status == "aborted"


class TestSweep:
    def test_requires_sorted_lambdas(self):
        g = make_grid(1, 40.0, 256)
        psi0 = gaussian_packet(g)
        with pytest.raises(ValueError):
            lambda_sweep(psi0, _cfg(1e-3, 10), [1.0, 0.0])
        with pytest.raises(ValueError):
            lambda_sweep(psi0, _cfg(1e-3, 10), [0.5, 1.5])
        with pytest.raises(ValueError):
            lambda_sweep(psi0, _cfg(1e-3, 10), [])

    def test_visibility_monotone_small(self):
        g = make_grid(1, 40.0, 256)
        left = gaussian_packet(g, center=-4.0)
        right = gaussian_packet(g, center=+4.0)
        both = Wavefunction(g, left.values + right.values).normalized()
        entries = lambda_sweep(both, _cfg(2e-3, 750), [0.0, 0.5, 1.0],
                               reference_components=[(left, 0.5), (right, 0.5)])
        vis = [e.visibility for e in entries if e.status == "ok"]
        assert len(vis) == 3
        assert vis[0] <= vis[1] <= vis[2]
        assert vis[2] > vis[0]

    @pytest.mark.parametrize("coherent", ["pair", "chirp"])
    def test_rows_match_serial_evolve(self, coherent):
        # the sweep runs every lambda and component in one stack; each
        # entry must be what separate evolve calls give, bit for bit.  The
        # chirp aborts at lam = 0 on a lam-energy check
        g = make_grid(1, 40.0, 256)
        left = gaussian_packet(g, center=-4.0)
        right = gaussian_packet(g, center=+4.0)
        psi0 = (Wavefunction(g, left.values + right.values).normalized()
                if coherent == "pair" else _chirp(g))
        comps = [(left, 0.5), (right, 0.5)]
        cfg = _cfg(1e-3, 1500, stride=100)
        entries = lambda_sweep(psi0, cfg, [0.0, 0.5, 1.0],
                               reference_components=comps)
        for e in entries:
            lam_cfg = replace(cfg, params=cfg.params.with_lambda(e.lam))
            try:
                trace, status, detail = evolve(psi0, lam_cfg), "ok", ""
            except EvolutionAbort as exc:
                trace, status, detail = exc.trace, "aborted", str(exc)
            visibility = None
            if status == "ok":
                rho_inc = np.zeros(g.shape)
                for comp, weight in comps:
                    rho_inc = rho_inc + weight * evolve(
                        comp.normalized(), lam_cfg).final().density()
                visibility = fringe_visibility(trace.final().density(),
                                               rho_inc, g)
            assert (e.status, e.detail) == (status, detail)
            assert e.final_density.tobytes() == \
                trace.final().density().tobytes()
            assert e.max_q_history == [s.max_q for s in trace.snapshots]
            assert e.visibility == visibility
        statuses = [e.status for e in entries]
        assert statuses == (["ok"] * 3 if coherent == "pair"
                            else ["aborted", "ok", "ok"])

    def test_component_abort_is_recorded(self):
        g = make_grid(1, 40.0, 256)
        entries = lambda_sweep(gaussian_packet(g), _cfg(1e-3, 1500, stride=100),
                               [0.0, 1.0], reference_components=[(_chirp(g), 1.0)])
        assert [e.status for e in entries] == ["aborted", "ok"]
        assert entries[0].visibility is None
        assert entries[0].detail.startswith("reference component 0: ")
        assert entries[1].visibility is not None

    def test_visibility_zero_for_identical(self):
        g = make_grid(1, 20.0, 128)
        rho = gaussian_packet(g).density()
        assert fringe_visibility(rho, rho, g) == 0.0


def _lambda_energy_from_psi(psi, potential, params):
    """The lam-energy as computed from psi alone, <H> included."""
    e = energy_expectation(psi, potential, params)
    grid = psi.grid
    R = np.abs(psi.values)
    grad_sq = sum(np.abs(differentiate(R, grid, axis=ax, order=1)) ** 2
                  for ax in range(grid.dim))
    int_rho_q = (params.hbar ** 2 / (2.0 * params.m)) \
        * float(np.sum(grad_sq) * grid.cell_volume)
    return e - (1.0 - params.lam) * int_rho_q


class TestStepChecks:
    def test_row_aborts_keep_their_details(self, monkeypatch):
        # at step 5, off the snapshot stride, row 0 turns non-finite and
        # row 1's norm grows by 1e-3; each row gets its own detail, and
        # rows 2 and 3 run to the end as they do without the other two
        real = dynamics._split_step

        def corrupting(psi, kinetic, steps, half_kick=None, axes=None):
            inner = real(psi, kinetic, steps, half_kick, axes)
            for step, rows in enumerate(inner, 1):
                if step == 5:
                    rows[0, 7] = np.nan
                    rows[1] *= 1.001
                keep = yield rows
                if keep is not None:
                    inner.send(keep)
                    yield None

        g = make_grid(1, 40.0, 256)
        fields = [gaussian_packet(g, center=c) for c in (-4.0, -1.0, 2.0, 5.0)]
        lams = [1.0, 0.5, 0.5, 1.0]
        cfg = _cfg(1e-3, 40, stride=10)
        want = _evolve_rows(fields[2:], cfg, lams[2:])
        monkeypatch.setattr(dynamics, "_split_step", corrupting)
        traces = _evolve_rows(fields, cfg, lams)
        assert [tr.status for tr in traces] == ["aborted", "aborted", "ok", "ok"]
        assert traces[0].detail == "non-finite field at step 5 (t=0.005)"
        assert traces[1].detail.startswith("norm drifted by 1.000e-03 at "
                                           "step 5 (t=0.005)")
        assert [len(tr.snapshots) for tr in traces] == [1, 1, 5, 5]
        for tr, ref in zip(traces[2:], want):
            assert [s.t for s in tr.snapshots] == [s.t for s in ref.snapshots]
            assert tr.final().values.tobytes() == ref.final().values.tobytes()

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
    def test_one_energy_per_snapshot(self, dim, n, monkeypatch):
        # every lam < 1 check reads the snapshot's <H>: its lam-energy is
        # the one computed from psi alone, bit for bit, and <H> runs once
        # per snapshot of each row
        real_energy, real_lambda = energy_expectation, dynamics.lambda_energy
        energies, checks = [], []

        def counted(*args):
            energies.append(args)
            return real_energy(*args)

        def recorded(snap, params):
            checks.append((snap, params, real_lambda(snap, params)))
            return checks[-1][2]

        monkeypatch.setattr(dynamics, "energy_expectation", counted)
        monkeypatch.setattr(dynamics, "lambda_energy", recorded)
        g = make_grid(dim, 20.0, n)
        left = gaussian_packet(g, center=-3.0)
        right = gaussian_packet(g, center=3.0)
        both = Wavefunction(g, left.values + right.values).normalized()
        cfg = _cfg(1e-3, 60, potential=PotentialSpec.harmonic(), stride=20)
        lams = [0.25, 0.5, 1.0]
        traces = _evolve_rows([both, left, right] * len(lams), cfg,
                              [lam for lam in lams for _ in range(3)])
        assert all(tr.status == "ok" and len(tr.snapshots) == 4
                   for tr in traces)
        assert len(energies) == 4 * len(traces)
        assert len(checks) == 4 * 6
        assert {id(snap) for snap, _, _ in checks} == {
            id(s) for tr in traces[:6] for s in tr.snapshots}
        for snap, params, e_lam in checks:
            assert params.lam < 1.0
            assert e_lam == _lambda_energy_from_psi(snap.psi,
                                                    cfg.potential, params)

    def test_last_step_is_recorded(self):
        # 105 steps at stride 10: snapshots at 0, 10, ..., 100 and 105
        g = make_grid(1, 40.0, 256)
        psi0 = gaussian_packet(g)
        trace = evolve(psi0, _cfg(1e-3, 105, stride=10))
        assert len(trace.snapshots) == 12
        assert trace.times[-1] == pytest.approx(0.105, rel=1e-12)
        assert trace.final().values.tobytes() == \
            evolve(psi0, _cfg(1e-3, 105)).final().values.tobytes()


class TestKernel:
    @staticmethod
    def _field(rng, shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def test_row_bytes_independent_of_stack_height(self):
        # numpy computes a product whose temporary reaches 256 KB in place,
        # operands swapped, and its complex multiply is not commutative to
        # the last bit: the kernel must fix the operand order itself
        rng = np.random.default_rng(4)
        field, other = self._field(rng, (128, 128)), self._field(rng, (128, 128))
        kinetic = np.exp(1j * rng.normal(size=(128, 128)))
        kick = np.exp(1j * rng.normal(size=(128, 128)))

        def run(stack):
            for rows in _split_step(stack, kinetic, 3, lambda _: kick,
                                    axes=(0,)):
                pass
            return rows[0].copy()

        assert run(field[None]).tobytes() == \
            run(np.stack([field, other])).tobytes()

    def test_yields_one_array_and_leaves_input(self):
        rng = np.random.default_rng(5)
        psi = self._field(rng, (3, 64))
        before = psi.copy()
        kinetic = np.exp(1j * rng.normal(size=64))
        kick = np.exp(1j * rng.normal(size=(3, 64)))
        yielded = list(_split_step(psi, kinetic, 50, lambda _: kick))
        assert len(yielded) == 50
        assert all(a is yielded[0] for a in yielded)
        assert yielded[0] is not psi
        assert psi.tobytes() == before.tobytes()


class TestQKernel:
    @staticmethod
    def _stack(g, shift):
        # a plain packet, one with a node at its centre, a moving pair
        # whose fringes have nodes, and a packet far below the others;
        # every field's tails lie below its node level
        x = g.meshgrid()[0]
        one = gaussian_packet(g, center=shift, rho_width=0.8).values
        pair = gaussian_packet(g, center=shift - 2.0, momentum=2.0).values \
            + gaussian_packet(g, center=shift + 2.0, momentum=-2.0).values
        return np.stack([one, (x - shift) * one, pair, 1e-3 * np.roll(one, 3)])

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
    @pytest.mark.parametrize("rows", [[0, 1, 2, 3], [0, 2, 3]],
                             ids=["lam_lt1", "mixed"])
    def test_matches_reference(self, dim, n, rows):
        # one kernel, called on two stacks, against the complex-transform
        # Q of each; in "mixed" row 1 stands for a lam = 1 row it skips
        g = make_grid(dim, 20.0, n)
        kernel = _QKernel(g, QUANTUM, len(rows))
        for shift in (0.0, 1.3):
            psi = self._stack(g, shift)
            R = np.abs(psi[rows])
            want = quantum_potential_from_abs(R, g, QUANTUM)
            got = kernel(psi, np.array(rows))
            mask = R < node_level(R, dim)
            assert 0 < mask.sum() < mask.size
            assert np.array_equal(kernel.mask, mask)
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()

    @pytest.mark.parametrize("dim,n,shifts", [(1, 512, (0.0, 0.7, 1.3, 2.1)),
                                              (2, 64, (0.0,))])
    def test_transforms_match_nd_real_transforms(self, dim, n, shifts):
        # the kernel's per-axis transforms against the same Q computed
        # through np.fft.rfftn / irfftn, byte for byte: 15 rows of a 1-D
        # stack at n = 512, as in the benchmark's sweep, and a 2-D stack
        g = make_grid(dim, 20.0, n)
        psi = np.concatenate([self._stack(g, shift) for shift in shifts])
        rows = np.arange(min(len(psi), 15))
        kernel = _QKernel(g, QUANTUM, len(rows))
        axes = tuple(range(1, dim + 1))
        R = np.abs(psi[rows])
        mask = R < node_level(R, dim)
        assert 0 < mask.sum() < mask.size
        spec = np.fft.rfftn(R, axes=axes)
        np.multiply(spec, kernel.ksq, out=spec)
        want = np.fft.irfftn(spec, s=R.shape[1:], axes=axes)
        np.divide(want, R, out=want, where=~mask)
        want = want.take(node_sources(mask, dim))
        assert kernel(psi, rows).tobytes() == want.tobytes()

    @classmethod
    def _sequence(cls, g):
        # stacks whose node masks go A, A, A, B, B, A: a phase ramp and a
        # scale change |psi| only by rounding, so each stack's values
        # differ while its mask holds
        x = g.meshgrid()[0]
        stacks = [cls._stack(g, shift) * scale * np.exp(1j * k * x)
                  for shift, scale, k in [(0.0, 1.0, 0.0), (0.0, 0.7, 0.4),
                                          (0.0, 1.9, -1.1), (1.3, 1.0, 0.0),
                                          (1.3, 0.6, 0.3), (0.0, 1.3, 0.8)]]
        masks = [np.abs(p) < node_level(np.abs(p), g.dim) for p in stacks]
        assert all(np.array_equal(masks[0], masks[i]) for i in (1, 2, 5))
        assert np.array_equal(masks[3], masks[4])
        assert not np.array_equal(masks[0], masks[3])
        return stacks

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
    def test_kept_fill_map_matches_fresh_kernel(self, dim, n):
        g = make_grid(dim, 20.0, n)
        rows = np.array([0, 2, 3])
        kernel = _QKernel(g, QUANTUM, len(rows))
        for psi in self._sequence(g):
            got = kernel(psi, rows)
            want = _QKernel(g, QUANTUM, len(rows))(psi, rows)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
    def test_fill_map_found_once_per_mask_change(self, dim, n, monkeypatch):
        found = []
        real = dynamics.node_sources

        def counted(mask, dim):
            found.append(mask.copy())
            return real(mask, dim)

        monkeypatch.setattr(dynamics, "node_sources", counted)
        g = make_grid(dim, 20.0, n)
        kernel = _QKernel(g, QUANTUM, 4)
        for psi in self._sequence(g):
            kernel(psi, np.arange(4))
        # the first call, the change to B and the return to A
        assert len(found) == 3
        assert np.array_equal(found[0], found[2])

    @pytest.mark.parametrize("dim,n", [(1, 256), (2, 64)])
    def test_changed_mask_of_a_whole_row_raises(self, dim, n, monkeypatch):
        g = make_grid(dim, 20.0, n)
        psi = self._stack(g, 0.0)
        kernel = _QKernel(g, QUANTUM, 4)
        kernel(psi, np.arange(4))
        real = dynamics.node_level

        def above_row_1(R, dim):
            level = real(R, dim)
            level[1] = np.inf
            return level

        monkeypatch.setattr(dynamics, "node_level", above_row_1)
        with pytest.raises(FieldError, match="masked everywhere"):
            kernel(psi, np.arange(4))

    @pytest.mark.parametrize("shape,dim", [((16,), 1), ((3, 16), 1),
                                           ((16, 16), 2), ((2, 16, 16), 2)])
    def test_no_node_needs_no_map(self, shape, dim):
        assert node_sources(np.zeros(shape, bool), dim) is None


class TestDiagnostics:
    def test_density_width_analytic(self):
        g = make_grid(1, 40.0, 512)
        psi = gaussian_packet(g, rho_width=1.7, center=2.0)
        assert density_width(psi) == pytest.approx(1.7, rel=1e-6)

    def test_energy_ground_state(self):
        g = make_grid(1, 40.0, 512)
        psi = harmonic_ground_state(g)
        e = energy_expectation(psi, PotentialSpec.harmonic(), QUANTUM)
        assert e == pytest.approx(0.5, abs=1e-9)

    def test_trace_frame_dt(self):
        g = make_grid(1, 40.0, 256)
        trace = evolve(gaussian_packet(g), _cfg(1e-3, 100, stride=10))
        assert len(trace.snapshots) == 11
        assert np.diff(trace.times) == pytest.approx(1e-2)
