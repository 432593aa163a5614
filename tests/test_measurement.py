import dataclasses

import numpy as np
import pytest

from sllab import measurement, trajectories
from sllab.grid_field import PhysicalParams, make_grid
from sllab.measurement import (
    MeasurementError,
    PointerModel,
    branch_assign,
    evolve_pointer,
    read_out,
    run_measurement,
)

QUANTUM = PhysicalParams.quantum()


def _model(**overrides):
    defaults = dict(grid=make_grid(2, 30.0, 128),
                    c=(np.sqrt(0.8), np.sqrt(0.2)))
    defaults.update(overrides)
    return PointerModel(**defaults)


class TestModel:
    def test_amplitude_normalization_enforced(self):
        with pytest.raises(MeasurementError):
            _model(c=(1.0, 1.0))

    def test_needs_2d_grid(self):
        with pytest.raises(MeasurementError):
            _model(grid=make_grid(1, 30.0, 128))

    def test_initial_state_branch_weights(self):
        model = _model()
        rho = model.initial_state().density()
        g = model.grid
        x = g.axis_coords
        weight_a = float(rho[x > 0, :].sum() * g.cell_volume)
        # tiny cross term from the packet tails crossing x = 0
        assert weight_a == pytest.approx(0.8, abs=1e-3)


class TestEvolution:
    def test_norm_conserved(self):
        model = _model()
        trace = evolve_pointer(model, QUANTUM)
        norms = [s.norm for s in trace.snapshots]
        assert max(abs(n - 1.0) for n in norms) < 1e-9

    def test_pointer_centers_near_impulsive_prediction(self):
        model = _model()
        trace = evolve_pointer(model, QUANTUM)
        final = trace.final()
        g = model.grid
        rho_y = final.density().sum(axis=0) * g.dx
        y = g.axis_coords
        up = float(np.sum(y * rho_y * (y > 0)) / np.sum(rho_y * (y > 0)))
        # impulsive readout: the pointer moves by g * x_sep * t_coupling
        assert up == pytest.approx(6.0 * 2.5 * 0.4, rel=0.1)

    def test_snapshot_stride_leaves_field_unchanged(self):
        # the field stays in the (x, k_y) representation between steps, so
        # snapshots only read it; 120 steps are not a multiple of 7
        model = _model()
        every = evolve_pointer(model, QUANTUM, dt=5e-3, snapshot_stride=1)
        strided = evolve_pointer(model, QUANTUM, dt=5e-3, snapshot_stride=7)
        assert len(every.snapshots) == 121
        assert len(strided.snapshots) == 1 + 120 // 7 + 1
        assert strided.snapshots[-1].t == pytest.approx(
            model.t_coupling + model.t_settle, abs=1e-12)
        assert np.max(np.abs(strided.final().values
                             - every.final().values)) < 1e-13


    def test_kernel_input_unchanged(self, monkeypatch):
        # the kernel advances its own copy of each epoch's field in place
        handed = []

        def recording(psi, *args, **kwargs):
            handed.append((psi, psi.copy()))
            return split_step(psi, *args, **kwargs)

        split_step = measurement._split_step
        monkeypatch.setattr(measurement, "_split_step", recording)
        trace = evolve_pointer(_model(), QUANTUM, dt=5e-3, snapshot_stride=7)
        assert len(handed) == 2
        for psi, before in handed:
            assert psi.tobytes() == before.tobytes()
        finals = [s.psi.values for s in trace.snapshots]
        assert len({id(v) for v in finals}) == len(finals)

    def test_non_finite_field_caught_at_next_snapshot(self, monkeypatch):
        # a NaN written into the field after step 3 is found when step 4
        # (t = 0.02, stride 2) is snapshotted, before it is recorded
        def poisoned(*args, **kwargs):
            for step, rows in enumerate(split_step(*args, **kwargs), 1):
                if step == 3:
                    rows[0, 5, 7] = np.nan
                yield rows

        split_step = measurement._split_step
        monkeypatch.setattr(measurement, "_split_step", poisoned)
        with pytest.raises(MeasurementError,
                           match=r"non-finite field at t=0\.02$"):
            evolve_pointer(_model(), QUANTUM, dt=5e-3)


class TestBranchAssignment:
    def test_ambiguous_band(self):
        pos = np.array([[0.0, 6.0], [0.0, -6.0], [0.0, 0.1]])
        assign = branch_assign(pos, centers=(6.0, -6.0), dy_min=4.0)
        assert list(assign) == [0, 1, -1]

    def test_rejects_unseparated_centers(self):
        with pytest.raises(MeasurementError):
            branch_assign(np.zeros((2, 2)), centers=(1.0, -1.0), dy_min=4.0)


class TestReadout:
    def test_born_frequencies_small(self):
        model = _model()
        rep = run_measurement(model, QUANTUM, n_traj=1500, seed=12,
                              kind="bohmian")
        assert rep.status == "pass"
        assert rep.overlap < 0.01
        assert rep.branch_norm_drift < 1e-6
        assert abs(rep.frequencies[0] - 0.8) <= rep.ci3sigma[0]

    def test_nelson_kind(self):
        model = _model()
        rep = run_measurement(model, QUANTUM, n_traj=1500, seed=13,
                              kind="nelson")
        assert rep.status == "pass"

    def test_unknown_kind(self):
        with pytest.raises(MeasurementError):
            run_measurement(_model(), QUANTUM, 10, 0, kind="classical")

    def test_no_coupling_fails(self):
        # g = 0: single pointer blob, outcome ill-defined by construction
        model = _model(coupling=0.0)
        with pytest.raises(MeasurementError):
            run_measurement(model, QUANTUM, n_traj=100, seed=0)

    def test_report_round_trip(self):
        model = _model()
        rep = run_measurement(model, QUANTUM, n_traj=1500, seed=12,
                              kind="bohmian")
        doc = rep.as_dict()
        assert doc["kind"] == "bohmian"
        assert doc["counts"][0] + doc["counts"][1] + doc["ambiguous"] == 1500


class TestOneTransport:
    def test_kinds_share_velocity_fields(self, monkeypatch):
        model = _model()
        trace = evolve_pointer(model, QUANTUM)
        built = []
        real = trajectories.velocity_field

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(trajectories, "velocity_field", counted)
        kinds = ("bohmian", "nelson")
        both = read_out(model, QUANTUM, trace, 400, 5, kinds, 1e-2)
        n_both = len(built)
        apart = [read_out(model, QUANTUM, trace, 400, 5, (kind,), 1e-2)[0]
                 for kind in kinds]
        assert n_both < len(built) - n_both
        assert [r.kind for r in both] == list(kinds)
        assert [r.as_dict() for r in both] == [r.as_dict() for r in apart]

    def test_bare_kind_string_rejected(self):
        model = _model()
        trace = evolve_pointer(model, QUANTUM)
        with pytest.raises(MeasurementError, match="sequence"):
            read_out(model, QUANTUM, trace, 400, 5, "bohmian", 1e-2)

