"""perfbench's trace mode reads some arguments of sllab's functions by
name.  One tiny call through each such function, with the tracer
installed, must move the count its hook keeps: a renamed or deleted
parameter would otherwise fail only a `--trace 1` benchmark run."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer  # noqa: E402

from sllab.grid_field import (PhysicalParams, PotentialSpec,  # noqa: E402
                              gaussian_packet, make_grid)
from sllab.trajectories import TrajectoryEnsemble  # noqa: E402


def test_every_hook_that_binds_arguments_by_name_counts(tmp_path):
    import sllab.contextuality.analysis as analysis
    import sllab.contextuality.simplex as simplex
    import sllab.dynamics as dynamics
    import sllab.grid_field as grid_field
    import sllab.io_formats as io_formats
    import sllab.measurement as measurement
    from sllab.contextuality import load_model
    from sllab.fixtures import fixture_path

    quantum = PhysicalParams.quantum()
    psi = gaussian_packet(make_grid(1, 20.0, 16))
    ens = TrajectoryEnsemble(times=np.array([0.0, 0.1]),
                             positions=np.zeros((2, 2, 1)), kind="bohmian",
                             node_flags=np.zeros(2, dtype=bool))
    pointer = measurement.PointerModel(grid=make_grid(2, 30.0, 16),
                                       c=(0.8 ** 0.5, 0.2 ** 0.5))
    tr = Tracer()
    tr.install()
    try:
        dynamics.evolve(psi, dynamics.EvolutionConfig(
            dt=1e-3, steps=2, params=quantum,
            potential=PotentialSpec.free()))
        grid_field.polar_decompose(psi)
        measurement.evolve_pointer(pointer, quantum, dt=0.1)
        simplex.solve_lp([1, 1], A_ub=[[1, 0], [0, 1]], b_ub=[1, 1])
        analysis.contextual_fraction(load_model(fixture_path("pr_box")))
        paths = [tmp_path / name for name in
                 ("f.slf1", "f.csv", "s.csv", "t.csv", "d.json")]
        io_formats.write_slf1(psi, paths[0])
        io_formats.write_field_csv(psi, paths[1])
        io_formats.write_series_csv([(0.0, 1.0)], ["t", "y"], paths[2])
        io_formats.write_trajectories_csv(ens, paths[3])
        io_formats.write_json({"a": 1}, paths[4])
        io_formats.sha256_file(paths[0])
    finally:
        tr.uninstall()
    counts = tr.counts
    assert counts["dynamics.evolve.steps"] == 2
    # once directly, once inside write_field_csv
    assert counts["grid_field.polar_decompose.points"] == 2 * 16
    assert counts["measurement.evolve_pointer.steps"] == 4 + 2
    # the 2 x 2 problem, then pr_box's 16 events by 16 assignments
    assert counts["contextuality.solve_lp.rows"] == 2 + 16
    assert counts["contextuality.solve_lp.cols"] == 2 + 16
    assert counts["contextuality.assignments"] == 16
    assert counts["io_formats.write.bytes"] == sum(
        p.stat().st_size for p in paths)
    assert counts["io_formats.sha256_file.bytes"] == paths[0].stat().st_size
