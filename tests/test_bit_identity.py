"""Trajectory and CSV bytes pinned to sha256 digests.

The digests were recorded with the two integrators still written as two
separate loops, each with its own node check and inline noise blocks.
The shared transport loop, the node check read from the velocity field,
the noise iterator and the bulk CSV writers must reproduce them bit for
bit.  Each case is small: a moving 1-D trace through a node with an
extra drift, a static trace with a node (Nelson over 600 steps, so the
noise crosses a block boundary, and the zero-drift control), and a 2-D
pointer trace with the coupling drift.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from sllab.dynamics import EvolutionConfig, evolve
from sllab.grid_field import PhysicalParams, PotentialSpec, Wavefunction, \
    make_grid
from sllab.io_formats import write_field_csv, write_trajectories_csv
from sllab.measurement import PointerModel, coupling_drift, evolve_pointer
from sllab.trajectories import integrate_bohmian, integrate_nelson, \
    static_trace

QUANTUM = PhysicalParams.quantum()

DIGESTS = {
    "moving_bohmian":
        "f5b5e1123dd707caf998e15dee4efa0a908eee21ae6c433284bcf1a83f3803e5",
    "moving_nelson":
        "1c92a12ab76b3edd5cc116f24b2b79c1415026a9e0054d1ca79d06dfe45bb96e",
    "static_bohmian":
        "7131453a151d0e187d3fcaf45f157f7e6b0233c7d02bdd8d4e10822fa6edfe89",
    "static_nelson":
        "c6bbf09ee17eef5784a8f63b85f3923d8335919bd8f49e1eaa137c58d9b5286c",
    "static_nelson_zero":
        "77ad9a28424820ee6575af861d4d26436da2edf017093e6573bea75198b11fe1",
    "pointer_bohmian":
        "f1a5ecb24b6d8f10fcf53d07a1cef3d38bacf8acb7534e3b041539070cac76ae",
    "pointer_nelson":
        "f5e89d9e0fe4451660f7d86096337bc2b80308512df5ca5cc0d2030f17b7c2f0",
    "trajectories_csv":
        "d6f5e1dc19dde1b6534572082d2eb5a9408919fc0ae21d39fb25405ce640dbac",
    "field_csv":
        "1d4590d2176d01994decedf40cfd8aacfba1614354c7438916df6b8a614c12f9",
}


def _node_state(grid, momentum):
    """x exp(-x^2/4) exp(i k x): a node on the grid point x = 0."""
    x = grid.axis_coords
    vals = x * np.exp(-x ** 2 / 4) * np.exp(1j * momentum * x)
    return Wavefunction(grid, vals.astype(complex)).normalized()


def _ensemble_digest(ens) -> str:
    h = hashlib.sha256()
    for arr in (ens.times, ens.positions, ens.node_flags):
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _moving():
    grid = make_grid(1, 20.0, 128)
    cfg = EvolutionConfig(dt=1e-3, steps=200, params=QUANTUM,
                          potential=PotentialSpec.harmonic(),
                          snapshot_stride=10)
    trace = evolve(_node_state(grid, 0.8), cfg)
    q0 = np.linspace(-3.0, 3.0, 13).reshape(-1, 1)  # q0[6] sits on the node

    def extra(t, q):
        return 0.3 * np.sin(q + t)

    return {
        "moving_bohmian": integrate_bohmian(trace, q0, 1e-2, QUANTUM,
                                            drift_extra=extra),
        "moving_nelson": integrate_nelson(
            trace, q0, 1e-2, QUANTUM, 5, drift_extra=extra),
    }


def _static():
    trace = static_trace(_node_state(make_grid(1, 20.0, 64), 0.0))
    q0 = np.linspace(-2.0, 2.0, 5).reshape(-1, 1)   # q0[2] on the node
    return {
        "static_bohmian": integrate_bohmian(trace, q0, 1e-2, QUANTUM,
                                            steps=40),
        "static_nelson": integrate_nelson(trace, q0, 1e-2, QUANTUM, 3,
                                          steps=600),
        "static_nelson_zero": integrate_nelson(trace, q0, 1e-2, QUANTUM, 3,
                                               steps=600,
                                               drift_override="zero"),
    }


def _pointer():
    model = PointerModel(grid=make_grid(2, 20.0, 32),
                         c=(math.sqrt(0.5), math.sqrt(0.5)))
    trace = evolve_pointer(model, QUANTUM)
    q0 = np.array([[2.5, 0.0], [-2.5, 0.3], [2.2, -0.4], [-2.8, 0.1],
                   [0.0, 0.0], [2.5, 9.0]])  # q0[5] in the node region
    extra = coupling_drift(model)
    return trace, {
        "pointer_bohmian": integrate_bohmian(trace, q0, 1e-2, QUANTUM,
                                             drift_extra=extra),
        "pointer_nelson": integrate_nelson(
            trace, q0, 1e-2, QUANTUM, 9, drift_extra=extra),
    }


def compute_digests(tmp_dir) -> dict:
    moving = _moving()
    trace, pointer = _pointer()
    out = {name: _ensemble_digest(ens)
           for name, ens in {**moving, **_static(), **pointer}.items()}
    paths = tmp_dir / "paths.csv"
    ens = moving["moving_nelson"]   # the file holds every third time
    write_trajectories_csv(dataclasses.replace(
        ens, times=ens.times[::3], positions=ens.positions[:, ::3]), paths)
    out["trajectories_csv"] = _file_digest(paths)
    field = tmp_dir / "field.csv"
    write_field_csv(trace.final(), field, QUANTUM)
    out["field_csv"] = _file_digest(field)
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("bit_identity"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bytes_match_recorded_digest(digests, name):
    assert digests[name] == DIGESTS[name]
