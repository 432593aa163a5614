"""Serialization: SLF1 binary field snapshots, CSV series/field/trajectory
tables, canonical JSON reports.

SLF1 layout (little-endian):
    magic   4 bytes  b"SLF1"
    dim     uint32
    n       uint32   points per axis
    L       float64  length per axis
    t       float64  snapshot time
    payload float64  interleaved Re, Im over grid points in C order
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .grid_field import Grid, GridError, PhysicalParams, Wavefunction, \
    polar_decompose, quantum_potential

MAGIC = b"SLF1"
HEADER_BYTES = 28


class FormatError(ValueError):
    pass


def write_slf1(psi: Wavefunction, path) -> None:
    grid = psi.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", grid.dim, grid.npoints))
        fh.write(struct.pack("<dd", grid.length, float(psi.t)))
        inter = np.empty(grid.size * 2)
        flat = psi.values.ravel()
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        fh.write(inter.astype("<f8").tobytes())


def read_slf1(path) -> Wavefunction:
    """The field in an SLF1 file; FormatError for any file that is not one:
    a bad magic, grid or time, a short header, a payload of another size,
    or a non-finite payload value."""
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < HEADER_BYTES:
        raise FormatError(f"truncated SLF1 header: {len(data)} bytes")
    dim, n, length, t = struct.unpack_from("<IIdd", data, 4)
    if not np.isfinite(t):
        raise FormatError(f"non-finite SLF1 time {t}")
    try:
        grid = Grid(dim=dim, length=length, npoints=n)
    except GridError as exc:
        raise FormatError(f"bad SLF1 grid: {exc}") from None
    extra = len(data) - HEADER_BYTES - grid.size * 16
    if extra < 0:
        raise FormatError("truncated SLF1 payload")
    if extra > 0:
        raise FormatError(f"{extra} trailing bytes after the SLF1 payload")
    inter = np.frombuffer(data, dtype="<f8", offset=HEADER_BYTES)
    finite = np.isfinite(inter).reshape(-1, 2).all(axis=1)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise FormatError(f"{bad} non-finite values in the SLF1 payload")
    values = (inter[0::2] + 1j * inter[1::2]).reshape(grid.shape)
    return Wavefunction(grid, values, t)


def write_field_csv(psi: Wavefunction, path,
                    params: PhysicalParams | None = None) -> None:
    """One row per grid point: coordinates, Re psi, Im psi, R, S, Q; S
    (in action units) and Q both take hbar from `params`."""
    grid = psi.grid
    params = params or PhysicalParams.quantum()
    polar = polar_decompose(psi, hbar=params.hbar)
    q = quantum_potential(polar, params)
    coords = grid.meshgrid()
    header = (["x", "y"][: grid.dim]) + ["re_psi", "im_psi", "R", "S", "Q"]
    vals = psi.values.ravel()
    columns = [c.ravel() for c in coords] + [
        vals.real, vals.imag, polar.R.ravel(), polar.S.ravel(), q.ravel()]
    # the bytes csv.writer gives: %r writes a float as its repr, so rows of
    # floats round-trip, and rows end in \r\n
    row = ",".join(["%r"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.__mod__, zip(*(c.tolist() for c in columns))))


def write_series_csv(rows, header, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating))
                             else str(v) for v in row])


def write_trajectories_csv(ensemble, path, stride: int = 1) -> None:
    """Columns: traj_id, t, x[, y]."""
    dim = ensemble.positions.shape[2]
    header = ["traj_id", "t", "x"] + (["y"] if dim == 2 else [])
    # the bytes csv.writer gives (a float as its repr, rows ending in
    # \r\n) from one %-format per path: the time column is written into it
    # once per file and the path id once per path
    rows = "".join(f"{{id}},{t!r}" + ",%r" * dim + "\r\n"
                   for t in ensemble.times[::stride].tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(ensemble.n_trajectories):  # one path at a time
            path_rows = rows.replace("{id}", str(i))
            fh.write(path_rows % tuple(
                ensemble.positions[i, ::stride].ravel().tolist()))


def canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(doc, path) -> None:
    Path(path).write_text(canonical_json(doc) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
