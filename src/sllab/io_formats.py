"""Serialization: SLF1 binary field snapshots, CSV series/field/trajectory
tables, canonical JSON reports.

SLF1 layout (little-endian):
    magic   4 bytes  b"SLF1"
    dim     uint32
    n       uint32   points per axis
    L       float64  length per axis
    t       float64  snapshot time
    payload float64  interleaved Re, Im over grid points in C order

A large CSV table (field or paths) is cut into row ranges that forked
writers format at the same time (`ForkedChild`, which also runs half of
`dynamics.lambda_sweep`), with the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import signal
import struct
import traceback
from pathlib import Path

import numpy as np

from .grid_field import Grid, GridError, PhysicalParams, Wavefunction, \
    polar_decompose, quantum_potential

MAGIC = b"SLF1"
HEADER_BYTES = 28
# rows formatted at a time; their strings, not the whole table, set the
# writer's peak memory
FIELD_CSV_CHUNK_ROWS = 2048
# values per forked row-range writer of a CSV table; bytes per pipe read
FORK_VALUES, PIPE_READ_BYTES = 1 << 15, 1 << 16


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
    (in action units) and Q both take hbar from `params`.

    The bytes are those of csv.writer: each float is written as its repr,
    so rows of floats round-trip, and rows end in \\r\\n.  The table is
    written FIELD_CSV_CHUNK_ROWS rows at a time, and within a chunk each
    distinct value of the coordinates and of the node-filled S and Q, which
    repeat many values, is formatted once (keyed by its float64 bits, so
    0.0 and -0.0 stay apart)."""
    grid = psi.grid
    params = params or PhysicalParams.quantum()
    polar = polar_decompose(psi, hbar=params.hbar)
    q = quantum_potential(polar, params)
    coords = grid.meshgrid()
    header = (["x", "y"][: grid.dim]) + ["re_psi", "im_psi", "R", "S", "Q"]
    vals = psi.values.ravel()
    columns = [c.ravel() for c in coords] + [
        vals.real, vals.imag, polar.R.ravel(), polar.S.ravel(), q.ravel()]
    formats = [_reprs] * grid.dim + [_plain_reprs] * 3 + [_reprs] * 2

    def rows(start, stop):
        for lo in range(start, stop, FIELD_CSV_CHUNK_ROWS):
            hi = min(lo + FIELD_CSV_CHUNK_ROWS, stop)
            cells = [f(c[lo:hi]) for f, c in zip(formats, columns)]
            yield ("\r\n".join(map(",".join, zip(*cells))) + "\r\n").encode()

    _write_table(path, header, grid.size, grid.size * len(columns), rows)


def _reprs(values: np.ndarray) -> list:
    """repr of each float64 of `values`, formatting each bit pattern once."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())),
                     dtype=object)
    return texts[inverse].tolist()


def _plain_reprs(values: np.ndarray) -> list:
    return list(map(repr, values.tolist()))


def write_series_csv(rows, header, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating))
                             else str(v) for v in row])


def write_trajectories_csv(ensemble, path) -> None:
    """Columns: traj_id, t, x[, y]."""
    dim = ensemble.positions.shape[2]
    header = ["traj_id", "t", "x"] + (["y"] if dim == 2 else [])
    # the bytes csv.writer gives (a float as its repr, rows ending in
    # \r\n) from one %-format per path: the time column is written into it
    # once per file and the path id once per path
    template = "".join(f"{{id}},{t!r}" + ",%r" * dim + "\r\n"
                       for t in ensemble.times.tolist())

    def rows(start, stop):
        for i in range(start, stop):  # one path at a time
            yield (template.replace("{id}", str(i)) % tuple(
                ensemble.positions[i].ravel().tolist())).encode()

    _write_table(path, header, ensemble.n_trajectories,
                 ensemble.positions.size, rows)


def _write_table(path, header: list, nrows: int, nvalues: int, rows) -> None:
    """Write the `header` line, then rows(0, nrows), where rows(a, b) yields
    the bytes of rows a to b in pieces.  The rows are cut into k = min(usable
    CPUs, nvalues // FORK_VALUES, nrows) ranges, at least 1.  Before the
    parent formats anything, a `ForkedChild` is forked to format each range
    after the first; the parent writes range 0 as it formats it, then
    copies each child's pipe in order and reaps it.  A child that does not
    exit 0 is a RuntimeError; on any error every unreaped child is killed."""
    k = max(1, min(len(os.sched_getaffinity(0)), nvalues // FORK_VALUES,
                   nrows))
    bounds = [nrows * j // k for j in range(k + 1)]
    children = []  # in row order
    try:
        with open(path, "wb") as fh:
            for a, b in zip(bounds[1:-1], bounds[2:]):
                children.append(ForkedChild(
                    lambda a=a, b=b: b"".join(rows(a, b)), "CSV row writer"))
            fh.write((",".join(header) + "\r\n").encode())
            for piece in rows(0, bounds[1]):
                fh.write(piece)
            for child in children:
                fh.writelines(child.pieces())
    finally:
        for child in children:
            child.kill()


class ForkedChild:
    """A forked child that writes the bytes of produce() to a pipe once
    they are all made, so it never waits on a full pipe while the parent
    works, and exits 0; if produce() raises, it writes the traceback to
    stderr and exits 1.  The parent reads and reaps it with `pieces` or
    kills and reaps it with `kill`; `what` names it in errors."""

    def __init__(self, produce, what: str):
        r, w = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:  # the child; nothing may return past os._exit
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        out.write(produce())
                    status = 0
                except BaseException:
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(status)
        except OSError:
            os.close(r)
            raise
        finally:
            os.close(w)
        self.pid, self.fd, self.what = pid, r, what

    def pieces(self):
        """Yield the child's bytes up to EOF, then reap it; a child that
        does not exit 0 is a RuntimeError naming its pid and exit status."""
        while piece := os.read(self.fd, PIPE_READ_BYTES):
            yield piece
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        os.close(self.fd)
        self.fd = None
        if status:
            raise RuntimeError(f"{self.what} (pid {self.pid}) ended with "
                               f"exit status {status}")

    def kill(self) -> None:
        """Kill and reap the child, unless `pieces` has reaped it."""
        if self.fd is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            os.close(self.fd)
            self.fd = None


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
