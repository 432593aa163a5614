import csv
import errno
import io
import json
import os
import signal
import struct

import numpy as np
import pytest

from sllab import io_formats
from sllab.grid_field import (
    PhysicalParams,
    Wavefunction,
    gaussian_packet,
    make_grid,
    polar_decompose,
    quantum_potential,
)
from sllab.io_formats import (
    FormatError,
    canonical_json,
    read_slf1,
    sha256_file,
    write_field_csv,
    write_json,
    write_series_csv,
    write_slf1,
    write_trajectories_csv,
)
from sllab.trajectories import TrajectoryEnsemble, integrate_nelson, \
    static_trace
from sllab.grid_field import harmonic_ground_state


class TestSlf1:
    def test_round_trip_bitexact(self, tmp_path):
        g = make_grid(1, 20.0, 128)
        psi = gaussian_packet(g, center=1.0, momentum=0.5)
        p = tmp_path / "field.slf1"
        write_slf1(psi, p)
        back = read_slf1(p)
        assert back.grid == g
        assert np.array_equal(back.values, psi.values)

    def test_2d_round_trip(self, tmp_path):
        g = make_grid(2, 10.0, 32)
        psi = gaussian_packet(g)
        p = tmp_path / "field.slf1"
        write_slf1(psi, p)
        back = read_slf1(p)
        assert back.values.shape == (32, 32)
        assert np.array_equal(back.values, psi.values)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.slf1"
        p.write_bytes(b"XXXX" + b"\0" * 64)
        with pytest.raises(FormatError, match="magic"):
            read_slf1(p)

    def test_truncated_payload(self, tmp_path):
        g = make_grid(1, 20.0, 128)
        psi = gaussian_packet(g)
        p = tmp_path / "field.slf1"
        write_slf1(psi, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(FormatError, match="truncated"):
            read_slf1(p)

    def test_short_header(self, tmp_path):
        p = tmp_path / "short.slf1"
        p.write_bytes(b"SLF1\x01\x00")
        with pytest.raises(FormatError, match="header"):
            read_slf1(p)

    @pytest.mark.parametrize("dim,n,length,t", [
        (3, 16, 10.0, 0.0), (1, 12, 10.0, 0.0), (1, 16, float("nan"), 0.0),
        (1, 16, 10.0, float("inf"))])
    def test_bad_header_fields(self, tmp_path, dim, n, length, t):
        p = tmp_path / "bad.slf1"
        p.write_bytes(b"SLF1" + struct.pack("<IIdd", dim, n, length, t)
                      + b"\0" * 16 * n ** min(dim, 2))
        with pytest.raises(FormatError):
            read_slf1(p)

    def test_trailing_bytes(self, tmp_path):
        g = make_grid(1, 20.0, 16)
        p = tmp_path / "field.slf1"
        write_slf1(gaussian_packet(g), p)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            read_slf1(p)

    def test_non_finite_payload(self, tmp_path):
        g = make_grid(1, 20.0, 16)
        p = tmp_path / "field.slf1"
        psi = gaussian_packet(g)
        vals = psi.values.copy()
        vals[3] = complex(np.nan, 0.0)
        vals[9] = complex(0.0, np.inf)
        write_slf1(Wavefunction(g, vals, psi.t), p)
        with pytest.raises(FormatError, match="2 non-finite values"):
            read_slf1(p)

    def test_deterministic_bytes(self, tmp_path):
        g = make_grid(1, 20.0, 128)
        psi = gaussian_packet(g)
        a, b = tmp_path / "a.slf1", tmp_path / "b.slf1"
        write_slf1(psi, a)
        write_slf1(psi, b)
        assert sha256_file(a) == sha256_file(b)


class TestCsv:
    def test_field_csv_parses_back(self, tmp_path):
        g = make_grid(1, 20.0, 64)
        psi = gaussian_packet(g)
        p = tmp_path / "field.csv"
        write_field_csv(psi, p, PhysicalParams.quantum())
        with open(p) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        # repr round trip: parsed floats equal the source values exactly
        assert float(rows[0]["x"]) == g.axis_coords[0]
        re0 = float(rows[32]["re_psi"])
        assert re0 == psi.values[32].real

    def test_field_csv_takes_hbar_for_s_and_q(self, tmp_path):
        # S = hbar * phase and Q = -(hbar^2 / 2m) lap R / R; doubling hbar
        # scales them by powers of two, which is exact
        psi = gaussian_packet(make_grid(1, 20.0, 64), momentum=1.5)
        cols = {}
        for hbar in (1.0, 2.0):
            p = tmp_path / f"field{hbar}.csv"
            write_field_csv(psi, p, PhysicalParams(hbar=hbar))
            with open(p) as fh:
                rows = list(csv.DictReader(fh))
            cols[hbar] = {k: np.array([float(r[k]) for r in rows])
                          for k in ("R", "S", "Q")}
        one, two = cols[1.0], cols[2.0]
        assert np.any(one["S"] != 0)
        assert np.array_equal(two["R"], one["R"])
        assert np.array_equal(two["S"], 2 * one["S"])
        assert np.array_equal(two["Q"], 4 * one["Q"])

    def test_field_csv_bytes_match_per_row_repr(self, tmp_path):
        # a 2-D table of several chunks whose node-filled S and Q repeat
        # values, whose re_psi column holds 0.0 and -0.0 in one chunk, and
        # whose last row of a chunk equals the first row of the next
        g = make_grid(2, 20.0, 128)
        chunk = io_formats.FIELD_CSV_CHUNK_ROWS
        assert g.size > chunk
        vals = gaussian_packet(g, rho_width=0.5, momentum=1.5).values.copy()
        flat = vals.reshape(-1)
        flat[5], flat[6] = complex(-0.0, 0.0), complex(0.0, -0.0)
        flat[chunk - 1] = flat[chunk] = complex(0.125, -0.375)
        psi = Wavefunction(g, vals)
        params = PhysicalParams.quantum()
        polar = polar_decompose(psi, hbar=params.hbar)
        q = quantum_potential(polar, params)
        v = psi.values.ravel()
        columns = [c.ravel() for c in g.meshgrid()] + [
            v.real, v.imag, polar.R.ravel(), polar.S.ravel(), q.ravel()]
        assert len(np.unique(columns[5])) < g.size // 2
        assert len(np.unique(columns[6])) < g.size // 2
        rows = ["x,y,re_psi,im_psi,R,S,Q"] + [
            ",".join("%r" % v for v in row)
            for row in zip(*(c.tolist() for c in columns))]
        p = tmp_path / "field.csv"
        write_field_csv(psi, p, params)
        assert p.read_bytes() == ("\r\n".join(rows) + "\r\n").encode()

    def test_series_csv(self, tmp_path):
        p = tmp_path / "s.csv"
        write_series_csv([(0.0, 1.5), (0.1, 2.5)], ["t", "w"], p)
        with open(p) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "w"]
        assert float(rows[2][1]) == 2.5

    def test_trajectories_csv(self, tmp_path):
        psi = harmonic_ground_state(make_grid(1, 20.0, 64))
        ens = integrate_nelson(static_trace(psi), np.zeros((3, 1)), 1e-2,
                               PhysicalParams.quantum(), 0, steps=10)
        p = tmp_path / "traj.csv"
        write_trajectories_csv(ens, p)
        with open(p) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["traj_id", "t", "x"]
        assert len(rows) == 1 + 3 * 11


def _paths(npaths, dim, ntimes=5, seed=0):
    rng = np.random.default_rng(seed)
    return TrajectoryEnsemble(
        times=np.linspace(0.0, 0.4, ntimes),
        positions=rng.standard_normal((npaths, ntimes, dim)), kind="nelson",
        node_flags=np.zeros(npaths, bool))


def _paths_bytes(ens):
    """The path table as csv.writer writes rows of reprs."""
    dim = ens.positions.shape[2]
    rows = [["traj_id", "t", "x", "y"][:2 + dim]] + [
        [str(i), repr(t)] + [repr(v) for v in ens.positions[i, j].tolist()]
        for i in range(ens.n_trajectories)
        for j, t in enumerate(ens.times.tolist())]
    return "".join(",".join(r) + "\r\n" for r in rows).encode()


class TestSplitWriter:
    """Tables cut into row ranges that forked children format: the bytes
    of one writer, and no child left behind."""

    @pytest.fixture
    def workers(self, monkeypatch):
        """Split every table between `cpus` writers at most, and count the
        forks."""
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        def split(cpus):
            monkeypatch.setattr(io_formats, "FORK_VALUES", 1)
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
            monkeypatch.setattr(os, "fork", counted)
            return forks
        return split

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_paths_bytes_at_any_split(self, tmp_path, workers,
                                      assert_no_child, dim, k):
        ens = _paths(7, dim)
        forks = workers(k)
        p = tmp_path / "paths.csv"
        write_trajectories_csv(ens, p)
        assert p.read_bytes() == _paths_bytes(ens)
        assert len(forks) == k - 1
        assert_no_child()

    @pytest.mark.parametrize("npaths", [1, 2])
    def test_fewer_paths_than_workers(self, tmp_path, workers,
                                      assert_no_child, npaths):
        ens = _paths(npaths, 1)
        forks = workers(3)
        p = tmp_path / "paths.csv"
        write_trajectories_csv(ens, p)
        assert p.read_bytes() == _paths_bytes(ens)
        assert len(forks) == npaths - 1
        assert_no_child()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_field_bytes_at_any_split(self, tmp_path, workers,
                                      assert_no_child, k):
        # 8 chunks of 2048 rows, split off chunk boundaries at k = 3
        psi = gaussian_packet(make_grid(2, 20.0, 128), rho_width=2.0,
                              momentum=1.5)
        # the in-process bytes, which test_field_csv_bytes_match_per_row_repr
        # pins
        one, split = tmp_path / "one.csv", tmp_path / "split.csv"
        workers(1)
        write_field_csv(psi, one)
        forks = workers(k)
        write_field_csv(psi, split)
        assert len(forks) == k - 1
        assert split.read_bytes() == one.read_bytes()
        assert_no_child()

    @pytest.mark.parametrize("how,status", [("raise", 1), ("kill", -9)])
    def test_child_that_fails_is_an_error(self, tmp_path, monkeypatch,
                                          capfd, workers, assert_no_child,
                                          how, status):
        parent = os.getpid()
        plain = io_formats._plain_reprs

        def fails_in_a_child(values):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ArithmeticError("no rows here")
            return plain(values)

        monkeypatch.setattr(io_formats, "_plain_reprs", fails_in_a_child)
        workers(2)
        psi = gaussian_packet(make_grid(1, 20.0, 64))
        with pytest.raises(RuntimeError, match=r"CSV row writer \(pid \d+\) "
                           rf"ended with exit status {status}$"):
            write_field_csv(psi, tmp_path / "field.csv")
        assert_no_child()
        assert (how == "raise") == (
            "ArithmeticError: no rows here" in capfd.readouterr().err)

    def test_failed_file_write_kills_the_child(self, tmp_path, monkeypatch,
                                               workers, assert_no_child):
        class Full(io.BytesIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        target = tmp_path / "field.csv"
        monkeypatch.setattr(io_formats, "open", lambda f, *a: (
            Full() if f == target else open(f, *a)), raising=False)
        statuses = []
        waitpid = os.waitpid

        def recorded(pid, options):
            statuses.append(waitpid(pid, options)[1])
            return pid, statuses[-1]

        monkeypatch.setattr(os, "waitpid", recorded)
        workers(2)
        # the child's half is far more than a pipe holds, and the parent
        # never reads it: the child cannot end by itself
        psi = gaussian_packet(make_grid(2, 20.0, 64), rho_width=2.0)
        with pytest.raises(OSError, match="No space left"):
            write_field_csv(psi, target)
        assert len(statuses) == 1
        assert os.WIFSIGNALED(statuses[0])
        assert os.WTERMSIG(statuses[0]) == signal.SIGKILL
        assert_no_child()

    def test_small_tables_never_fork(self, tmp_path, monkeypatch):
        # the free_packet final field (512 x 6 values) and a short path
        # sample stay below FORK_VALUES
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        write_field_csv(gaussian_packet(make_grid(1, 40.0, 512)),
                        tmp_path / "field.csv")
        write_trajectories_csv(_paths(300, 1, ntimes=101),
                               tmp_path / "paths.csv")
        write_trajectories_csv(_paths(160, 2, ntimes=101),
                               tmp_path / "paths2.csv")


class TestJson:
    def test_canonical_sorted_and_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')

    def test_numpy_types_serialized(self, tmp_path):
        doc = {"i": np.int64(3), "f": np.float64(0.5),
               "arr": np.array([1.0, 2.0])}
        p = tmp_path / "doc.json"
        write_json(doc, p)
        back = json.loads(p.read_text())
        assert back == {"arr": [1.0, 2.0], "f": 0.5, "i": 3}

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})
