import csv
import json
import struct

import numpy as np
import pytest

from sllab.grid_field import (
    PhysicalParams,
    Wavefunction,
    gaussian_packet,
    make_grid,
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
from sllab.trajectories import integrate_nelson, static_trace
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
