import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sllab import experiments as ex
from sllab.cli import main
from sllab.grid_field import FieldError, Grid


def _cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        p = _cfg(tmp_path, {"experiment": "free_packet"})
        assert main(["validate", p]) == 0
        assert "free_packet" in capsys.readouterr().out

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        p = _cfg(tmp_path, {"experiment": "free_packet",
                            "params": {"wobble": 1}})
        assert main(["validate", p]) == 2
        assert "wobble" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2


class TestRun:
    def test_run_ok(self, tmp_path, capsys):
        p = _cfg(tmp_path, {"experiment": "contextuality",
                            "params": {"fixture": "pr_box"}})
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 0
        assert (out / "summary.json").is_file()
        assert "[pass]" in capsys.readouterr().out

    def test_run_float_model_negative_within_tolerance(self, tmp_path):
        # HiGHS solves the float LP with b_ub = -1e-12 within its tolerance
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "observables": {"A": [0, 1, 2]}, "contexts": [["A"]],
            "tables": [{"context": ["A"], "probabilities": {
                "0": 0.5, "1": 0.5 + 1e-12, "2": -1e-12}}]}))
        p = _cfg(tmp_path, {"experiment": "contextuality",
                            "params": {"model_path": str(model)}})
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 0
        lp = json.loads((out / "analysis.json").read_text())["lp"]
        assert lp["contextual_fraction"]["method"] == "float"

    def test_run_numeric_abort_exit_3(self, tmp_path, capsys):
        p = _cfg(tmp_path, {"experiment": "measurement", "seed": 0,
                            "params": {"n_traj": 50, "coupling": 0.0,
                                       "kinds": ["bohmian"]}})
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 3
        assert (out / "abort.json").is_file()

    def test_run_bad_config_exit_2(self, tmp_path):
        p = _cfg(tmp_path, {"experiment": "nope"})
        assert main(["run", p, "--out", str(tmp_path / "o")]) == 2

    def test_equivariance_span_off_the_transport_step_exit_2(self, tmp_path,
                                                              capsys):
        # 205 steps end at t = 0.205, which steps of traj_dt = 0.01 miss
        p = _cfg(tmp_path, {"experiment": "equivariance", "seed": 0,
                            "params": {"n": 128, "t_final": 0.205,
                                       "n_traj": 1000, "n_seeds": 1,
                                       "bins": 10}})
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dt=0.01 does not divide the trace span 0.205" in err
        assert not (out / "summary.json").exists()

    # the ensemble has mass where the wave density has none: H = inf is
    # null in summary.json, and fails H_decreases
    @pytest.mark.parametrize("params,h_final", [
        ({"coarse_bins": 300, "uniform_halfwidth": 50.0}, None),
        ({"n": 16, "length": 2.0, "coarse_bins": 32}, float)],
        ids=["coarse_bins_300", "n_16_length_2"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_relaxation_infinite_h_is_null(self, tmp_path, params, h_final):
        p = _cfg(tmp_path, {"experiment": "relaxation", "seed": 0,
                            "params": {"t_final": 0.5, "n_traj": 500,
                                       **params}})
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 4

        def no_constant(name):
            raise ValueError(f"{name} in summary.json")

        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=no_constant)
        assert summary["H_initial"] is None
        assert (summary["H_final"] is None if h_final is None
                else math.isfinite(summary["H_final"]))
        assert summary["assertions"] == {"H_decreases": False}
        assert "inf" in (out / "h_series.csv").read_text()
        assert "nan" not in (out / "h_series.svg").read_text()

    def test_seed_override(self, tmp_path):
        p = _cfg(tmp_path, {"experiment": "relaxation", "seed": 1,
                            "params": {"n_traj": 300, "t_final": 0.5,
                                       "n": 64, "dt": 0.002}})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", p, "--out", str(out_a)]) in (0, 4)
        assert main(["run", p, "--out", str(out_b), "--seed", "2"]) in (0, 4)
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        assert ma["config"]["seed"] == 1
        assert mb["config"]["seed"] == 2
        assert ma["config_hash"] != mb["config_hash"]


class TestFixtures:
    def test_list(self, capsys):
        assert main(["fixtures", "list"]) == 0
        out = capsys.readouterr().out
        assert "pr_box" in out
        assert "singlet_chsh" in out


class TestReport:
    @staticmethod
    def _run(tmp_path):
        p = _cfg(tmp_path, {"experiment": "contextuality",
                            "params": {"fixture": "hardy"}})
        out = tmp_path / "out"
        main(["run", p, "--out", str(out)])
        return out

    def test_report_verifies(self, tmp_path, capsys):
        out = self._run(tmp_path)
        assert main(["report", str(out)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_report_detects_tamper(self, tmp_path, capsys):
        out = self._run(tmp_path)
        (out / "analysis.json").write_text("{}")
        assert main(["report", str(out)]) == 4
        assert "mismatch" in capsys.readouterr().out

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 2

    def test_report_manifest_not_json(self, tmp_path, capsys):
        out = self._run(tmp_path)
        (out / "manifest.json").write_text("{not json")
        assert main(["report", str(out)]) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["checksums", "config", "config_hash"])
    def test_report_manifest_lacks_key(self, tmp_path, capsys, key):
        out = self._run(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest[key]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(out)]) == 2
        assert key in capsys.readouterr().err

    def test_report_summary_not_json(self, tmp_path, capsys):
        out = self._run(tmp_path)
        (out / "summary.json").write_text("[1,")
        assert main(["report", str(out)]) == 4
        assert "[FAIL] summary.json" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["../outside.txt", "{outside}", "..",
                                      "sub/analysis.json", "link.txt"])
    def test_report_reads_only_run_files(self, tmp_path, capsys, monkeypatch,
                                         name):
        # each name points at a file outside the run whose digest is the
        # one recorded, so reading it would verify
        from sllab import io_formats

        out = self._run(tmp_path)
        outside = tmp_path / "outside.txt"
        outside.write_text("not part of the run")
        (out / "link.txt").symlink_to(outside)
        name = name.format(outside=outside)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["checksums"][name] = io_formats.sha256_file(outside)
        (out / "manifest.json").write_text(json.dumps(manifest))
        hashed = []
        real = io_formats.sha256_file
        monkeypatch.setattr(io_formats, "sha256_file",
                            lambda f: hashed.append(Path(f)) or real(f))
        assert main(["report", str(out)]) == 4
        assert f"[FAIL] {name}" in capsys.readouterr().out
        assert hashed and all(f.parent == out for f in hashed)


def _doc(experiment, seed=None, **params):
    doc = {"experiment": experiment, "params": params}
    if seed is not None:
        doc["seed"] = seed
    return doc


@dataclasses.dataclass(frozen=True)
class _ModelFile:
    """Stands for the path of a model file holding `content`."""

    content: object


def _model(content):
    return _doc("contextuality", model_path=_ModelFile(content))


def _write_model(tmp_path, doc):
    """Write a `_model` document's model file and put its path in place."""
    params = doc.get("params")
    if not (isinstance(params, dict)
            and isinstance(params.get("model_path"), _ModelFile)):
        return doc
    path = tmp_path / "model.json"
    path.write_text(json.dumps(params["model_path"].content))
    return {**doc, "params": {**params, "model_path": str(path)}}


_OBS = {"A": [0, 1]}
_TABLE = {"context": ["A"], "probabilities": {"0": "1/2", "1": "1/2"}}
# a cycle of 15 binary observables: 2**15 assignments, past the LP guard
_CYCLE = [[f"O{i}", f"O{(i + 1) % 15}"] for i in range(15)]
_CYCLE_MODEL = {
    "observables": {f"O{i}": [0, 1] for i in range(15)},
    "contexts": _CYCLE,
    "tables": [{"context": c, "probabilities": {"0,0": "1/2", "1,1": "1/2"}}
               for c in _CYCLE]}

# (id, document, rejected by validate too): the domain rejects the grid,
# dt-bound and lambda-list cases, and a model file's contents, only when
# the run starts
MALFORMED = [
    ("empty_kinds", _doc("measurement", 7, kinds=[]), True),
    ("zero_seeds", _doc("equivariance", 0, n_seeds=0), True),
    ("n_string", _doc("free_packet", n="512"), True),
    ("n_not_power_of_two", _doc("free_packet", n=100), False),
    # omega ** 2 overflows a Python float
    ("omega_squared_overflows", _doc("eigenstate_hold", omega=1e200), False),
    # ground states narrower than the grid spacing; at 1e308, 2 m omega
    # overflows
    ("omega_unresolved", _doc("eigenstate_hold", omega=1e100), False),
    ("omega_max_float", _doc("eigenstate_hold", omega=1e308), False),
    ("omega_unresolved_nelson",
     _doc("nelson_born", 11, omega=1e100, t_final=0.01), False),
    ("omega_max_float_nelson",
     _doc("nelson_born", 11, omega=1e308, t_final=0.01), False),
    ("n_bool", _doc("free_packet", n=True), True),
    ("dt_over_kinetic_bound", _doc("free_packet", dt=0.5), False),
    ("t_final_nan", _doc("free_packet", t_final=math.nan), True),
    ("t_final_zero", _doc("free_packet", t_final=0.0), True),
    ("seed_negative", _doc("relaxation", -1), True),
    ("seed_string", _doc("relaxation", "3"), True),
    ("weight_above_one", _doc("measurement", 7, weight_a=1.5), True),
    ("empty_lambdas", _doc("lambda_sweep", lambdas=[]), False),
    ("unknown_kind", _doc("measurement", 7, kinds=["x"]), True),
    ("zero_trajectories", _doc("nelson_born", 11, n_traj=0), True),
    ("unknown_fixture", _doc("contextuality", fixture="nope"), True),
    ("missing_model_file",
     _doc("contextuality", model_path="no/such/model.json"), True),
    ("params_not_object",
     {"experiment": "free_packet", "params": [1]}, True),
    ("model_only_contexts", _model({"contexts": []}), False),
    ("model_no_observables",
     _model({"contexts": [["A"]], "tables": [_TABLE]}), False),
    ("model_no_tables", _model({"observables": _OBS, "contexts": [["A"]]}),
     False),
    ("model_table_no_context",
     _model({"observables": _OBS, "contexts": [["A"]],
             "tables": [{"probabilities": {"0": "1"}}]}), False),
    ("model_table_no_probabilities",
     _model({"observables": _OBS, "contexts": [["A"]],
             "tables": [{"context": ["A"]}]}), False),
    ("model_not_object", _model([1, 2]), False),
    ("model_table_not_object",
     _model({"observables": _OBS, "contexts": [["A"]], "tables": ["A"]}),
     False),
    ("model_unknown_outcome",
     _model({"observables": _OBS, "contexts": [["A"]],
             "tables": [{"context": ["A"], "probabilities": {"2": "1"}}]}),
     False),
    ("model_exact_negative_probability",
     _model({"observables": {"A": [0, 1, 2]}, "contexts": [["A"]],
             "tables": [{"context": ["A"], "probabilities": {
                 "0": "1/2", "1": "500000000001/1000000000000",
                 "2": "-1/1000000000000"}}]}), False),
    ("model_probability_not_number",
     _model({"observables": _OBS, "contexts": [["A"]],
             "tables": [{"context": ["A"], "probabilities": {"0": [1]}}]}),
     False),
    ("model_past_lp_guard", _model(_CYCLE_MODEL), False),
    # chi-square tests left with one bin, so no degrees of freedom
    ("chi2_one_trajectory",
     _doc("nelson_born", 11, n_traj=1, t_final=0.1), False),
    ("chi2_one_bin_nelson",
     _doc("nelson_born", 11, n_traj=200, bins=1, t_final=0.1), False),
    ("chi2_one_bin_equivariance",
     _doc("equivariance", 0, n=128, t_final=0.1, n_traj=1000, n_seeds=1,
          bins=1), False),
]


class TestMalformedConfigs:
    # a numpy warning on the way to the config error fails the case
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("doc,in_validate",
                             [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_exit_2_without_traceback(self, tmp_path, capsys, doc,
                                      in_validate):
        p = _cfg(tmp_path, _write_model(tmp_path, doc))
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()
        assert main(["validate", p]) == (2 if in_validate else 0)

    def test_unallocatable_arrays_exit_2(self, tmp_path, capsys,
                                         monkeypatch):
        # n = 2**40 passes the grid check and numpy then refuses the 8 TiB
        # axis; the refusal is stood in for here, so nothing that large is
        # ever requested
        def refuse(grid):
            raise MemoryError("Unable to allocate 8.00 TiB for an array "
                              "with shape (1099511627776,)")

        monkeypatch.setattr(Grid, "axis_coords", property(refuse))
        p = _cfg(tmp_path, _doc("lambda_sweep", n=64))
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1
        assert "do not fit in memory: Unable to allocate 8.00 TiB" in err
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_error_in_the_sweep_child_exit_2(self, tmp_path, capsys,
                                             before_rows, cpus,
                                             assert_no_child):
        # a FieldError raised only in the forked child, which evolves the
        # sweep's odd-indexed lambdas
        def fails(lams):
            raise FieldError(f"no rows at lam {lams[0]}")

        before_rows(child=fails)
        forks = cpus(2)
        p = _cfg(tmp_path, _doc("lambda_sweep", n=64, t_final=0.01))
        out = tmp_path / "out"
        assert main(["run", p, "--out", str(out)]) == 2
        assert len(forks) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: no rows at lam 0.25"]
        assert not (out / "summary.json").exists()
        assert_no_child()


BLOCKS = {
    "free_packet": ex.FreePacketParams,
    "eigenstate_hold": ex.EigenstateHoldParams,
    "lambda_sweep": ex.LambdaSweepParams,
    "equivariance": ex.EquivarianceParams,
    "nelson_born": ex.NelsonBornParams,
    "relaxation": ex.RelaxationParams,
    "measurement": ex.MeasurementParams,
    "contextuality": ex.ContextualityParams,
}

_VALUES = st.one_of(
    st.booleans(), st.none(), st.integers(-3, 2 ** 12),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-2, 2),
                       st.text(max_size=4)), max_size=3))


def _breaks_type_rule(default, value):
    """True when `value` plainly cannot stand for a field with `default`:
    the wrong JSON type, a bool or a non-finite float for a number, a
    float for an int, or a wrongly typed list element."""
    if default is None:
        return False
    if isinstance(default, tuple):
        return not isinstance(value, list) or any(
            _breaks_type_rule(default[0], v) for v in value)
    if isinstance(default, str):
        return not isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    if isinstance(value, float):
        return isinstance(default, int) or not math.isfinite(value)
    return False


class TestFuzzedParams:
    @pytest.mark.parametrize("experiment", sorted(BLOCKS))
    @settings(max_examples=40)
    @given(data=st.data())
    def test_validate_and_run_agree(self, experiment, data):
        names = [f.name for f in dataclasses.fields(BLOCKS[experiment])]
        params = data.draw(st.dictionaries(st.sampled_from(names), _VALUES,
                                           min_size=1, max_size=3))
        doc = {"experiment": experiment, "seed": 1, "params": params}
        with tempfile.TemporaryDirectory() as tmp:
            p = _cfg(Path(tmp), doc)
            code = main(["validate", p])
            assert code in (0, 2)
            defaults = {f.name: f.default
                        for f in dataclasses.fields(BLOCKS[experiment])}
            if any(_breaks_type_rule(defaults[k], v)
                   for k, v in params.items()):
                assert code == 2
            if code == 2:
                out = Path(tmp) / "out"
                assert main(["run", p, "--out", str(out)]) == 2
                assert not (out / "summary.json").exists()
