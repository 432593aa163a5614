import dataclasses
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sllab import contextuality, experiments, measurement
from sllab.contextuality import (
    analysis,
    contextual_fraction,
    load_model,
    simplex,
)
from sllab.experiments import (
    ConfigError,
    ExperimentConfig,
    NumericalAbort,
    load_config,
    run_experiment,
)
from sllab.fixtures import FIXTURE_NAMES, fixture_path
from sllab.io_formats import sha256_file
from test_lp_certificate import _parity_model


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestConfigSchema:
    def test_unknown_top_level_key(self, tmp_path):
        p = _write(tmp_path, {"experiment": "free_packet", "extra": 1})
        with pytest.raises(ConfigError, match="extra"):
            load_config(p)

    def test_unknown_param_named(self, tmp_path):
        p = _write(tmp_path, {"experiment": "free_packet",
                              "params": {"wobble": 3}})
        with pytest.raises(ConfigError, match="wobble"):
            load_config(p)

    def test_unknown_experiment(self, tmp_path):
        p = _write(tmp_path, {"experiment": "warp_drive"})
        with pytest.raises(ConfigError, match="warp_drive"):
            load_config(p)

    def test_missing_experiment_key(self, tmp_path):
        p = _write(tmp_path, {"params": {}})
        with pytest.raises(ConfigError, match="experiment"):
            load_config(p)

    def test_stochastic_requires_seed(self, tmp_path):
        p = _write(tmp_path, {"experiment": "nelson_born"})
        with pytest.raises(ConfigError, match="seed"):
            load_config(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

    def test_replace_is_checked(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "relaxation", "seed": 5})
        with pytest.raises(ConfigError, match="seed"):
            dataclasses.replace(cfg, seed=-1)

    def test_config_hash_stable(self):
        a = ExperimentConfig.from_dict(
            {"experiment": "free_packet", "params": {"n": 64}})
        b = ExperimentConfig.from_dict(
            {"params": {"n": 64}, "experiment": "free_packet"})
        assert a.config_hash() == b.config_hash()


class TestRuns:
    def test_free_packet_small(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "free_packet",
            "params": {"n": 256, "length": 40.0, "t_final": 1.0}})
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary["passed"]
        for name in ("summary.json", "manifest.json", "width.csv",
                     "final.slf1", "width.svg"):
            assert (tmp_path / "out" / name).is_file()

    @pytest.mark.parametrize("experiment,params,t_last", [
        ("free_packet", {"t_final": 2.01}, 2.01),
        ("eigenstate_hold", {"n": 256, "steps": 1010}, 1.01)])
    def test_last_step_is_recorded(self, tmp_path, experiment, params,
                                   t_last):
        # neither step count is a multiple of the snapshot stride; the
        # free packet's width gate reads its last width row
        cfg = ExperimentConfig.from_dict({"experiment": experiment,
                                          "params": params})
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary["passed"]
        series = "width.csv" if experiment == "free_packet" \
            else "diagnostics.csv"
        last = (tmp_path / "out" / series).read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(t_last, rel=1e-12)

    def test_manifest_checksums_verify(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "contextuality", "params": {"fixture": "hardy"}})
        run_experiment(cfg, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for name, digest in manifest["checksums"].items():
            assert sha256_file(tmp_path / "out" / name) == digest

    def test_rerun_byte_identical(self, tmp_path):
        doc = {"experiment": "eigenstate_hold",
               "params": {"n": 256, "steps": 100}}
        cfg = ExperimentConfig.from_dict(doc)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        for name in manifest["checksums"]:
            assert sha256_file(tmp_path / "a" / name) == \
                sha256_file(tmp_path / "b" / name), name

    def test_contextuality_reports_its_lps(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "contextuality", "params": {"fixture": "pr_box"}})
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("analysis.json", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
        lp = json.loads((tmp_path / "a" / "analysis.json").read_text())["lp"]
        assert lp == {
            "contextual_fraction": {"rows": 16, "cols": 16,
                                    "status": "optimal",
                                    "method": "certificate"}}

    def test_contextuality_solves_one_lp(self, tmp_path, monkeypatch):
        calls = []
        original = simplex.solve_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(simplex, "solve_lp", counted)
        monkeypatch.setattr(analysis, "solve_lp", counted)
        for fixture in ("hardy", "classical_correlated"):
            calls.clear()
            cfg = ExperimentConfig.from_dict({
                "experiment": "contextuality",
                "params": {"fixture": fixture}})
            run_experiment(cfg, tmp_path / fixture)
            assert len(calls) == 1, fixture

    def test_chsh_null_only_for_non_chsh_scenarios(self, tmp_path,
                                                    monkeypatch):
        cfg = ExperimentConfig.from_dict({
            "experiment": "contextuality",
            "params": {"fixture": "ks_odd_cycle"}})
        assert run_experiment(cfg, tmp_path / "ks")["chsh"] is None

        def broken(model):
            raise RuntimeError("not a shape error")

        monkeypatch.setattr(contextuality, "chsh_value", broken)
        cfg = ExperimentConfig.from_dict({
            "experiment": "contextuality", "params": {"fixture": "pr_box"}})
        with pytest.raises(RuntimeError, match="not a shape error"):
            run_experiment(cfg, tmp_path / "pr")

    def test_decomposition_agrees_with_fraction(self):
        models = {name: load_model(fixture_path(name))
                  for name in FIXTURE_NAMES}
        frustrated = [[0] * 4 for _ in range(4)]
        frustrated[3][3] = 1
        models["frustrated"] = _parity_model(frustrated, Fraction(4, 5))
        models["local"] = _parity_model([[0] * 4 for _ in range(4)],
                                        Fraction(4, 5))
        for name, model in models.items():
            cf = contextual_fraction(model)
            dec = cf.decomposition
            assert dec.feasible == (cf.fraction == 0), name
            if not dec.feasible:
                assert dec.certificate.value > \
                    dec.certificate.classical_bound, name
                continue
            for ctx in model.scenario.contexts:
                for outcome in model.scenario.outcomes_of(ctx):
                    mass = sum(w for g, w in dec.weights
                               if tuple(g[o] for o in ctx) == outcome)
                    assert mass == model.prob(ctx, outcome), (name, ctx)

    def test_nelson_born_memory_flat_in_steps(self, tmp_path):
        # 10^4 steps of 500 paths: a full record of the diffusion run and
        # its control holds 2 * 500 * 10001 * 8 B = 80 MB
        cfg = ExperimentConfig.from_dict({
            "experiment": "nelson_born", "seed": 11,
            "params": {"n_traj": 500, "t_final": 10.0, "bins": 20}})
        full_record = 2 * 500 * 10001 * 8
        tracemalloc.start()
        try:
            run_experiment(cfg, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * full_record
        assert len((tmp_path / "out" / "paths_sample.csv").read_text()
                   .splitlines()) == 1 + 500 * 101

    def test_one_failed_seed_fails_equivariance(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            experiments, "equivariance_test",
            lambda *a, **k: SimpleNamespace(chi2=99.0, dof=9, p_value=0.0))
        cfg = ExperimentConfig.from_dict({
            "experiment": "equivariance", "seed": 0,
            "params": {"n": 128, "t_final": 0.1, "n_traj": 200,
                       "n_seeds": 1, "bins": 10}})
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary["passes"] == 0
        assert summary["assertions"]["at_least_18_of_20"] is False

    def test_numerical_abort_writes_diagnostic(self, tmp_path):
        # no coupling: pointer never splits, the run must abort cleanly
        cfg = ExperimentConfig.from_dict({
            "experiment": "measurement", "seed": 0,
            "params": {"n_traj": 50, "coupling": 0.0, "kinds": ["bohmian"]}})
        with pytest.raises(NumericalAbort):
            run_experiment(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "abort.json").is_file()

    def test_measurement_evolves_pointer_once(self, tmp_path, monkeypatch):
        calls = []
        original = measurement.evolve_pointer

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(measurement, "evolve_pointer", counted)
        monkeypatch.setattr(experiments, "evolve_pointer", counted,
                            raising=False)
        cfg = ExperimentConfig.from_dict({
            "experiment": "measurement", "seed": 7,
            "params": {"n_traj": 300, "kinds": ["bohmian", "nelson"]}})
        summary = run_experiment(cfg, tmp_path / "out")
        assert set(summary["reports"]) == {"bohmian", "nelson"}
        assert len(calls) == 1
