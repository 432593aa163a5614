import json
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import run, workloads

HERE = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _models(tmp_path, seed):
    ops = workloads.generate("lp", seed, tmp_path, REFERENCE)
    return {op.name: (tmp_path / f"{op.name}-model.json").read_bytes()
            for op in ops if op.name.startswith("m")}


def test_same_seed_gives_byte_identical_model_files(tmp_path):
    first = _models(tmp_path / "a", 7)
    assert len(first) == len(workloads.CLASS_PATTERNS)
    assert _models(tmp_path / "b", 7) == first
    assert _models(tmp_path / "c", 8) != first


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_models_are_exactly_no_signalling(tmp_path, seed):
    from sllab.contextuality import check_no_signalling, load_model

    workloads.generate("lp", seed, tmp_path, REFERENCE)
    paths = sorted(tmp_path.glob("m*-model.json"))
    assert paths
    for path in paths:
        model = load_model(path)
        assert model.is_exact()
        assert check_no_signalling(model).max_violation == 0


def test_family_patterns_have_their_class_and_a_recorded_value():
    for cls, alpha, beta in workloads.lp_family(3):
        doc = workloads.parity_model(workloads.CLASS_PATTERNS[cls],
                                     workloads.V, alpha, beta)
        parity = [[None] * 3 for _ in range(3)]
        for table in doc["tables"]:
            i, j = (int(name[1]) for name in table["context"])
            parity[i][j] = int(Fraction(table["probabilities"]["0,1"])
                               > Fraction(table["probabilities"]["0,0"]))
        assert workloads.frustration(parity) == cls
        assert str(cls) in REFERENCE["lp"]["family"]


def test_relabelled_model_solves_like_its_class_pattern():
    from sllab.contextuality import contextual_fraction, model_from_dict

    pattern, v = workloads.CLASS_PATTERNS[2], Fraction(29, 40)
    plain = contextual_fraction(model_from_dict(
        workloads.parity_model(pattern, v)))
    relabelled = contextual_fraction(model_from_dict(
        workloads.parity_model(pattern, v, (1, 0, 1), (0, 1, 1))))
    assert relabelled.fraction == plain.fraction
    assert ([w for _, w in relabelled.subnormalized_weights]
            == [w for _, w in plain.subnormalized_weights])


def test_recorded_fractions_match_the_closed_form():
    for cls, entry in REFERENCE["lp"]["family"].items():
        assert entry["exact"]
        assert Fraction(entry["contextual_fraction"]) == \
            workloads.closed_form_fraction(int(cls), workloads.V)
        assert entry["decomposition_feasible"] == (cls == "0")


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_speed_sampler_probes_while_started_and_restores_sigalrm():
    import signal
    import time

    sampler = run.SpeedSampler(run.make_numpy_probe(), 2e-4)
    assert sampler.factor() > 0 and sampler.samples == 1   # probes once
    sampler.reset()
    sampler.start()
    try:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    finally:
        sampler.stop()
    assert sampler.samples >= 3
    assert 0 < sampler.probe_s < 0.2
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
