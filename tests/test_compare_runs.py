import importlib.util
import json
import shutil
from pathlib import Path

from sllab.experiments import load_config, run_experiment

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_runs", ROOT / "scripts" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _run_free_packet(root):
    cfg = load_config(ROOT / "configs" / "free_packet.json")
    run_experiment(cfg, root / "free_packet")
    return root


def test_two_runs_compare_identical(tmp_path, capsys):
    a = _run_free_packet(tmp_path / "a")
    b = _run_free_packet(tmp_path / "b")
    # the manifests differ in their run time stamps only
    manifest = json.loads((b / "free_packet" / "manifest.json").read_text())
    manifest["created_unix"] += 1
    manifest["elapsed_seconds"] += 1.0
    (b / "free_packet" / "manifest.json").write_text(json.dumps(manifest))
    assert compare_runs.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "identical  free_packet/final.csv" in out
    assert "identical  free_packet/manifest.json" in out
    assert "6 files: 6 identical, 0 differ, 0 missing" in out


def test_perturbed_numbers_reported_with_key_and_size(tmp_path, capsys):
    a = _run_free_packet(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    run = b / "free_packet"
    summary = json.loads((run / "summary.json").read_text())
    summary["width_final"] *= 1.0 + 2.0 ** -20
    (run / "summary.json").write_text(json.dumps(summary))
    lines = (run / "width.csv").read_bytes().split(b"\r\n")
    t, width = lines[3].split(b",")
    lines[3] = t + b"," + repr(float(width) + 0.5).encode()
    (run / "width.csv").write_bytes(b"\r\n".join(lines))
    (run / "final.slf1").unlink()
    assert compare_runs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "differs    free_packet/summary.json\n    width_final: " \
           "max abs " in out
    assert "max rel 9.54e-07" in out
    assert "differs    free_packet/width.csv\n    width: max abs 0.5, " in out
    assert "missing    free_packet/final.slf1 (only in A)" in out
    assert "6 files: 3 identical, 2 differ, 1 missing" in out
