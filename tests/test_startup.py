"""The package and the 1-D wave experiments run on numpy alone: scipy is
imported only by the code that uses it (the 2-D node fill, chi-square
p-values, the LP).  numpy.fft, which numpy >= 2 imports on first use, is
imported with the package.  The phase unwrap is numpy in every dimension,
so exporting a 2-D field with nodes loads scipy.ndimage but no
scipy.sparse."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import sllab, sllab.cli, sllab.experiments, sllab.contextuality
from sllab.cli import main
from sllab.experiments import ExperimentConfig, run_experiment

fft_at_import = "numpy.fft" in sys.modules
docs = json.loads(sys.argv[1])
out = sys.argv[2]
cfg_path = out + "/validate.json"
with open(cfg_path, "w") as f:
    json.dump(docs[0], f)
assert main(["validate", cfg_path]) == 0
for i, doc in enumerate(docs):
    summary = run_experiment(ExperimentConfig.from_dict(doc), f"{out}/{i}")
    assert summary["passed"], doc["experiment"]
scipy_1d = sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))
from sllab.grid_field import gaussian_packet, make_grid, polar_decompose
from sllab.io_formats import write_field_csv
psi = gaussian_packet(make_grid(2, 10.0, 16), rho_width=0.5)
assert polar_decompose(psi).node_mask.any()
write_field_csv(psi, out + "/field_2d.csv")
print(json.dumps({"fft_at_import": fft_at_import, "scipy": scipy_1d,
                  "ndimage_2d": "scipy.ndimage" in sys.modules,
                  "sparse_2d": sorted(m for m in sys.modules
                                      if m.startswith("scipy.sparse"))}))
"""

DOCS = [
    {"experiment": "free_packet",
     "params": {"n": 128, "length": 40.0, "dt": 0.001, "t_final": 0.2}},
    {"experiment": "eigenstate_hold",
     "params": {"n": 128, "length": 40.0, "dt": 0.001, "steps": 100,
                "omega": 1.0}},
    {"experiment": "lambda_sweep",
     "params": {"n": 128, "length": 40.0, "dt": 0.001, "t_final": 0.1,
                "separation": 8.0, "lambdas": [0.0, 0.5, 1.0]}},
]


def test_no_scipy_for_1d_wave_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(DOCS), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "fft_at_import": True, "scipy": [], "ndimage_2d": True,
        "sparse_2d": []}


def test_exports_resolve():
    # a stale name in __all__ breaks only `import *`; one in an import
    # list of __init__.py breaks the package import itself
    import sllab
    import sllab.contextuality as ctx

    missing = [n for n in ctx.__all__ if not hasattr(ctx, n)]
    tree = ast.parse((SRC / "sllab" / "__init__.py").read_text())
    imported = [a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported
    missing += [n for n in imported if not hasattr(sllab, n)]
    assert missing == []
