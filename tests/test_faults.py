"""The lambda < 1 kick keeps its arrays from one step to the next, so a
longer lambda sweep costs no more minor page faults than a shorter one.

A kick that makes its stack-sized temporaries anew every step frees them
at the top of the C heap, which gives them back to the system, and the
next step faults them in again.  On a 2-core x86-64 host, with the
shipped sweep's grid and lambdas, 300 and 1000 steps through
`run_experiment` after a warm-up run faulted about 400 pages each with
kept arrays, and about 12,000 and 40,000 with such a kick: a growth of
about 0 (within +-10) against about 28,000.  The bound lies more than
10x above the first and more than 10x below the second.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

GROWTH_BOUND = 2000

SCRIPT = """
import json, resource, sys
from sllab.experiments import ExperimentConfig, run_experiment

out = sys.argv[1]


def faults(t_final, name):
    cfg = ExperimentConfig.from_dict({
        "experiment": "lambda_sweep",
        "params": {"n": 512, "length": 40.0, "dt": 0.001,
                   "t_final": t_final, "separation": 8.0,
                   "lambdas": [0.0, 0.25, 0.5, 0.75, 1.0]}})
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_experiment(cfg, f"{out}/{name}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


faults(0.3, "warm")
print(json.dumps({"short": faults(0.3, "short"), "long": faults(1.0, "long")}))
"""


def test_sweep_faults_do_not_grow_with_steps(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert faults["long"] - faults["short"] < GROWTH_BOUND, faults
