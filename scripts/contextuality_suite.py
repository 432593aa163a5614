#!/usr/bin/env python3
"""Analyze every bundled empirical model: no-signalling audit, global
sections, contextual fraction, decomposition/certificate, CHSH value,
and the size and exactness method of the one LP that gives the last
three.  Each model is run as the `contextuality` experiment, whose run
files go to a temporary directory; the text is printed from its summary.
"""

import sys
import tempfile
from pathlib import Path

from sllab.experiments import ExperimentConfig, run_experiment
from sllab.fixtures import FIXTURE_NAMES


def _lp(lp):
    """LP size and how its answer was made exact."""
    return f"LP {lp['rows']}x{lp['cols']}, {lp['method']}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIXTURE_NAMES:
            cfg = ExperimentConfig(experiment="contextuality",
                                   params={"fixture": name})
            s = run_experiment(cfg, Path(tmp) / name)
            chsh = "n/a" if s["chsh"] is None else f"{s['chsh']:.4f}"
            print(f"{name}:")
            print("  no-signalling max violation: "
                  f"{s['no_signalling_max_violation']:.2e}")
            print(f"  global sections: {s['global_sections']}")
            print(f"  {_lp(s['lp']['contextual_fraction'])}")
            print(f"  contextual fraction: {s['contextual_fraction']:.6f} "
                  f"(dual gap {s['lp_dual_gap']:.1e})")
            if s["decomposition_feasible"]:
                print("  noncontextual decomposition: feasible")
            else:
                print(f"  certificate: value {s['certificate_value']:.4f} > "
                      "classical bound "
                      f"{s['certificate_classical_bound']:.4f}")
            print(f"  CHSH: {chsh}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
