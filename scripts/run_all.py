#!/usr/bin/env python3
"""Run every config in configs/ and print a pass/fail table.

Usage: python scripts/run_all.py [--out-root runs] [--skip NAME ...]
At their default sizes, each run alone through `sllab run` (interpreter
start and imports included) took, on a 2-core host during a slow spell
(three rounds, BENCH_b327cff.json): nelson_born 23-26 s, equivariance
4.5-5 s, relaxation and lambda_sweep 3-4 s, measurement 1.5-2 s, the
two contextuality configs about 1 s, and free_packet and eigenstate_hold
about 0.4 s.  The start-up in each is about 0.2 s of numpy; scipy, which
only the 2-D fields, chi-square p-values and LPs load, adds 0.3-0.7 s
where it is used.  This script pays both once.
"""

import argparse
import sys
import time
from pathlib import Path

from sllab.experiments import (ConfigError, NumericalAbort, load_config,
                               run_experiment)

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-root", type=Path, default=ROOT / "runs")
    ap.add_argument("--skip", nargs="*", default=[])
    args = ap.parse_args()

    results = []
    for cfg_path in sorted((ROOT / "configs").glob("*.json")):
        if cfg_path.stem in args.skip:
            continue
        t0 = time.time()
        error = ""
        try:
            cfg = load_config(cfg_path)
            if cfg.experiment in args.skip:
                continue
            ok = run_experiment(cfg, args.out_root / cfg_path.stem)["passed"]
        except ConfigError as exc:
            ok, error = False, f"  config error: {exc}"
        except NumericalAbort as exc:
            ok, error = False, f"  numerical abort: {exc}"
        results.append((cfg_path.stem, ok, time.time() - t0))
        print(f"{cfg_path.stem:28s} {'pass' if ok else 'FAIL':4s} "
              f"{results[-1][2]:7.1f}s{error}")

    failed = [name for name, ok, _ in results if not ok]
    print(f"\n{len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
