#!/usr/bin/env python3
"""Run every config in configs/ and print a pass/fail table.

Usage: python scripts/run_all.py [--out-root runs] [--skip NAME ...]
At their default sizes on a 2-core host, each run alone through `sllab run`
(interpreter start and imports included), nelson_born takes 12-14 s,
equivariance and lambda_sweep about 3 s each, relaxation about 2.5 s,
measurement about 1.5 s and every other config about 1 s, most of which
is the import of numpy and scipy that this script pays only once.
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
