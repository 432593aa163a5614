"""Command-line entry point.

Verbs:
    sllab run <config.json>       execute an experiment, write artifacts
    sllab validate <config.json>  schema-check a config without running
    sllab fixtures list           list bundled empirical-model fixtures
    sllab report <dir>            summarize a finished run, verify checksums

Exit codes: 0 success, 2 configuration error, 3 numerical abort,
4 assertion failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ASSERT = 4


def _build_parser():
    ap = argparse.ArgumentParser(prog="sllab",
                                 description="stochastic-mechanics lab")
    sub = ap.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config", type=Path)
    run.add_argument("--out", type=Path, default=None,
                     help="output directory (default: runs/<experiment>)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--strict", action="store_true",
                     help="also fail (exit 4) on recorded per-case aborts")

    val = sub.add_parser("validate", help="schema-check a config")
    val.add_argument("config", type=Path)

    fix = sub.add_parser("fixtures", help="bundled empirical models")
    fix.add_argument("action", choices=["list"])

    rep = sub.add_parser("report", help="summarize a finished run directory")
    rep.add_argument("rundir", type=Path)
    return ap


def _load(args):
    """The config at `args.config` with `--seed` applied (checked, too)."""
    import dataclasses

    from .experiments import load_config

    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_run(args) -> int:
    from .experiments import NumericalAbort, run_experiment

    cfg = _load(args)
    out = args.out or Path("runs") / cfg.experiment
    try:
        summary = run_experiment(cfg, out)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        print(f"diagnostics written to {out}/abort.json", file=sys.stderr)
        return EXIT_NUMERIC

    for name, ok in summary.get("assertions", {}).items():
        print(f"  [{'pass' if ok else 'FAIL'}] {name}")
    print(f"artifacts in {out}")

    if not summary["passed"]:
        print("assertion failure", file=sys.stderr)
        return EXIT_ASSERT
    if args.strict and summary.get("aborted"):
        print(f"strict mode: aborted cases {summary['aborted']}",
              file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load(args)
    print(f"ok: experiment={cfg.experiment} seed={cfg.seed} "
          f"hash={cfg.config_hash()[:12]}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from .contextuality import load_model
    from .fixtures import FIXTURE_NAMES, fixture_path

    for name in FIXTURE_NAMES:
        model = load_model(fixture_path(name))
        print(f"{name:22s} observables={len(model.scenario.observables):2d} "
              f"contexts={len(model.scenario.contexts)}")
    return EXIT_OK


def _cmd_report(args) -> int:
    import json

    from .io_formats import sha256_file

    rundir = args.rundir
    manifest_path = rundir / "manifest.json"
    summary_path = rundir / "summary.json"
    if not manifest_path.is_file():
        print(f"no manifest.json in {rundir}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest = json.loads(manifest_path.read_text())
        experiment = manifest["config"]["experiment"]
        config_hash = str(manifest["config_hash"])
        checksums = manifest["checksums"]
        if not isinstance(checksums, dict):
            raise TypeError("checksums is not an object")
    except (ValueError, LookupError, TypeError) as exc:
        print(f"bad manifest.json in {rundir}: {exc!r}", file=sys.stderr)
        return EXIT_CONFIG

    bad = []
    for name, digest in checksums.items():
        # only a plain file of the run directory is read
        f = rundir / name
        if name in ("", "..") or Path(name).name != name or f.is_symlink():
            bad.append((name, "not a file name in the run directory"))
        elif not f.is_file():
            bad.append((name, "missing"))
        elif sha256_file(f) != digest:
            bad.append((name, "checksum mismatch"))
    print(f"run: {experiment} (config {config_hash[:12]})")
    print(f"files: {len(checksums)}, verified: {len(checksums) - len(bad)}")
    for name, why in bad:
        print(f"  [FAIL] {name}: {why}")

    if summary_path.is_file():
        try:
            summary = json.loads(summary_path.read_text())
            assertions = dict(summary.get("assertions", {}))
        except (ValueError, TypeError, AttributeError) as exc:
            print(f"  [FAIL] summary.json: unreadable ({exc!r})")
            return EXIT_ASSERT
        for name, ok in assertions.items():
            print(f"  [{'pass' if ok else 'FAIL'}] {name}")
        if not summary.get("passed", False):
            return EXIT_ASSERT
    return EXIT_ASSERT if bad else EXIT_OK


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    from .experiments import ConfigError

    handler = {"run": _cmd_run, "validate": _cmd_validate,
               "fixtures": _cmd_fixtures, "report": _cmd_report}[args.verb]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
