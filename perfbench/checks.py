"""Correctness checks on one operation's outputs.

Every check returns a list of problems (empty when the outputs are
correct).  Numbers recorded at the benchmark's defining commit live in
``reference.json``; a deterministic number matches when
``|got - ref| <= RTOL * |ref| + ATOL``.  Errors and drifts at the
rounding level (ROUNDING_KEYS) move with the order of float operations,
so they match when ``|got| <= ROUNDING_SCALE * |ref| + ROUNDING_FLOOR``:
a kernel that reorders the arithmetic passes, one that loses accuracy
fails.  Branch frequencies are sampled,
so they match within FREQ_SIGMAS binomial standard deviations of the
recorded frequency, which keeps an unchanged sampler exact and a
re-implemented one (ROADMAP item 3) inside the statistical noise.
Contextual fractions of exact models must equal the recorded
``Fraction`` exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12
ROUNDING_KEYS = ("energy_drift", "rel_err")
ROUNDING_SCALE = 10.0
ROUNDING_FLOOR = 1e-12
FREQ_SIGMAS = 5.0


def _compare(problems, label, got, ref):
    if got is None or abs(got - ref) > RTOL * abs(ref) + ATOL:
        problems.append(f"{label}: {got!r} differs from recorded {ref!r}")


def _compare_rounding(problems, label, got, ref):
    if got is None or abs(got) > ROUNDING_SCALE * abs(ref) + ROUNDING_FLOOR:
        problems.append(f"{label}: {got!r} exceeds {ROUNDING_SCALE:g} times "
                        f"the recorded {ref!r}")


def check_manifest(out: Path) -> tuple:
    """Check that summary.json has ``passed`` true and that every manifest
    checksum re-hashes equal; returns (problems, checksums, summary)."""
    from sllab.io_formats import sha256_file

    problems = []
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("passed") is not True:
        failed = [k for k, ok in summary.get("assertions", {}).items()
                  if not ok]
        problems.append(f"summary passed is not true (failed: {failed})")
    checksums = json.loads((out / "manifest.json").read_text())["checksums"]
    for name, digest in checksums.items():
        if sha256_file(out / name) != digest:
            problems.append(f"checksum mismatch for {name}")
    return problems, checksums, summary


def check_summary(experiment: str, summary: dict, expect: dict) -> list:
    """Compare a summary's recorded numbers (wave, pointer, lp)."""
    problems = []
    if experiment == "lambda_sweep":
        if summary["aborted"] != expect["aborted"]:
            problems.append(f"aborted {summary['aborted']} != "
                            f"{expect['aborted']}")
        for lam, ref in expect["visibility"].items():
            _compare(problems, f"visibility[{lam}]",
                     summary["visibility"].get(lam), ref)
    elif experiment in ("eigenstate_hold", "free_packet"):
        for key, ref in expect.items():
            compare = (_compare_rounding if key in ROUNDING_KEYS
                       else _compare)
            compare(problems, key, summary.get(key), ref)
    elif experiment == "measurement":
        for kind, ref in expect.items():
            rep = summary["reports"][kind]
            for key in ("overlap", "branch_norm_drift"):
                _compare(problems, f"{kind}.{key}", rep[key], ref[key])
            for i, c in enumerate(ref["branch_centers"]):
                _compare(problems, f"{kind}.branch_centers[{i}]",
                         rep["branch_centers"][i], c)
            n = sum(rep["counts"])
            for i, f in enumerate(ref["frequencies"]):
                tol = FREQ_SIGMAS * math.sqrt(f * (1 - f) / n)
                if abs(rep["frequencies"][i] - f) > tol:
                    problems.append(f"{kind}.frequencies[{i}] "
                                    f"{rep['frequencies'][i]} outside "
                                    f"{f} +/- {tol:.4f}")
    elif experiment == "contextuality":
        ref = expect["contextual_fraction"]
        got = summary["contextual_fraction"]
        if expect["exact"]:
            if got != float(Fraction(ref)):
                problems.append(f"contextual fraction {got!r} != exact "
                                f"recorded {ref}")
        else:
            _compare(problems, "contextual_fraction", got, float(ref))
        for key in ("classification", "decomposition_feasible"):
            if summary[key] != expect[key]:
                problems.append(f"{key} {summary[key]!r} != {expect[key]!r}")
    return problems


def check_export(out: Path, expect: dict, params: dict) -> list:
    from sllab.experiments import MeasurementParams

    from .workloads import field_aggregates

    p = MeasurementParams(**params)
    got = field_aggregates(out / "pointer_field.csv", p.n, p.length)
    problems = []
    if got["rows"] != expect["rows"]:
        problems.append(f"rows {got['rows']} != {expect['rows']}")
    for key in ("norm", "mean_y", "mean_q"):
        _compare(problems, key, got[key], expect[key])
    if got["phase_residual"] > 1e-9:
        problems.append("R exp(iS) does not reproduce psi: residual "
                        f"{got['phase_residual']:.3g}")
    return problems
