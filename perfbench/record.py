"""Regenerate ``reference.json``: the program's outputs that run.py checks.

    python3 perfbench/record.py

Run it only at a commit whose outputs are known to be right (it was run
at the commit that defined this benchmark); a later change that moves a
recorded number must explain why, not re-record.  The lp table is also
cross-checked against the closed form in ``workloads.closed_form_fraction``.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from sllab.contextuality import contextual_fraction, load_model  # noqa: E402
from sllab.experiments import (ExperimentConfig,  # noqa: E402
                               MeasurementParams, run_experiment)
from sllab.fixtures import fixture_path  # noqa: E402

from perfbench import workloads  # noqa: E402

SUMMARY_KEYS = {"eigenstate_hold": ("density_drift", "energy_drift",
                                    "energy0"),
                "free_packet": ("width_final", "rel_err")}


def run(doc, out):
    summary = run_experiment(ExperimentConfig.from_dict(doc), out)
    if not summary["passed"]:
        raise SystemExit(f"{doc['experiment']} did not pass; not recording")
    return summary


def lp_entry(summary, exact_fraction):
    if exact_fraction is not None:
        if float(exact_fraction) != summary["contextual_fraction"]:
            raise SystemExit("summary fraction disagrees with the exact one")
        fraction, exact = str(exact_fraction), True
    else:
        fraction, exact = repr(summary["contextual_fraction"]), False
    return {"contextual_fraction": fraction, "exact": exact,
            "classification": summary["classification"],
            "decomposition_feasible": summary["decomposition_feasible"]}


def main():
    ref = {"wave": {}, "pointer": {}, "lp": {"family": {}, "fixtures": {}}}
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    try:
        for doc in workloads.FIXED_DOCS["wave"]:
            name = doc["experiment"]
            s = run(doc, tmp / name)
            if name == "lambda_sweep":
                ref["wave"][name] = {"visibility": s["visibility"],
                                     "aborted": s["aborted"]}
            else:
                ref["wave"][name] = {k: s[k] for k in SUMMARY_KEYS[name]}

        s = run(workloads.MEASUREMENT_DOC, tmp / "measurement")
        ref["pointer"]["measurement"] = {
            kind: {k: rep[k] for k in ("overlap", "branch_norm_drift",
                                       "branch_centers", "frequencies")}
            for kind, rep in s["reports"].items()}
        cfg = ExperimentConfig.from_dict(workloads.MEASUREMENT_DOC)
        workloads.pointer_export(cfg, tmp / "export")
        p = MeasurementParams(**cfg.params)
        agg = workloads.field_aggregates(tmp / "export" / "pointer_field.csv",
                                         p.n, p.length)
        ref["pointer"]["export"] = {k: agg[k] for k in ("rows", "norm",
                                                        "mean_y", "mean_q")}

        v = workloads.V
        for cls, pattern in workloads.CLASS_PATTERNS.items():
            path = tmp / f"class{cls}.json"
            path.write_text(json.dumps(workloads.parity_model(pattern, v)))
            s = run({"experiment": "contextuality",
                     "params": {"model_path": str(path)}}, tmp / "lp")
            exact = contextual_fraction(load_model(path)).fraction
            if exact != workloads.closed_form_fraction(cls, v):
                raise SystemExit(f"class {cls}: fraction {exact} "
                                 "disagrees with the closed form")
            ref["lp"]["family"][str(cls)] = lp_entry(s, exact)
        for name in workloads.FIXTURES:
            s = run({"experiment": "contextuality",
                     "params": {"fixture": name}}, tmp / "lp")
            model = load_model(fixture_path(name))
            exact = (contextual_fraction(model).fraction
                     if model.is_exact() else None)
            ref["lp"]["fixtures"][name] = lp_entry(s, exact)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
