#!/usr/bin/env python3
"""Run perfbench in alternating pairs on two revisions and summarize them.

Usage:
    python scripts/bench_pairs.py PARENT_REV [CHANGE_REV] --workload W
        [--workload W2 ...] --pairs N --seconds S [--seed-base K]
        [--out FILE]

Each revision (CHANGE_REV defaults to HEAD) is exported with
`git archive` into its own temporary directory, so only committed files
are measured.  For each workload, pair i runs
`python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0`
once from each export, one run at a time, the parent first on even pairs
and the change first on odd ones.  Before each pair it times two forked
copies of a fixed loop against one (`fork_ratio`): about 1 when the host
runs forked work side by side, about 2 when the copies share one CPU, as
forked work often does on a 2-vCPU host.

The summary of a workload is the block the BENCH_<tag>.json files carry
under "claim_runs": the number of pairs, which side ran first and the
fork ratio before each pair, whether every run was correct and how many
operations failed or were attempted per side, and for every end-to-end
metric each side's median, q1-q3 (linear-interpolation quartiles,
numpy's default), how many pairs read lower and higher on the change,
the ratio of the medians and every run.
It is printed per workload as it completes, and all of it is written as
JSON to --out when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
FORK_LOOP = 3_000_000  # the loop each forked copy sums over


def _quartiles(values: list) -> tuple:
    """(q1, median, q3) by linear interpolation, as numpy.percentile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def fork_ratio(n: int = FORK_LOOP) -> float:
    """Wall time of two forked copies of sum(range(n)), started together,
    over that of one copy."""
    def wall(copies: int) -> float:
        start = time.perf_counter()
        pids = []
        for _ in range(copies):
            pid = os.fork()
            if pid == 0:  # nothing may return past os._exit
                try:
                    sum(range(n))
                finally:
                    os._exit(0)
            pids.append(pid)
        for pid in pids:
            os.waitpid(pid, 0)
        return time.perf_counter() - start

    return wall(2) / wall(1)


def summarize(parent: list, change: list, first: list,
              fork_ratios: list) -> dict:
    """The claim_runs block of one workload from the perfbench result
    dicts of each side, pair by pair, the side that ran first and the
    `fork_ratio` measured before the pair."""
    block = {"pairs": len(parent), "first_side": first,
             "fork_ratio": [round(r, 3) for r in fork_ratios],
             "all_correct": all(r["correct"] for r in parent + change),
             "failed": {"parent": sum(r["failed"] for r in parent),
                        "change": sum(r["failed"] for r in change)},
             "attempted": {"parent": sum(r["attempted"] for r in parent),
                           "change": sum(r["attempted"] for r in change)}}
    for name in METRICS:
        p = [round(r["metrics"][name]["value"], 4) for r in parent]
        c = [round(r["metrics"][name]["value"], 4) for r in change]
        pq, cq = _quartiles(p), _quartiles(c)
        lower = sum(b < a for a, b in zip(p, c))
        block[name] = {
            "parent_median": round(pq[1], 4),
            "parent_q1_q3": [round(pq[0], 4), round(pq[2], 4)],
            "change_median": round(cq[1], 4),
            "change_q1_q3": [round(cq[0], 4), round(cq[2], 4)],
            "change_lower_pairs": lower,
            "change_higher_pairs": sum(b > a for a, b in zip(p, c)),
            "ratio": round(cq[1] / pq[1], 4) if pq[1] else None,
            "summary": f"{pq[1]:.4g} -> {cq[1]:.4g}, lower in {lower} of "
                       f"{len(p)}",
            "parent_runs": p, "change_runs": c}
    return block


def _export(rev: str, into: Path) -> str:
    """Unpack `rev` into `into`; return its short hash."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    archive = into / "export.tar"
    subprocess.run(["git", "archive", "-o", str(archive), sha], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return sha


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench {workload} seed {seed} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_rev")
    ap.add_argument("change_rev", nargs="?", default="HEAD")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {side: Path(tmp) / side for side in ("parent", "change")}
        revs = {}
        for side, rev in (("parent", args.parent_rev),
                          ("change", args.change_rev)):
            roots[side].mkdir()
            revs[side] = _export(rev, roots[side])
        doc = {"parent": revs["parent"], "change": revs["change"],
               "command": f"python3 perfbench/run.py --workload W --seed "
                          f"{args.seed_base}+i --seconds {args.seconds:g} "
                          f"--trace 0 from a git archive export of each "
                          f"side, pairs alternating, parent first on even "
                          f"pairs",
               "claim_runs": {}}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            first, ratios = [], []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                first.append(order[0])
                ratios.append(fork_ratio())
                for side in order:
                    runs[side].append(_run(roots[side], workload,
                                           args.seed_base + i, args.seconds))
            block = summarize(runs["parent"], runs["change"], first, ratios)
            doc["claim_runs"][workload] = block
            print(workload, {name: block[name]["summary"]
                             for name in METRICS},
                  f"correct {block['all_correct']}, failed "
                  f"{block['failed']}, fork ratios {block['fork_ratio']}",
                  flush=True)
            if args.out:
                args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
