#!/usr/bin/env python3
"""Show whether two sets of runs wrote the same bytes.

Usage: python scripts/compare_runs.py A B

A and B are run roots written by `scripts/run_all.py --out-root` (one
directory per config), or two single run directories.  Every file under
either root gets one line:

    identical  free_packet/summary.json
    differs    lambda_sweep/sweep.csv
        max_Q: max abs 1.1e-07, max rel 1.6e-08
    missing    nelson_born/paths.csv (only in A)

A JSON or CSV file that differs is followed by the largest absolute and
relative difference of each numeric key or column that changed (list
positions are folded into `[]`, so `rows[].max_Q` covers every row);
any other change is named without a size.  Manifests are compared
without `created_unix` and `elapsed_seconds`, which every run sets
afresh.  Exits 0 only when every file is identical, 1 when one differs
or is missing, 2 when A or B is not a directory.
"""

import argparse
import csv
import filecmp
import json
import math
import sys
from pathlib import Path

VOLATILE_MANIFEST_KEYS = ("created_unix", "elapsed_seconds")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _difference(a, b):
    """(abs, rel) difference of two numbers, or None when they are equal."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return None
    d = abs(a - b)
    scale = max(abs(a), abs(b))
    if math.isnan(d) or math.isinf(scale):
        return math.inf, math.inf
    return d, d / scale


class _Report:
    """The differences of one file, gathered per key or column."""

    def __init__(self):
        self.sizes = {}   # key -> [max abs, max rel]
        self.notes = {}   # key -> what differs, for changes without a size

    def values(self, key, a, b):
        if _is_number(a) and _is_number(b):
            diff = _difference(float(a), float(b))
            if diff is not None:
                size = self.sizes.setdefault(key, [0.0, 0.0])
                size[0] = max(size[0], diff[0])
                size[1] = max(size[1], diff[1])
        elif a != b:
            self.notes.setdefault(key, "values differ")

    def lines(self):
        keys = sorted(set(self.sizes) | set(self.notes))
        out = []
        for key in keys:
            if key in self.sizes:
                d_abs, d_rel = self.sizes[key]
                out.append(f"    {key}: max abs {d_abs:.3g}, "
                           f"max rel {d_rel:.3g}")
            if key in self.notes:
                out.append(f"    {key}: {self.notes[key]}")
        return out or ["    bytes differ"]


def _leaves(doc, path=()):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, path + (i,))
    else:
        yield path, doc


def _key(path) -> str:
    key = ""
    for part in path:
        key += "[]" if isinstance(part, int) else (f".{part}" if key else part)
    return key or "(root)"


def _compare_json(pa: Path, pb: Path, manifest: bool) -> _Report:
    docs = []
    for p in (pa, pb):
        doc = json.loads(p.read_text())
        if manifest and isinstance(doc, dict):
            for k in VOLATILE_MANIFEST_KEYS:
                doc.pop(k, None)
        docs.append(dict(_leaves(doc)))
    report = _Report()
    a, b = docs
    for path in a.keys() | b.keys():
        if path not in b:
            report.notes[_key(path)] = "only in A"
        elif path not in a:
            report.notes[_key(path)] = "only in B"
        else:
            report.values(_key(path), a[path], b[path])
    return report


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_csv(pa: Path, pb: Path) -> _Report:
    report = _Report()
    with open(pa, newline="") as fa, open(pb, newline="") as fb:
        ra, rb = csv.reader(fa), csv.reader(fb)
        header = next(ra, [])
        if next(rb, []) != header:
            report.notes["header"] = "differs"
            return report
        n = 0
        for n, (row_a, row_b) in enumerate(zip(ra, rb), start=1):
            if len(row_a) != len(row_b):
                report.notes.setdefault("row length", f"differs in row {n}")
            for name, x, y in zip(header, row_a, row_b):
                if x != y:
                    report.values(name, _number(x), _number(y))
        rest_a, rest_b = sum(1 for _ in ra), sum(1 for _ in rb)
        if rest_a or rest_b:
            report.notes["rows"] = f"A has {n + rest_a}, B has {n + rest_b}"
    return report


def compare_file(pa: Path, pb: Path):
    """None when the two files match, else the lines that say how not."""
    manifest = pa.name == "manifest.json"
    if not manifest and filecmp.cmp(pa, pb, shallow=False):
        return None
    if pa.suffix == ".json":
        try:
            report = _compare_json(pa, pb, manifest)
        except ValueError:   # not JSON: fall back to the bytes
            return None if filecmp.cmp(pa, pb, shallow=False) \
                else ["    bytes differ"]
        if manifest and not report.sizes and not report.notes:
            return None
    elif pa.suffix == ".csv":
        report = _compare_csv(pa, pb)
    else:
        report = _Report()
    return report.lines()


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2

    in_a, in_b = _files(args.a), _files(args.b)
    counts = {"identical": 0, "differ": 0, "missing": 0}
    for name in sorted(in_a | in_b):
        if name not in in_b or name not in in_a:
            side = "A" if name in in_a else "B"
            print(f"missing    {name} (only in {side})")
            counts["missing"] += 1
            continue
        lines = compare_file(args.a / name, args.b / name)
        if lines is None:
            print(f"identical  {name}")
            counts["identical"] += 1
        else:
            print(f"differs    {name}")
            print("\n".join(lines))
            counts["differ"] += 1
    print(f"\n{sum(counts.values())} files: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0 if counts["identical"] == sum(counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
