#!/usr/bin/env python3
"""Compare the benchmark records of two commits.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records (``.perfbench/runs/*.json``) of one commit.
For every workload, trace mode and metric this prints each side's median and
quartiles over its runs and the new/base ratio of the medians.  It refuses
(exit 2) to compare records whose environment fingerprints differ (core
count, Python, numpy or kernel backend: a compiled-backend run is never
compared with a python-backend run), or a directory that mixes source trees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no run records in {directory}")
    return records


def single(records, part: str, label: str) -> str:
    values = {json.dumps(r["fingerprint"][part], sort_keys=True) for r in records}
    if len(values) != 1:
        raise ValueError(f"{label} mixes {part} fingerprints: {sorted(values)}")
    return values.pop()


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (1 run)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] ({len(values)} runs)"


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[0]), load(argv[1])
    try:
        env = {single(base, "env", "BASE"), single(new, "env", "NEW")}
        single(base, "code", "BASE")
        single(new, "code", "NEW")
    except ValueError as exc:
        sys.stderr.write(f"refusing to compare: {exc}\n")
        return 2
    if len(env) != 1:
        sys.stderr.write(f"refusing to compare: environments differ: {sorted(env)}\n")
        return 2

    def series(records):
        out: dict = {}
        for r in records:
            for name, metric in r["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append(metric["value"])
        return out

    base_series, new_series = series(base), series(new)
    for key in sorted(set(base_series) & set(new_series)):
        workload, trace, name = key
        b, n = base_series[key], new_series[key]
        b_med, n_med = statistics.median(b), statistics.median(n)
        ratio = f"{n_med / b_med:.4f}" if b_med else "n/a"
        print(f"{workload:10s} trace={trace} {name:24s} base {summary(b)}  new {summary(n)}  new/base {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
