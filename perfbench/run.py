#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the unruhcap CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each sample is one CLI
invocation (``perfbench/child.py``) in a fresh interpreter, with the
checkout's ``src/`` on ``PYTHONPATH`` and ``UNRUH_THREADS`` removed; only one
child runs at a time.  Samples are launched until the next one would end
after ``--seconds``.  Every sample's output is checked (``checks.py``); a
sample that exits non-zero, raises, outlives its time budget or fails a
check is counted as failed, never dropped.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics of the traced
ones (``tracing.py``) plus the tracing overhead.  The seed is passed to the
CLI as ``--seed`` and picks the rows re-derived through the spectra route.

Each run stores its record under ``.perfbench/runs/`` and the spans of its
last traced sample under ``.perfbench/spans/``; ``compare.py`` compares
records.
The counts in ``tracing.EXACT_COUNTS`` must repeat exactly across all runs
of one source tree and environment (kept in ``.perfbench/counts/``); a count
that differs fails the run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when the run is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
from child import MARKER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Spawns that only import the CLI, for a steadier setup_s median; one more
# before them warms the file cache and byte-code and is discarded.
SETUP_PROBES = 5

# A child still running after this many seconds is killed and counts as failed.
SAMPLE_BUDGET_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "kernels.calls": "count",
    "kernels.terms": "count",
    "kernels.busy_s": "s",
    "kernels.ns_per_term": "ns",
    "engine.evals": "count",
    "engine.eval_ms_p50": "ms",
    "engine.eval_ms_tail": "ms",
    "engine.self_s": "s",
    "engine.init_ms": "ms",
    "engine.live_term_ratio": "ratio",
    "regions.grid_points": "count",
    "regions.orbits": "count",
    "regions.orbit_ratio": "ratio",
    "regions.refine_s": "s",
    "regions.refine_evals": "count",
    "regions.sweep_self_s": "s",
    "regions.hull_ms": "ms",
    "cli.self_s": "s",
    "cli.output_kb": "KB",
    "spectra.horizon_K": "count",
    "spectra.weights_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Sample:
    traced: bool
    ok: bool = False
    reason: str = ""
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None
    points: int = 0
    output_kb: float = 0.0
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "UNRUH_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args) -> tuple[Sample, bytes]:
    """Run one child; fills the timings it reports.  Always reaps the child."""
    sample = Sample(traced="--spans" in args)
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_BUDGET_S)
    except subprocess.TimeoutExpired:
        sample.reason = f"timeout: still running after {SAMPLE_BUDGET_S:g} s"
        return sample, b""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = err.decode("utf-8", "replace").splitlines()
    records = [line[len(MARKER):] for line in lines if line.startswith(MARKER)]
    if proc.returncode != 0 or not records:
        tail = " | ".join(lines[-3:])
        sample.reason = f"exit code {proc.returncode}: {tail}"
        return sample, out
    record = json.loads(records[-1])
    if record["package"] != str(SRC / "unruhcap"):
        sample.reason = f"imported unruhcap from {record['package']}, not {SRC}"
        return sample, out
    sample.ok = True
    sample.record = record
    sample.setup_s = record["ready"] - start
    sample.wall_s = record.get("wall_s")
    sample.cpu_s = record.get("cpu_s")
    sample.peak_rss_mb = record["peak_rss_mb"]
    sample.counts = dict(record.get("counts", {}))
    sample.layers = record.get("layers", {})
    return sample, out


def run_sample(workload, seed: int, rng, spans_path: Path | None) -> Sample:
    args = ["run"] + (["--spans", str(spans_path)] if spans_path else [])
    args += ["--", *workload.argv, "--seed", str(seed)]
    sample, out = spawn(args)
    if not sample.ok:
        return sample
    sample.output_kb = len(out) / 1024.0
    try:
        counts = checks.check_output(workload, out.decode("utf-8"), seed, rng)
    except Exception as exc:  # any failed check or unparsable output fails the sample
        sample.ok = False
        sample.reason = f"output check: {exc!r}"
        return sample
    sample.points = counts["regions.grid_points"]
    for key, value in counts.items():
        if sample.counts.setdefault(key, value) != value:
            sample.ok = False
            sample.reason = f"{key}: output says {value}, trace says {sample.counts[key]}"
    return sample


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Closed loop: probes for set-up time, then samples until the deadline."""
    rng = random.Random(seed)
    (STATE / "spans").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + seconds
    probes = [spawn(["probe"])[0] for _ in range(SETUP_PROBES + 1)][1:]
    samples: list[Sample] = []
    longest = 0.0
    minimum = 2 if trace else 1
    while len(samples) < minimum or time.monotonic() + longest <= deadline:
        traced = trace and len(samples) % 2 == 1
        spans = STATE / "spans" / f"{workload.name}-seed{seed}.json" if traced else None
        began = time.monotonic()
        samples.append(run_sample(workload, seed, rng, spans))
        longest = max(longest, time.monotonic() - began)
    return probes, samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(probes, samples) -> dict:
    ok = [s for s in samples if s.ok]
    # A failed sample counts as taking its whole time budget.
    walls = [s.wall_s if s.ok else SAMPLE_BUDGET_S for s in samples]
    setups = [s.setup_s for s in probes + samples if s.setup_s is not None]
    return {
        "wall_s": _median(walls),
        "cpu_s": _median(s.cpu_s for s in ok),
        "points_per_s": _median(s.points / s.wall_s if s.ok else 0.0 for s in samples),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(s.peak_rss_mb for s in ok),
        "success_rate": len(ok) / len(samples),
    }


def per_layer(samples) -> dict:
    traced = [s for s in samples if s.ok and s.traced]
    plain = [s for s in samples if s.ok and not s.traced]
    metrics = {
        # Counts repeat exactly (the count guard checks), so keep them whole.
        name: (statistics.median_low if unit == "count" else _median)(
            [s.layers[name] for s in traced] or [0]
        )
        for name, unit in PER_LAYER.items()
        if name not in ("cli.output_kb", "trace.overhead_pct")
    }
    metrics["cli.output_kb"] = _median(s.output_kb for s in traced)
    untraced_wall = _median(s.wall_s for s in plain)
    metrics["trace.overhead_pct"] = (
        (_median(s.wall_s for s in traced) / untraced_wall - 1.0) * 100.0 if untraced_wall else 0.0
    )
    return metrics


# ---------------------------------------------------------------------------
# Fingerprint and the exact-count guard
# ---------------------------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def fingerprint(samples) -> dict:
    """Environment (what must match for results to be comparable) and code."""
    record = next((s.record for s in samples if s.ok), {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "env": {
            "nproc": nproc,
            "python": record.get("python"),
            "numpy": record.get("numpy"),
            "backend": record.get("backend"),
        },
        "code": {"git_commit": git_commit(), "source_sha256": source_digest()},
    }


def count_guard(workload, samples, fp: dict) -> list[str]:
    """Exact counts must agree across the run's samples and with every
    earlier run of the same fingerprint."""
    seen: dict = {}
    problems = []
    for s in samples:
        for key, value in s.counts.items():
            if key in tracing.EXACT_COUNTS and seen.setdefault(key, value) != value:
                problems.append(f"{key} varies within the run: {seen[key]} and {value}")
    key = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]
    path = STATE / "counts" / f"{key}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    earlier = stored.setdefault(workload.name, {})
    for name, value in seen.items():
        if earlier.setdefault(name, value) != value:
            problems.append(f"{name} is {value}, an earlier run of this fingerprint saw {earlier[name]}")
    if not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def summarize(probes, samples, trace: bool, problems) -> dict:
    """The result line: failures are counted against the samples attempted."""
    if trace:
        metrics, units = per_layer(samples), PER_LAYER
    else:
        metrics, units = end_to_end(probes, samples), END_TO_END
    failed = sum(1 for s in samples if not s.ok)
    return {
        "correct": failed == 0 and all(p.ok for p in probes) and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unruhcap" / "cli.py").is_file():
        sys.stderr.write(f"no unruhcap source under {SRC}; run from the root of a checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    probes, samples = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    fp = fingerprint(samples)
    problems = count_guard(workload, [s for s in samples if s.ok], fp)
    result = summarize(probes, samples, bool(args.trace), problems)

    env, code = fp["env"], fp["code"]
    print(
        f"fingerprint: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"backend={env['backend']} commit={code['git_commit']} src={code['source_sha256']}"
    )
    print(
        f"workload {workload.name}: unruhcap {' '.join(workload.argv)} --seed {args.seed}; "
        f"closed loop, one client; {result['attempted']} samples, {result['failed']} failed, "
        f"trace={args.trace}"
    )
    walls = [s.wall_s if s.ok else SAMPLE_BUDGET_S for s in samples if not s.traced]
    q, value = tracing.tail(walls)
    print(f"wall_s tail: p{q:g} = {value:.4f} s over {len(walls)} untraced samples")
    if args.trace:
        evals = result["metrics"]["engine.evals"]["value"]
        print(f"engine.eval_ms_tail is p{tracing.tail_percentile(evals):g} of {evals} evaluations")
    for name, metric in result["metrics"].items():
        print(f"{name:24s} {metric['value']:14.6g} {metric['unit']}")
    failures = [s.reason for s in probes + samples if not s.ok] + problems
    for reason in failures:
        print(f"FAILED: {reason}")

    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fp,
        "failures": failures,
        "samples": [{k: v for k, v in vars(s).items() if k != "record"} for s in probes + samples],
        **result,
    }
    path = runs / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
