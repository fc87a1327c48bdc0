"""qweyl benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src`` next to this
directory.  Every repetition is a fresh interpreter (``worker.py``), one
after another in a closed loop, so only one process computes at a time.

``--trace 0`` runs set-up probes, then repetitions until ``--seconds`` have
passed (at least two), checks their outputs and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced repetitions,
checks that their report lines agree and prints the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed correctness gate prints its problems on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_REPS = 2
SETUP_PROBES = 5
# every worker must end before this many seconds into the run
RUN_LIMIT_S = 170.0

UNITS = {"wall_s": "s", "setup_s": "s", "case_p50_ms": "ms",
         "case_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker(args, deadline, *flags):
    """Run one repetition in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next repetition")
    # on timeout subprocess.run kills the worker and waits for it
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(count):
    """Highest whole percentile with at least ten of ``count`` cases beyond it
    (p50 when there are too few cases for that)."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / count)))


def gate(workloads, args, inputs, reps):
    first = reps[0]
    problems = []
    for rep in reps[1:]:
        if rep["outputs"] != first["outputs"] or rep["rcs"] != first["rcs"]:
            problems.append("repetitions disagree on their outputs")
            break
    return problems + workloads.check(args.workload, inputs, first)


def plain_run(workloads, args, deadline):
    probes = 1 if args.size == "tiny" else SETUP_PROBES
    min_reps = 1 if args.size == "tiny" else MIN_REPS
    setups = [worker(args, deadline, "--setup-only")["setup_s"]
              for _ in range(probes)]
    reps = []
    begin = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - begin < args.seconds:
        reps.append(worker(args, deadline))
    # the tail percentile follows the cases in one repetition, so it does not
    # move when a faster program fits more repetitions into a run
    count = len(reps[0]["cases_ms"])
    p_tail = tail_percentile(count)
    cases = [c for r in reps for c in r["cases_ms"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "case_p50_ms": statistics.median(cases),
        "case_tail_ms": percentile(cases, p_tail),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    raw_wall = statistics.median(r["raw_wall_s"] for r in reps)
    notes = [f"case_tail_ms is p{p_tail} over {count} cases per repetition",
             f"setup_s is the median of {len(setups) + len(reps)} set-ups",
             f"times are reference seconds; raw wall_s = {raw_wall:.6g} s"]
    return reps, {k: (v, UNITS[k]) for k, v in metrics.items()}, notes


def traced_run(workloads, args, deadline):
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    plain, traced = [], []
    begin = time.monotonic()
    while not traced or time.monotonic() - begin < args.seconds:
        plain.append(worker(args, deadline))
        traced.append(worker(args, deadline, "--spans", str(spans)))
    # counts repeat exactly across repetitions; times take the median
    layers = {name: (statistics.median if name.endswith("_s")
                     else statistics.median_low)(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["gauss.floor_cases"] = statistics.median_low(
        r.get("floor", 0) for r in traced)
    layers["tracing_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain))
    metrics = {name: (layers[name], unit) for name, unit in tracer.UNITS.items()}
    notes = [f"{len(traced)} traced and {len(plain)} untraced repetitions; "
             f"{traced[-1]['spans']} spans written to "
             f"{spans.relative_to(ROOT)}"]
    return plain + traced, metrics, notes


def run_record():
    """What each result is recorded with: revision, interpreter, cores, size."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "qweyl").glob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "src_qweyl_lines": lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "qweyl" / "__init__.py").is_file():
        print(f"error: no qweyl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        inputs = workloads.build_inputs(args.workload, args.seed, args.size)
        runner = traced_run if args.trace else plain_run
        reps, metrics, notes = runner(workloads, args, deadline)
        problems = gate(workloads, args, inputs, reps)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    floor = sum(r.get("floor", 0) for r in reps)
    record = run_record()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} repetitions={len(reps)}")
    print("record: " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # fail_frac counts every failing case; the result line's "failed"
    # leaves out the known ab-rho pointwise floor, which passes the gate
    print(f"fail_frac = {(failed + floor) / attempted:.6g} ratio "
          f"({failed + floor} of {attempted} cases failed: {floor} at the "
          f"ab-rho pointwise precision floor, {failed} beyond it)")
    for note in notes:
        print(note)
    detail = {"args": vars(args), "record": record, "problems": problems,
              "attempted": attempted, "failed": failed, "floor": floor,
              "notes": notes,
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "repetitions": [{k: r[k] for k in (
                  "wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "rss_mb",
                  "attempted", "failed")} | {"floor": r.get("floor", 0)}
                 for r in reps]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for problem in problems[:20]:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
