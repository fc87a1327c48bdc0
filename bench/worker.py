"""One repetition of a workload in a fresh interpreter.

Started by ``run.py``; prints one JSON object on stdout.  Each repetition
gets its own interpreter because a CLI user pays the cold caches of
``qweyl`` (the ``lru_cache`` helpers in ``uq``) on every invocation.
Times are in reference seconds (see ``speed.py``); the raw ones ride along.

    python3 bench/worker.py --workload NAME --seed N [--size tiny]
                            [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None,
                    help="trace the run and write its spans here")
    args = ap.parse_args()

    probe = speed.SpeedClock()
    probe.start()
    # set-up: importing qweyl and building the workload's inputs
    t_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qweyl
    if Path(qweyl.__file__).resolve().parent != SRC / "qweyl":
        probe.stop()
        print(f"error: imported qweyl from {qweyl.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    inputs = workloads.build_inputs(args.workload, args.seed, args.size)
    t_setup = time.perf_counter()
    if args.setup_only:
        probe.stop()
        ref = probe.converter()
        print(json.dumps({"setup_s": ref(t_setup) - ref(t_start),
                          "raw_setup_s": t_setup - t_start}))
        return 0

    recorder = None
    if args.spans:
        from qweyl import cli, coeff, gauss, haar, parser, uq, weyl
        recorder = tracer.Recorder()
        recorder.install({"coeff": coeff, "weyl": weyl, "uq": uq,
                          "gauss": gauss, "haar": haar, "parser": parser,
                          "cli": cli})
    clock = workloads.CaseClock()
    clock.install()

    t0 = time.perf_counter()
    result = workloads.run(args.workload, inputs, clock)
    t1 = time.perf_counter()
    probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ref = probe.converter()
    bounds = result.pop("case_bounds")
    starts = ref([a for a, _ in bounds])
    ends = ref([b for _, b in bounds])
    result["cases_ms"] = [float(x) * 1e3 for x in ends - starts]
    result["wall_s"] = ref(t1) - ref(t0)
    result["raw_wall_s"] = t1 - t0
    result["setup_s"] = ref(t_setup) - ref(t_start)
    result["raw_setup_s"] = t_setup - t_start
    result["rss_mb"] = rss_mb
    if recorder is not None:
        result["layers"] = recorder.metrics(ref)
        result["spans"] = len(recorder.span_start)
        recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
