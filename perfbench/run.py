#!/usr/bin/env python3
"""Pipeline benchmark for zdgspectra.

    python3 perfbench/run.py --workload zn-verify --seed 1 --seconds 45 --trace 0

Runs one workload (see workloads.py) from the repository's `src/`, with no
install.  Each op is timed from the call until it returns or raises, then
its output is checked; an op fails if it raises or fails a check, and the
run goes on.  A run is one pass over the workload's rings, cut off after
--seconds.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics (op times in reference seconds, see CAL_REF_S); with
--trace 1 it has the per-layer metrics of a traced run instead, in plain
seconds, and the spans go to perfbench/out/.  The line before it holds the
run's metadata, with the unscaled op times and fail_frac.  `--workload all`
runs every workload, each in a process of its own, and prints one result
line per workload.

`correct` is false when an op returned an output that failed a check.  An
op that raised counts in `failed` but leaves `correct` alone: the program
reported that failure itself.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

BLAS_THREADS = "1"
# Op times are reported in reference seconds: seconds on a host that runs
# one calibrate() burst in CAL_REF_S, the burst's median on the 2-vCPU Xeon
# (KVM) host the bounds were set on.  That host's speed drifts by up to 2x
# over tens of seconds, so each op is scaled by the mean of the bursts run
# just before and just after it; on that host this cut the run-to-run
# spread of the median op time by half or more against scaling by the
# run's median burst.  The meta line keeps the unscaled figures.
CAL_REF_S = 0.010
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie above the tail percentile

END_TO_END_UNITS = {
    "ops_per_s": "1/ref_s",
    "op_s_p50": "ref_s",
    "op_s_tail": "ref_s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _pin_threads():
    """One BLAS thread: the ops run one at a time, and a second thread only
    adds noise on a shared machine."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def load_program():
    """Import zdgspectra from src/ and return its modules."""
    if not (ROOT / "src" / "zdgspectra").is_dir():
        sys.exit(f"no zdgspectra sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from zdgspectra import eig, graph, rings, spectra

    return types.SimpleNamespace(eig=eig, graph=graph, rings=rings, spectra=spectra)


def prepare(lib, workload, seed):
    """Everything before the first timed op: draw and parse the rings."""
    specs = workload.draw(seed)
    return [(spec, lib.rings.parse_ring_spec(spec)) for spec in specs]


def calibrate() -> float:
    """Seconds for one fixed burst of interpreter and small-array work, the
    kind the program does.  Bursts between ops track how fast the shared
    host runs while the ops run."""
    import numpy as np

    m = np.random.default_rng(0).standard_normal((16, 16))
    t0 = time.perf_counter()
    for _ in range(2):
        for p in range(15):
            for q in range(p + 1, 16):
                cp = m[:, p].copy()
                cq = m[:, q].copy()
                m[:, p] = 0.8 * cp - 0.6 * cq
                m[:, q] = 0.6 * cp + 0.8 * cq
    sorted(((i * 7919) % 10007 * 0.5, "t") for i in range(10000))
    return time.perf_counter() - t0


def reference_times(times, cal):
    """Each op's time in reference seconds, from the calibration bursts on
    either side of it (cal[i] ran before op i, cal[i + 1] after it)."""
    return [t * 2 * CAL_REF_S / (cal[i] + cal[i + 1]) for i, t in enumerate(times)]


def tail(times):
    """(value, percentile, samples beyond): the per-op time at the highest
    nearest-rank percentile that leaves TAIL_BEYOND samples above it, or
    the maximum when there are too few ops for that."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def run_ops(lib, workload, items, seconds, tracer=None):
    """One pass over the items, stopped once `seconds` have gone by."""
    times = []
    failures = {}
    wrong = 0
    max_dev = 0.0
    cal = [calibrate()]
    start = time.perf_counter()
    for index, (spec, ring) in enumerate(items):
        if time.perf_counter() - start >= seconds:
            break
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(lib, spec, ring)
            else:
                with tracer.op(index):
                    result = workload.op(lib, spec, ring)
        except Exception as exc:  # counted as a failed op; the run goes on
            error = type(exc).__name__
        times.append(time.perf_counter() - t0)
        if error is None:
            outcome = workload.check(lib, spec, ring, result)
            if math.isfinite(outcome.max_dev):
                max_dev = max(max_dev, outcome.max_dev)
            if outcome.reason is not None:
                error = outcome.reason
                wrong += 1
        result = None  # so the next op's peak memory does not include this one
        gc.collect()  # so the next op does not pay for this one's garbage
        cal.append(calibrate())
        if error is not None:
            failures[error] = failures.get(error, 0) + 1
    return {
        "times": times,
        "elapsed": time.perf_counter() - start,
        "failures": failures,
        "wrong": wrong,
        "max_dev": max_dev,
        "cal": cal,
    }


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the package, draw and
    parse the rings, and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def metadata(lib, args, run, tail_pct, tail_beyond, setups):
    import numpy

    attempted = len(run["times"])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "eigensolver": getattr(lib.eig, "BACKEND", "unknown"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "attempted": attempted,
        "failed": sum(run["failures"].values()),
        "fail_frac": sum(run["failures"].values()) / attempted,
        "failures": run["failures"],
        "elapsed_s": run["elapsed"],
        "op_time_s": sum(run["times"]),
        "op_s_tail_percentile": tail_pct,
        "op_s_tail_beyond": tail_beyond,
        "setup_runs_s": setups,
        "calibration_s": statistics.median(run["cal"]),
    }


def run_one(args) -> int:
    _pin_threads()
    lib = load_program()
    from tracing import METRICS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    items = prepare(lib, workload, args.seed)
    if args.setup_only:
        return 0
    setups = measure_setup(args)

    tracer = Tracer().install() if args.trace else None
    try:
        run = run_ops(lib, workload, items, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.close()
    items = None

    times = run["times"]
    ref = reference_times(times, run["cal"])
    tail_value, tail_pct, tail_beyond = tail(ref)
    meta = metadata(lib, args, run, tail_pct, tail_beyond, setups)
    meta["unscaled"] = {
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail(times)[0],
    }
    if tracer is None:
        values = {
            "ops_per_s": len(ref) / sum(ref),
            "op_s_p50": statistics.median(ref),
            "op_s_tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        values = tracer.metrics(run["max_dev"])
        metrics = {k: {"value": v, "unit": METRICS[k][0]} for k, v in values.items()}
        meta["trace_missing"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        meta["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": len(times),
        "failed": meta["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in a process of its own, so that each one's
    peak memory is its own."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(json.dumps({"workload": name, "error": f"exit {proc.returncode}"}))
            status = 1
            continue
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        print(json.dumps({"workload": name, **result, "meta": meta}), flush=True)
    return status


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
