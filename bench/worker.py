"""One benchmark process: set up a workload, run it for a time window, report.

run.py starts this file in a fresh interpreter with BLAS threads set to 1 and
``src`` on the path.  It imports sqkd, draws the workload's inputs from the
seed, runs one untimed warm-up operation and prints READY; run.py counts the
time until then as set-up.  With --setup-only it stops there.  Otherwise it
repeats the workload's round of operations until --seconds have passed,
timing each ``sqkd.cli.main(argv)`` call with stdout and stderr captured and
checking every output outside the timed region, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

from workloads import WORKLOADS, Outcome

#: the p90 of operation times needs at least ten samples beyond it
MIN_OPS = 100
#: the window never runs longer than this, whatever MIN_OPS asks
MAX_WINDOW_S = 120.0
OUT_DIR = ".bench_out"


def call(cli, argv):
    """Run one CLI call in-process; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    rc = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code
        except Exception as caught:  # the program's fault is the operation's failure
            exc = caught
        elapsed = time.perf_counter() - t0
    return elapsed, Outcome(rc, out.getvalue(), err.getvalue(), exc)


def verdict(op, outcome):
    try:
        return op.check(outcome)
    except Exception as caught:  # unparsable output fails the operation, not the run
        return f"check raised {type(caught).__name__}: {caught}"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import sqkd.cli as cli

    expected = os.path.realpath(os.path.join("src", "sqkd"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        print(f"benchmark: imported sqkd from {cli.__file__}, not from {expected}", file=sys.stderr)
        return 2

    tmp = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        index = sorted(WORKLOADS).index(args.workload)
        workload = WORKLOADS[args.workload](np.random.default_rng([args.seed, index]), tmp)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        _, outcome = call(cli, workload.warmup.argv)
        warmup_bad = verdict(workload.warmup, outcome)
        if tracer is not None:
            tracer.clear()
        gc.collect()
        gc.freeze()
        sys.stdout.write("READY\n")
        sys.stdout.flush()
        if args.setup_only:
            return 0
        return run(args, cli, workload, tracer, warmup_bad)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, cli, workload, tracer, warmup_bad):
    times = []
    items = failed = wrong = rounds = 0
    reported = set()
    if warmup_bad is not None:
        wrong += 1
        print(f"benchmark: warm-up {' '.join(workload.warmup.argv)}: {warmup_bad}", file=sys.stderr)
    start = time.perf_counter()
    while True:
        for op in workload.ops:
            elapsed, outcome = call(cli, op.argv)
            bad = verdict(op, outcome)
            times.append(elapsed)
            if bad is None:
                items += op.items
            else:
                failed += 1
                wrong += not op.known_fault
                if len(reported) < 8 and id(op) not in reported:
                    reported.add(id(op))
                    kind = "known fault" if op.known_fault else "wrong output"
                    print(f"benchmark: {kind}: {' '.join(op.argv)}: {bad}", file=sys.stderr)
            gc.collect()
        window = time.perf_counter() - start
        rounds += 1
        # stop at the whole round that ends nearest the requested time
        if (window + 0.5 * window / rounds >= args.seconds and len(times) >= MIN_OPS) or window >= MAX_WINDOW_S:
            break
    timed_s = sum(times)
    items = max(items, 1)
    if tracer is not None:
        metrics = tracer.metrics(items, timed_s)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
    else:
        metrics = {
            "items_per_s": items / timed_s,
            "op_p50_ms": float(np.percentile(times, 50)) * 1e3,
            "op_p90_ms": float(np.percentile(times, 90)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {"correct": wrong == 0, "attempted": len(times), "failed": failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
