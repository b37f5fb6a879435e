"""End-to-end and traced benchmark of the sqkd command line.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --seed 1 --seconds 28          # all four workloads

Each workload runs in fresh single-threaded interpreters (bench/worker.py),
one workload at a time.  With --trace 0 the last line of standard output is
one JSON object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  The run checks every output of the
program and exits 0 whenever it could measure, with ``correct`` false if an
output was wrong.  It exits 2 without a result when the directory holds no
sqkd source tree to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sweep", "simulate", "export", "queries")

#: set-ups measured per run, half of the others before the timed run and half
#: after it, so that they sample two phases of the host; setup_s is their median
SETUPS = 9
#: a worker that has not finished after this long is killed
WORKER_TIMEOUT_S = 170.0

UNITS = {"setup_s": "s", "items_per_s": "items/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def worker_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only):
    """Start a worker and wait for READY; returns the process and its set-up time."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line != "READY\n":
        watchdog.cancel()
        proc.kill()
        proc.wait()
        raise WorkerError(f"{args.workload} worker exited with {proc.returncode} during set-up")
    return proc, watchdog, setup_s


def finish(proc, watchdog):
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def measure_setups(args, count):
    setups = []
    for _ in range(count):
        proc, watchdog, setup_s = start_worker(args, setup_only=True)
        finish(proc, watchdog)
        setups.append(setup_s)
    return setups


def run_workload(args):
    extra = 0 if args.trace else SETUPS - 1
    setups = measure_setups(args, extra // 2)
    proc, watchdog, setup_s = start_worker(args, setup_only=False)
    setups.append(setup_s)
    lines = finish(proc, watchdog).strip().splitlines()
    setups += measure_setups(args, extra - extra // 2)
    if not lines:
        raise WorkerError(f"{args.workload} worker printed no result")
    result = json.loads(lines[-1])
    if args.trace:
        import tracer

        units = {name: unit for name, unit, _ in tracer.metric_specs()}
        values = result["metrics"]
    else:
        units = UNITS
        values = dict(result["metrics"], setup_s=statistics.median(setups))
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join("src", "sqkd", "cli.py")):
        print("benchmark: no src/sqkd here; run from the root of an sqkd checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            args.workload = name
            result = run_workload(args)
            if len(names) > 1:
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except WorkerError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
