"""Command line front end: bound, sweep, threshold, simulate, validate.

Each command returns its exit code and its output as (key, value) pairs;
``main`` renders them once as ``key=value`` lines (``fileio.kv_text``).
Exit codes: 0 on success, 1 on input errors, 2 when the computed quantity
signals a protocol abort (or an attack file fails validation), and 141
(128 + SIGPIPE) with nothing on stderr when the reader of stdout stops early.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import math
import os
import re
import sys

import numpy as np

from . import attacks, keyrate, protocol
from .fileio import csv_rows, kv_text

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ABORT = 2
EXIT_PIPE = 141

MAX_GRID = 10**6

#: grid points sweep evaluates and writes per pass; it bounds sweep's memory
SWEEP_CHUNK = 4096

#: freed heap top glibc keeps for the next sweep chunk rather than trim and fault in again
HEAP_TOP_PAD = 4 << 20


class _Parser(argparse.ArgumentParser):
    """argparse prints the usage and exits with status 2 on bad flags; the CLI
    contract wants one error line and status 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1e-3 for a flag; any negative decimal or exponent literal is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _grid_size(args) -> int:
    """The number of sweep grid points start + i * step, once the grid and its output path pass their checks."""
    for name in ("start", "stop", "step"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"{name} must be finite, got {getattr(args, name)!r}")
    if args.start > args.stop:
        raise ValueError(f"start={args.start!r} must not exceed stop={args.stop!r}")
    if not args.step > 0:
        raise ValueError(f"step must be positive, got {args.step!r}")
    span = (args.stop - args.start) / args.step + 1e-9  # inf when it overflows
    if not span < MAX_GRID:
        raise ValueError(f"grid size {int(span) + 1 if math.isfinite(span) else span} exceeds the {MAX_GRID} limit")
    if "".join(args.out.splitlines()) != args.out:  # it would break the out= line
        raise ValueError(f"output path must not hold a line break, got {args.out!r}")
    return int(span) + 1


def _statistics_from_args(args) -> attacks.Statistics:
    sources = [args.stats is not None, args.attack is not None, args.b is not None or args.q is not None]
    if sum(sources) != 1:
        raise ValueError("provide exactly one of --b/--q, --stats or --attack")
    if args.stats is not None:
        return keyrate.load_statistics(args.stats)
    if args.attack is not None:
        return attacks.compute_statistics(attacks.load_attack(args.attack))
    if args.b is None or args.q is None:
        raise ValueError("--b and --q must be given together")
    return keyrate.depolarizing_stats(args.b, args.q)


def cmd_bound(args) -> tuple[int, list]:
    report = keyrate.key_rate_bound(_statistics_from_args(args))
    return (EXIT_ABORT if report.abort[0] else EXIT_OK), keyrate.report_items(report)


def cmd_sweep(args) -> tuple[int, list]:
    n = _grid_size(args)
    chunks = lambda: (args.start + np.arange(lo, min(lo + SWEEP_CHUNK, n)) * args.step
                      for lo in range(0, n, SWEEP_CHUNK))
    statistics = lambda x: keyrate.depolarizing_stats(*((args.fixed, x) if args.var == "q" else (x, args.fixed)))
    # reject a bad grid point before the file is opened: the points rise and the
    # valid b and q are intervals, so the ends decide; only a bad grid pays for
    # the scan that names its first bad point
    try:
        statistics(args.start + np.array([0, n - 1]) * args.step)
    except ValueError:
        for x in chunks():
            statistics(x)
        raise
    with open(args.out, "wb") as fh:
        fh.write(b"x,f\n")
        for x in chunks():
            fh.write(csv_rows(x, keyrate.key_rate_bound(statistics(x)).bound))
    return EXIT_OK, [("rows", n), ("out", args.out)]


def _parse_fix(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    name = name.strip()
    with contextlib.suppress(ValueError):  # a bad number gets the message of a bad name
        if sep and name in ("b", "q"):
            return name, float(value)
    raise ValueError(f"--fix expects b=<real> or q=<real>, got {text!r}")


def cmd_threshold(args) -> tuple[int, list]:
    name, value = _parse_fix(args.fix)
    if name == "b":
        q_star = keyrate.threshold_q(value, args.tol)
        items = [("q_star", q_star)]
        if q_star is not None:
            items.append(("Q_Z_star", q_star / 2.0))
    else:
        b_star = keyrate.threshold_b(value, args.tol)
        items = [("b_star", b_star)]
        if b_star is not None:
            items.append(("Q_X_star", keyrate.x_error_from_bias(b_star)))
    return EXIT_OK, items


def cmd_simulate(args) -> tuple[int, list]:
    has_channel = args.q is not None or args.b is not None
    if (args.attack is not None) == has_channel:
        raise ValueError("provide either --q and --b or --attack")
    if args.attack is not None:
        attack = attacks.load_attack(args.attack)
    else:
        if args.q is None or args.b is None:
            raise ValueError("--q and --b must be given together")
        attack = attacks.depolarizing_attack(args.b, args.q)
    cfg = protocol.ProtocolConfig(n=args.n, seed=args.seed, delta=args.delta)
    # the export file is opened before the run, so that a path that cannot be
    # written fails at once, and held open until the export is written, so
    # that the reader of a FIFO sees one stream
    with open(args.export, "wb") if args.export is not None else contextlib.nullcontext():
        transcript = protocol.run_protocol(cfg, attack)
        if args.export is not None:
            transcript.to_csv(args.export)
    items = transcript.summary_items()
    try:  # an estimate of an empty class is NaN, which Statistics rejects
        report = keyrate.key_rate_bound(attacks.Statistics(*transcript.estimates))
    except ValueError as exc:
        items += [("bound", None), ("bound_error", exc)]
    else:
        # prefixed, since the transcript summary has an abort key too
        items += [(key if key == "bound" else f"bound_{key}", value)
                  for key, value in keyrate.report_items(report)]
    return (EXIT_ABORT if transcript.abort_reason else EXIT_OK), items


def cmd_validate(args) -> tuple[int, list]:
    bias, vectors = attacks.parse_attack_file(args.attack)
    dev = attacks.attack_deviations(**vectors)
    worst = max(dev.values())
    ok = worst <= attacks.ATOL
    return (EXIT_OK if ok else EXIT_ABORT), [
        ("b", bias),
        *((f"{name}_deviation", value) for name, value in dev.items()),
        ("max_deviation", worst),
        ("status", "pass" if ok else "fail"),
    ]


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = _Parser(prog="sqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # the parser of each subcommand by name

    p = sub.add_parser("bound", help="key-rate lower bound from (b,q), a stats file or an attack file")
    p.add_argument("--b", type=float, default=None, help="bias of the injected state")
    p.add_argument("--q", type=float, default=None, help="depolarizing parameter of the reverse channel")
    p.add_argument("--stats", default=None, help="statistics file (key=value lines)")
    p.add_argument("--attack", default=None, help="attack specification file")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="tabulate f over a grid of b or q into a CSV file")
    p.add_argument("--var", choices=("b", "q"), required=True, help="sweep variable")
    p.add_argument("--fixed", type=float, required=True, help="value of the non-swept parameter")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="zero crossing of f in q (fixed b) or in b (fixed q)")
    p.add_argument("--fix", required=True, metavar="b=V|q=V", help="which parameter to hold fixed")
    p.add_argument("--tol", type=float, default=1e-4, help="bisection interval tolerance")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("simulate", help="Monte Carlo run of the protocol")
    p.add_argument("--n", type=int, required=True, help="desired raw key length")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--b", type=float, default=None, help="bias of the injected state")
    p.add_argument("--q", type=float, default=None, help="depolarizing parameter of the reverse channel")
    p.add_argument("--attack", default=None, help="attack specification file")
    p.add_argument("--delta", type=float, default=0.25, help="round overhead factor")
    p.add_argument("--export", default=None, help="write the transcript CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="check an attack file against the unitarity constraints")
    p.add_argument("--attack", required=True, help="attack specification file")
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def keep_heap_top() -> None:
    """mallopt(M_TOP_PAD = -2, HEAP_TOP_PAD) once per process; a libc without mallopt is left alone."""
    with contextlib.suppress(AttributeError, OSError, TypeError):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-2, HEAP_TOP_PAD)


def main(argv=None) -> int:
    keep_heap_top()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h or an unknown command: the full parser says what is wrong
        args = parser.parse_args(argv)
    else:  # a subcommand parses its own arguments, about a third of the cost of the full parser
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code, items = args.func(args)
        sys.stdout.write(kv_text(items))
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return EXIT_PIPE
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"sqkd: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
