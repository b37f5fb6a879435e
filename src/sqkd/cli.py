"""Command line front end: bound, sweep, threshold, simulate, validate.

Exit codes: 0 on success, 1 on input errors, 2 when the computed quantity
signals a protocol abort (or an attack file fails validation), and 141
(128 + SIGPIPE) with nothing on stderr when the reader of stdout stops early.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import attacks, keyrate, protocol
from .fileio import csv_rows, fmt

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ABORT = 2
EXIT_PIPE = 141

MAX_GRID = 10**6

#: grid points sweep evaluates and writes per pass; it bounds sweep's memory
SWEEP_CHUNK = 4096


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


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional grid over b or q with the other parameter fixed."""

    variable: str
    fixed_value: float
    start: float
    stop: float
    step: float
    output_path: str

    def __post_init__(self):
        if self.variable not in ("b", "q"):
            raise ValueError(f"sweep variable must be 'b' or 'q', got {self.variable!r}")
        for name in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.start > self.stop:
            raise ValueError(f"start={self.start!r} must not exceed stop={self.stop!r}")
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        span = (self.stop - self.start) / self.step + 1e-9  # inf when it overflows
        if not span < MAX_GRID:
            size = self.grid_size() if math.isfinite(span) else span
            raise ValueError(f"grid size {size} exceeds the {MAX_GRID} limit")

    def grid_size(self) -> int:
        return int((self.stop - self.start) / self.step + 1e-9) + 1

    def chunks(self):
        """The grid points start + i * step, SWEEP_CHUNK of them at a time."""
        n = self.grid_size()
        for lo in range(0, n, SWEEP_CHUNK):
            yield self.start + np.arange(lo, min(lo + SWEEP_CHUNK, n)) * self.step

    def statistics(self, x) -> attacks.Statistics:
        if self.variable == "q":
            return keyrate.depolarizing_stats(self.fixed_value, x)
        return keyrate.depolarizing_stats(x, self.fixed_value)

    def check(self) -> None:
        """Reject a bad grid point.  The points rise and the valid b and q are intervals,
        so the ends decide; only a bad grid pays for the scan that names its first bad point."""
        try:
            self.statistics(self.start + np.array([0, self.grid_size() - 1]) * self.step)
        except ValueError:
            for x in self.chunks():
                self.statistics(x)
            raise


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


def cmd_bound(args) -> int:
    stats = _statistics_from_args(args)
    report = keyrate.key_rate_bound(stats)
    print(keyrate.format_report(report))
    return EXIT_ABORT if report.abort[0] else EXIT_OK


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        variable=args.var, fixed_value=args.fixed,
        start=args.start, stop=args.stop, step=args.step,
        output_path=args.out,
    )
    spec.check()  # before the file is opened
    with open(spec.output_path, "wb") as fh:
        fh.write(b"x,f\n")
        for x in spec.chunks():
            fh.write(csv_rows(x, keyrate.key_rate_bound(spec.statistics(x)).bound))
    print(f"rows={spec.grid_size()}")
    print(f"out={spec.output_path}")
    return EXIT_OK


def _parse_fix(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    name = name.strip()
    if not sep or name not in ("b", "q"):
        raise ValueError(f"--fix expects b=<real> or q=<real>, got {text!r}")
    return name, float(value)


def cmd_threshold(args) -> int:
    name, value = _parse_fix(args.fix)
    if name == "b":
        q_star = keyrate.threshold_q(value, args.tol)
        if q_star is None:
            print("q_star=none")
        else:
            print(f"q_star={fmt(q_star)}")
            print(f"Q_Z_star={fmt(q_star / 2.0)}")
    else:
        b_star = keyrate.threshold_b(value, args.tol)
        if b_star is None:
            print("b_star=none")
        else:
            print(f"b_star={fmt(b_star)}")
            print(f"Q_X_star={fmt(keyrate.x_error_from_bias(b_star))}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    has_channel = args.q is not None or args.b is not None
    if (args.attack is not None) == has_channel:
        raise ValueError("provide either --q and --b or --attack")
    if args.attack is not None:
        attack = attacks.load_attack(args.attack)
    else:
        if args.q is None or args.b is None:
            raise ValueError("--q and --b must be given together")
        attack = attacks.depolarizing_attack(args.b, args.q)
    cfg = protocol.ProtocolConfig(
        n=args.n, seed=args.seed, delta=args.delta, p_t=args.pt,
    )
    # the export file is opened before the run, so that a path that cannot be
    # written fails at once, and held open until the export is written, so
    # that the reader of a FIFO sees one stream
    with open(args.export, "wb") if args.export is not None else contextlib.nullcontext():
        transcript = protocol.run_protocol(cfg, attack)
        if args.export is not None:
            transcript.to_csv(args.export)
    for line in transcript.summary_lines():
        print(line)
    estimate, _ = transcript.estimates()
    if np.isnan(estimate).any():
        print("bound=none")
    else:
        try:
            report = keyrate.key_rate_bound(attacks.Statistics(*estimate))
        except ValueError as exc:
            print("bound=none")
            print(f"bound_error={exc}")
        else:
            # prefix the report keys so they cannot collide with the
            # transcript summary (both carry an abort field)
            for line in keyrate.format_report(report).splitlines():
                key, _, value = line.partition("=")
                print(line if key == "bound" else f"bound_{key}={value}")
    return EXIT_ABORT if transcript.abort_reason else EXIT_OK


def cmd_validate(args) -> int:
    bias, vectors = attacks.parse_attack_file(args.attack)
    dev = attacks.attack_deviations(**vectors)
    worst = max(dev.values())
    print(f"b={fmt(bias)}")
    print(f"orthogonality_deviation={fmt(dev['orthogonality'])}")
    print(f"norm0_deviation={fmt(dev['norm0'])}")
    print(f"norm1_deviation={fmt(dev['norm1'])}")
    print(f"max_deviation={fmt(worst)}")
    ok = worst <= attacks.ATOL
    print(f"status={'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_ABORT


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
    p.add_argument("--pt", type=float, default=0.1, help="error-rate abort threshold")
    p.add_argument("--delta", type=float, default=0.25, help="round overhead factor")
    p.add_argument("--export", default=None, help="write the transcript CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="check an attack file against the unitarity constraints")
    p.add_argument("--attack", required=True, help="attack specification file")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
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
        code = args.func(args)
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
