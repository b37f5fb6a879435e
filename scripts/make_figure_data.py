#!/usr/bin/env python3
"""Tabulate the depolarizing key-rate bound for plotting.

Writes three CSV files into --outdir:
  noise_sweep.csv   f(b, q) vs q for several bias values
  bias_sweep.csv    f(b, q) vs b for several noise values
  thresholds.csv    q* and Q_Z* = q*/2 vs bias

Any plotting tool can consume them; the package itself does not plot.
"""

import argparse
import os

import numpy as np

from sqkd.fileio import csv_rows, fmt
from sqkd.keyrate import depolarizing_stats, key_rate_bound, threshold_q

BIAS_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4)
NOISE_VALUES = (0.0, 0.05, 0.1, 0.15, 0.2)


def _bound_column(b, q):
    """The general bound over a grid of b or q: one kernel call per column."""
    return key_rate_bound(depolarizing_stats(b, q)).bound


def _write_table(path, header, x, columns):
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(csv_rows(x, *columns))


def write_noise_sweep(path, n_points=400):
    q = 0.3 * np.arange(n_points + 1) / n_points
    _write_table(path, "q," + ",".join(f"f_b{b:g}" for b in BIAS_VALUES) + "\n",
                 q, [_bound_column(b, q) for b in BIAS_VALUES])


def write_bias_sweep(path, n_points=400):
    b = -0.5 + np.arange(n_points + 1) / n_points
    _write_table(path, "b," + ",".join(f"f_q{q:g}" for q in NOISE_VALUES) + "\n",
                 b, [_bound_column(b, q) for q in NOISE_VALUES])


def write_thresholds(path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("b,q_star,Q_Z_star\n")
        for i in range(50):
            b = i / 100.0
            q_star = threshold_q(b, tol=1e-6)
            if q_star is None:
                fh.write(f"{fmt(b)},none,none\n")
            else:
                fh.write(f"{fmt(b)},{fmt(q_star)},{fmt(q_star / 2)}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    write_noise_sweep(os.path.join(args.outdir, "noise_sweep.csv"))
    write_bias_sweep(os.path.join(args.outdir, "bias_sweep.csv"))
    write_thresholds(os.path.join(args.outdir, "thresholds.csv"))
    print(f"wrote noise_sweep.csv, bias_sweep.csv, thresholds.csv to {args.outdir}/")


if __name__ == "__main__":
    main()
