#!/usr/bin/env python3
"""Compare Monte Carlo estimates against the exact attack statistics.

Runs the protocol for a grid of depolarizing channels, prints each estimated
statistic with its deviation in standard errors, and compares the key-rate
bound recomputed from the estimates with the closed form f(b, q).
"""

import argparse

from sqkd.attacks import STAT_FIELDS, Statistics, compute_statistics, depolarizing_attack
from sqkd.keyrate import depolarizing_bound, key_rate_bound
from sqkd.protocol import ProtocolConfig, run_protocol


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=80_000, help="raw key length per run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    for b in (0.0, 0.2):
        for q in (0.0, 0.05, 0.1):
            attack = depolarizing_attack(b, q)
            cfg = ProtocolConfig(n=args.n, seed=args.seed)
            tr = run_protocol(cfg, attack)
            analytic = compute_statistics(attack)
            print(f"\nb={b}  q={q}  rounds={tr.n_rounds}  abort={tr.abort_reason}")
            value, se = tr.estimates, tr.se
            for name, v, v_se in zip(STAT_FIELDS, value, se):
                true = b if name == "bias" else getattr(analytic, name)[0]
                z = abs(v - true) / v_se if v_se else 0.0
                print(f"  {name:10s} est={v:.5f}  exact={true:.5f}  |z|={z:.2f}")
            est_bound = key_rate_bound(Statistics(*value)).bound[0]
            print(f"  bound from estimates: {est_bound:.5f}   f(b,q): {depolarizing_bound(b, q):.5f}")


if __name__ == "__main__":
    main()
