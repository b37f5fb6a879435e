"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -rA  to see every line.
"""

import math
import time

import numpy as np
import pytest

import oracle
from conftest import fragments_of, random_attack
from sqkd import cli
from sqkd.attacks import compute_statistics, depolarizing_attack
from sqkd.keyrate import (
    _lambda,
    depolarizing_bound,
    depolarizing_stats,
    key_rate_bound,
    threshold_b,
    threshold_q,
    x_error_from_bias,
)
from sqkd.protocol import ProtocolConfig, run_protocol

STAT_FIELDS = ("p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus")


def report(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


def kv(out):
    return {k: v for k, _, v in (l.partition("=") for l in out.splitlines() if "=" in l)}


def test_criterion_01_noiseless_sanity(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "bound", "--b", "0", "--q", "0")
    bound = float(kv(out)["bound"])
    tr = run_protocol(ProtocolConfig(n=1000, seed=1), depolarizing_attack(0.0, 0.0))
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and abs(bound - 1.0) <= 1e-12
        and tr.abort_reason is None
        and np.array_equal(tr.raw_key_alice, tr.raw_key_bob)
        and elapsed < 1.0
    )
    report(1, "noiseless bound = 1 and identical raw keys", ok,
           f"bound={bound!r}, keys equal={np.array_equal(tr.raw_key_alice, tr.raw_key_bob)}, {elapsed:.2f}s")


def test_criterion_02_noise_threshold_at_zero_bias():
    t0 = time.perf_counter()
    q_star = threshold_q(0.0)
    elapsed = time.perf_counter() - t0
    ok = (
        q_star is not None
        and abs(q_star - 0.193) <= 0.002
        and abs(q_star / 2 - 0.0965) <= 0.001
        and elapsed < 1.0
    )
    report(2, "q* = 0.193 +- 0.002 and Q_Z* = 9.65% +- 0.1%", ok,
           f"q*={q_star}, Q_Z*={None if q_star is None else q_star / 2}, {elapsed:.2f}s")


def test_criterion_03_bias_threshold_at_zero_noise():
    # The paper quotes a bias threshold b* = 0.36 with Q_X(b*) = 15.3%.  In
    # this attack model q = 0 gives k1 = 1, k2 = 0 and lambda = 1, so
    # f(b, 0) = h(1/2 + b), which has no zero inside |b| < 1/2; the exact
    # rate below confirms it.  Which quantity the 0.36 describes cannot be
    # derived from this model or from PAPER.md, so the check is the
    # boundary the model gives (the endpoint 1/2) plus the Q_X conversion.
    # The exact rate S(B|E) - H(B|A) comes from dense density matrices in
    # the oracle, which shares no formula with the bound.
    t0 = time.perf_counter()
    b_star = threshold_b(0.0)
    q_x = None if b_star is None else x_error_from_bias(b_star)
    worst_closed = worst_exact = 0.0
    min_open = math.inf
    for b in np.linspace(-0.5, 0.5, 41):
        h = float(oracle.h2(0.5 + b))
        f = depolarizing_bound(b, 0.0)
        atk = depolarizing_attack(b, 0.0)
        exact = oracle.exact_rate(b, fragments_of(atk))
        worst_closed = max(worst_closed, abs(f - h))
        worst_exact = max(worst_exact, abs(f - exact))
        if abs(b) < 0.5:
            min_open = min(min_open, f)
    f_036 = depolarizing_bound(0.36, 0.0)
    elapsed = time.perf_counter() - t0
    ok = (
        b_star == 0.5
        and q_x == 0.5
        and worst_closed <= 1e-12
        and worst_exact <= 1e-12
        and min_open > 0.0
        and f_036 == pytest.approx(float(oracle.h2(0.86)), abs=1e-12)
        and abs(x_error_from_bias(0.36) - 0.153) <= 0.002
        and elapsed < 1.0
    )
    report(3, "b*(q=0) = 1/2 with Q_X = 1/2, f(b,0) = h(1/2+b) = exact rate within 1e-12, "
           "Q_X(0.36) = 15.3% +- 0.2%", ok,
           f"b*={b_star!r}, Q_X={q_x!r}, |f-h|={worst_closed:.2e}, |f-exact|={worst_exact:.2e}, "
           f"min f on open interval={min_open:.3g}, f(0.36,0)={f_036:.4f}, "
           f"Q_X(0.36)={x_error_from_bias(0.36):.4f}, {elapsed:.2f}s")


def test_criterion_04_always_negative_above_point_two():
    t0 = time.perf_counter()
    grid = np.arange(-0.45, 0.4501, 0.005)
    worst = max(depolarizing_bound(b, 0.21) for b in grid)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.0 and elapsed < 5.0
    report(4, "max_b f(b, 0.21) < 0", ok, f"max={worst:.6f}, {elapsed:.2f}s")


def test_criterion_05_closed_form_equals_general_form():
    t0 = time.perf_counter()
    b, q = np.meshgrid(np.linspace(-0.5, 0.5, 50), np.linspace(0.0, 1.0, 50), indexing="ij")
    general = key_rate_bound(depolarizing_stats(b, q)).bound  # one kernel call over the grid
    worst = 0.0
    for f, bi, qi in zip(general.tolist(), b.ravel().tolist(), q.ravel().tolist()):
        worst = max(worst, abs(f - depolarizing_bound(bi, qi)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(5, "general bound equals f(b,q) within 1e-12 on a 50x50 grid", ok,
           f"worst diff={worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_kraus_dilation_reproduces_closed_form_statistics():
    t0 = time.perf_counter()
    worst = 0.0
    for b in np.linspace(-0.5, 0.5, 20):
        for q in np.linspace(0.0, 1.0, 20):
            got = compute_statistics(depolarizing_attack(b, q))
            want = depolarizing_stats(b, q)
            for name in STAT_FIELDS:
                worst = max(worst, abs(getattr(got, name)[0] - getattr(want, name)[0]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(6, "depolarizing dilation statistics match within 1e-12 on a 20x20 grid", ok,
           f"worst diff={worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_eigenvalue_oracle_and_bound_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_eig = 0.0
    worst_gap = -math.inf
    for _ in range(1000):
        atk = random_attack(rng)
        stats = compute_statistics(atk)
        p00, p11 = stats.p00[0], stats.p11[0]
        overlap = atk.alpha * atk.beta * complex(np.vdot(atk.e00, atk.e11))
        k1 = p00 + p11
        m = np.array([[p00, overlap], [overlap.conjugate(), p11]]) / k1
        # the bound's lambda formula at the true overlap is the larger eigenvalue
        closed = float(_lambda(p00, p11, abs(overlap)))
        generic = np.linalg.eigvalsh(m)[-1]
        worst_eig = max(worst_eig, abs(closed - generic))
        # exact entropy of Eve's matched-bit state vs the h(lambda) bound
        rho0 = (atk.alpha**2 * np.outer(atk.e00, atk.e00.conj())
                + atk.beta**2 * np.outer(atk.e11, atk.e11.conj())) / k1
        w = np.clip(np.linalg.eigvalsh(rho0), 0.0, 1.0)
        w = w[w > 0.0]
        s_exact = max(0.0, float(-(w * np.log2(w)).sum()))
        lam = key_rate_bound(stats).lam[0]
        h_lam = float(oracle.h2(lam))
        worst_gap = max(worst_gap, s_exact - h_lam)
    elapsed = time.perf_counter() - t0
    ok = worst_eig <= 1e-10 and worst_gap <= 1e-10 and elapsed < 10.0
    report(7, "closed-form eigenvalues match eigvalsh and h(lambda) >= S(rho0_E)", ok,
           f"worst eig diff={worst_eig:.2e}, worst entropy gap={worst_gap:.2e}, {elapsed:.2f}s")


@pytest.mark.parametrize("q,b,seed", [
    (0.0, 0.0, 101), (0.05, 0.0, 102), (0.1, 0.0, 103),
    (0.0, 0.2, 104), (0.05, 0.2, 105), (0.1, 0.2, 106),
])
def test_criterion_08_monte_carlo_consistency(q, b, seed):
    t0 = time.perf_counter()
    attack = depolarizing_attack(b, q)
    cfg = ProtocolConfig(n=80_000, seed=seed, delta=0.25)  # exactly 8e5 rounds
    tr = run_protocol(cfg, attack)
    assert tr.n_rounds == 800_000
    analytic = compute_statistics(attack)
    bad = []
    for name in ("bias",) + STAT_FIELDS:
        est = getattr(tr.estimated, name)
        true = b if name == "bias" else getattr(analytic, name)[0]
        if abs(est.value - true) > 4 * est.se:
            bad.append(f"{name}: est={est.value:.5f} true={true:.5f} se={est.se:.2e}")
    est_bound = key_rate_bound(tr.estimated.to_observed()).bound[0]
    f_true = depolarizing_bound(b, q)
    elapsed = time.perf_counter() - t0
    ok = not bad and abs(est_bound - f_true) <= 0.05 and elapsed < 60.0
    report(8, f"Monte Carlo estimates track analytic values (q={q}, b={b})", ok,
           f"bound diff={abs(est_bound - f_true):.4f}, field misses={bad or 'none'}, {elapsed:.1f}s")


def test_criterion_09_unitarity_and_marginal_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_unitarity = 0.0
    worst_marginal = 0.0
    for _ in range(1000):
        atk = random_attack(rng, ancilla_dim=int(rng.integers(1, 5)))
        n00 = float(np.vdot(atk.e00, atk.e00).real)
        n01 = float(np.vdot(atk.e01, atk.e01).real)
        n10 = float(np.vdot(atk.e10, atk.e10).real)
        n11 = float(np.vdot(atk.e11, atk.e11).real)
        worst_unitarity = max(
            worst_unitarity,
            abs(complex(np.vdot(atk.e00, atk.e10) + np.vdot(atk.e01, atk.e11))),
            abs(n00 + n01 - 1.0),
            abs(n10 + n11 - 1.0),
        )
        stats = compute_statistics(atk)
        worst_marginal = max(
            worst_marginal,
            abs(stats.p00[0] + stats.p10[0] - (0.5 + atk.bias)),
            abs(stats.p01[0] + stats.p11[0] - (0.5 - atk.bias)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_unitarity <= 1e-12 and worst_marginal <= 1e-10 and elapsed < 10.0
    report(9, "unitarity constraints within 1e-12 and bias marginals within 1e-10", ok,
           f"unitarity={worst_unitarity:.2e}, marginals={worst_marginal:.2e}, {elapsed:.2f}s")


def test_criterion_10_determinism_of_exports(capsys, tmp_path):
    t0 = time.perf_counter()
    sim_args = ("simulate", "--n", "2000", "--seed", "42", "--q", "0.1", "--b", "0")
    a, b = tmp_path / "t1.csv", tmp_path / "t2.csv"
    code1, out1 = run_cli(capsys, *sim_args, "--export", str(a))
    code2, out2 = run_cli(capsys, *sim_args, "--export", str(b))
    sweep_args = ("sweep", "--var", "q", "--fixed", "0", "--start", "0", "--stop", "0.5", "--step", "0.001")
    c, d = tmp_path / "s1.csv", tmp_path / "s2.csv"
    code3, _ = run_cli(capsys, *sweep_args, "--out", str(c))
    code4, _ = run_cli(capsys, *sweep_args, "--out", str(d))
    elapsed = time.perf_counter() - t0
    ok = (
        code1 == code2 == code3 == code4 == 0
        and out1 == out2
        and a.read_bytes() == b.read_bytes()
        and c.read_bytes() == d.read_bytes()
        and elapsed < 30.0
    )
    report(10, "repeated simulate and sweep runs are byte-identical", ok, f"{elapsed:.2f}s")
