import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from conftest import random_attack, save_statistics
from sqkd import cli
from sqkd.attacks import (
    STAT_FIELDS as COLUMN_FIELDS,
    RestrictedAttack,
    Statistics,
    compute_statistics,
)
from sqkd.fileio import ParseError, kv_text
from sqkd.keyrate import (
    COARSE_STEP,
    _lambda,
    depolarizing_bound,
    depolarizing_stats,
    key_rate_bound,
    load_statistics,
    report_items,
    threshold_b,
    threshold_q,
    x_error_from_bias,
)

STAT_FIELDS = ("p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus")

IDENTITY_STATS = Statistics(
    bias=0.0, p00=0.5, p01=0.0, p10=0.0, p11=0.5,
    p_e_minus=0.0, p0_plus=0.25, p1_plus=0.25,
)


def binary_entropy(x, log2=np.log2):
    """h(x) of a Python float, 0 at both ends: the scalar reference.

    The default log2 is numpy's, the kernel's; math.log2 gives libm's, the one
    depolarizing_bound takes.
    """
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * log2(x) - (1.0 - x) * log2(1.0 - x))


def libm_square(d):
    return d ** 2


def numpy_square(d):
    return d * d


def overlap_bound(stats):
    """The report's (B, clamped) of a one-point Statistics."""
    report = key_rate_bound(stats)
    return report.B_lower[0], report.B_clamped[0]


# ----------------------------------------------------------- overlap bound


def test_bound_B_identity():
    value, clamped = overlap_bound(IDENTITY_STATS)
    assert value == pytest.approx(0.5, abs=1e-15)
    assert not clamped


def test_bound_B_depolarizing_closed_form():
    for b in np.linspace(-0.45, 0.45, 7):
        for q in np.linspace(0.0, 0.66, 7):
            value, clamped = overlap_bound(depolarizing_stats(b, q))
            want = (0.5 - 0.75 * q) * math.sqrt(1 - 4 * b * b)
            assert value == pytest.approx(want, abs=1e-12)
            if clamped:
                # at q = 0 the raw value and the ceiling are equal up to
                # round-off, so the cap may fire on a 1-ulp difference
                assert q == 0.0


def test_bound_B_negative_for_very_noisy_channel():
    value, clamped = overlap_bound(depolarizing_stats(0.0, 0.7))
    assert value == pytest.approx(-0.025, abs=1e-12)
    assert not clamped


def test_bound_B_is_capped_at_cauchy_schwarz_ceiling():
    stats = Statistics(
        bias=0.0, p00=0.5, p01=0.25, p10=0.25, p11=0.0,
        p_e_minus=0.0, p0_plus=0.0, p1_plus=0.0,
    )
    value, clamped = overlap_bound(stats)
    assert clamped
    assert value == 0.0  # ceiling sqrt(p00 p11) = 0
    report = key_rate_bound(stats)
    assert report.B_clamped[0] and not report.abort[0]


# ----------------------------------------------------------------- lambda


def test_lambda_from_known_values():
    assert _lambda(0.3, 0.3, 0.0) == 0.5
    assert _lambda(0.3, 0.3, 0.3) == 1.0
    for b in (0.0, 0.2, -0.3):
        for q in (0.0, 0.1, 0.5):
            big_b = max(0.0, (0.5 - 0.75 * q) * math.sqrt(1 - 4 * b * b))
            want = 0.5 + math.sqrt(b * b * (2 - q) ** 2 + 4 * big_b ** 2) / (2 - q)
            stats = depolarizing_stats(b, q)
            assert _lambda(stats.p00, stats.p11, big_b)[0] == pytest.approx(min(want, 1.0), abs=1e-12)
            assert key_rate_bound(stats).lam[0] == pytest.approx(min(want, 1.0), abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(5e-324, 0.0, 0.5)  # p00 + p11 subnormal: the quotient overflows
def test_lambda_from_stays_in_range(p00, p11, b_val):
    if p00 + p11 <= 0:
        return
    assert 0.5 <= _lambda(p00, p11, b_val) <= 1.0


# -------------------------------------------------------------- the bound


def test_noiseless_bound_is_exactly_one():
    report = key_rate_bound(IDENTITY_STATS)
    assert report.bound[0] == pytest.approx(1.0, abs=1e-12)
    assert report.lam[0] == pytest.approx(1.0, abs=1e-15)
    assert report.k0[0] == 0.0 and report.k2[0] == 0.0
    assert report.h_A[0] == 1.0
    assert not report.abort[0] and not report.B_clamped[0]


def test_bound_near_zero_at_the_noise_threshold():
    # frozen oracle values for the depolarizing closed form at b = 0
    assert key_rate_bound(depolarizing_stats(0.0, 0.193)).bound[0] == pytest.approx(
        0.002794788196, abs=1e-9)
    assert key_rate_bound(depolarizing_stats(0.0, 0.3)).bound[0] == pytest.approx(
        -0.331290899231, abs=1e-9)


def test_bound_reports_abort_beyond_two_thirds_noise():
    report = key_rate_bound(depolarizing_stats(0.0, 0.7))
    assert report.abort[0]
    assert report.B_lower[0] == pytest.approx(-0.025, abs=1e-12)
    assert report.bound[0] < 0


def test_degenerate_k1_zero_skips_lambda():
    stats = Statistics(
        bias=0.0, p00=0.0, p01=0.5, p10=0.5, p11=0.0,
        p_e_minus=0.0, p0_plus=0.25, p1_plus=0.25,
    )
    report = key_rate_bound(stats)
    assert math.isnan(report.lam[0])
    assert report.k1[0] == 0.0
    assert report.bound[0] == pytest.approx(0.0, abs=1e-12)


def test_bound_never_exceeds_the_exact_rate():
    # S(B|E) - H(B|A) from dense matrices in the oracle, which shares no
    # formula with the bound.  Half the attacks are Haar random; the other
    # half lie near the identity, where the bound is nearly tight.
    rng = np.random.default_rng(808)
    near_gap = math.inf
    for k in range(800):
        d = 1 + k % 4
        b = float(rng.uniform(-0.45, 0.45))
        if k < 400:
            u = oracle.haar_unitary(2 * d, rng)
        else:
            u = oracle.near_identity_unitary(2 * d, float(10.0 ** rng.uniform(-3.0, math.log10(0.3))), rng)
        frags = oracle.fragments(u)
        bound = key_rate_bound(compute_statistics(RestrictedAttack(b, **frags))).bound[0]
        gap = oracle.exact_rate(b, frags) - bound
        assert gap >= -1e-10, (k, b, gap)
        if k >= 400:
            near_gap = min(near_gap, gap)
    # the battery reaches the bound closely enough to show an error of 1e-5
    assert near_gap < 1e-5


def test_bound_equals_the_exact_rate_on_dephasing():
    # the dephasing dilation, Kraus operators sqrt(1 - g/2) I and sqrt(g/2) Z
    # with e_ij[k] = (K_k)_{j,i}, is a family on which the bound is tight
    for g in np.linspace(0.0, 1.0, 21):
        kraus = [math.sqrt(1.0 - g / 2.0) * np.eye(2), math.sqrt(g / 2.0) * np.diag([1.0, -1.0])]
        frags = {f"e{i}{j}": np.array([k[j, i] for k in kraus], dtype=complex) for i in (0, 1) for j in (0, 1)}
        for b in np.linspace(-0.49, 0.49, 15):
            bound = key_rate_bound(compute_statistics(RestrictedAttack(b, **frags))).bound[0]
            gap = abs(bound - oracle.exact_rate(b, frags))
            assert gap <= 1e-12, (g, b, gap)


def test_report_internal_identities():
    rng = np.random.default_rng(37)
    report = key_rate_bound(_columns([compute_statistics(random_attack(rng)) for _ in range(300)]))
    assert report.k1 + report.k2 == pytest.approx(1.0, abs=1e-9)
    assert (report.bound <= 1.0 + 1e-12).all()
    lam = report.lam[~np.isnan(report.lam)]
    assert ((0.5 <= lam) & (lam <= 1.0)).all()


# ---------------------------------------------------------- batched kernel

REPORT_FIELDS = ("bound", "B_lower", "B_clamped", "lam", "k0", "k1", "k2", "h_A", "abort")

# the clamp, k1 = 0 (lambda undefined) and a sign-bit corner, next to ordinary points
CORNER_STATS = [
    Statistics(bias=0.0, p00=0.5, p01=0.25, p10=0.25, p11=0.0,
               p_e_minus=0.0, p0_plus=0.0, p1_plus=0.0),
    Statistics(bias=0.0, p00=0.0, p01=0.5, p10=0.5, p11=0.0,
               p_e_minus=0.0, p0_plus=0.25, p1_plus=0.25),
    Statistics(bias=0.0, p00=-0.0, p01=0.5, p10=0.5, p11=-0.0,
               p_e_minus=0.3, p0_plus=0.25, p1_plus=0.25),
    # clamped; (p00 - p11)**2 rounds differently through libm pow and x*x,
    # which moves lambda between 1 and 1 - 1 ulp
    Statistics(bias=0.0, p00=0.5895080488549757, p01=0.09590841958795485,
               p10=0.2551881455122541, p11=0.059395386044815396,
               p_e_minus=0.0, p0_plus=0.0, p1_plus=0.0),
    IDENTITY_STATS,
]


def _sample_stats():
    rng = np.random.default_rng(41)
    stats = [compute_statistics(random_attack(rng, ancilla_dim=1 + k % 4)) for k in range(200)]
    # q > 2/3 aborts; at q = 0 the cap fires on round-off for some b
    stats += [depolarizing_stats(b, q) for b in np.linspace(-0.5, 0.5, 41) for q in (0.0, 0.1, 0.19, 0.7, 1.0)]
    return stats + CORNER_STATS


def _columns(stats):
    """One Statistics holding the points of all the given ones, in order."""
    return Statistics(**{name: np.concatenate([getattr(s, name) for s in stats]) for name in COLUMN_FIELDS})


def _point(stats):
    """The fields of a one-point Statistics as Python floats, for _reference_report."""
    return SimpleNamespace(**{name: getattr(stats, name).item() for name in COLUMN_FIELDS})


def _reference_report(stats, log2=np.log2, square=numpy_square):
    """The bound written out point by point as a scalar formula.

    With numpy's log2 and d * d, the kernel's functions, the kernel must give
    its doubles bit for bit; math.log2 and ``d ** 2`` give libm's formula.
    """
    raw = 1.0 - stats.p_e_minus - stats.p0_plus - stats.p1_plus - math.sqrt(
        max(stats.p01, 0.0) * max(stats.p10, 0.0))
    ceiling = math.sqrt(max(stats.p00, 0.0) * max(stats.p11, 0.0))
    big_b, clamped = (ceiling, True) if raw > ceiling else (raw, False)
    k1 = min(max(stats.p00 + stats.p11, 0.0), 1.0)
    k2 = min(max(stats.p01 + stats.p10, 0.0), 1.0)
    h_a = binary_entropy(min(max(stats.p00 + stats.p01, 0.0), 1.0), log2)
    lam = None
    h_lam = 0.0
    if k1 != 0.0:
        b_pos = max(big_b, 0.0)
        lam = 0.5 + math.sqrt(square(stats.p00 - stats.p11) + 4.0 * b_pos * b_pos) / (
            2.0 * (stats.p00 + stats.p11))
        lam = min(max(lam, 0.5), 1.0)
        h_lam = binary_entropy(lam, log2)
    k0 = binary_entropy(k1, log2)
    return dict(bound=h_a - k0 - k2 - k1 * h_lam, B_lower=big_b, B_clamped=clamped, lam=lam,
                k0=k0, k1=k1, k2=k2, h_A=h_a, abort=not clamped and big_b <= 0.0)


def _same_bits(a, b):
    return a is b or (type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes())


def test_kernel_gives_the_scalar_formula_bit_for_bit():
    for stats in _sample_stats():
        got = key_rate_bound(stats)
        want = _reference_report(_point(stats))
        for name in REPORT_FIELDS:
            value = getattr(got, name)[0].item()
            if name == "lam" and want["lam"] is None:
                assert math.isnan(value), stats
            else:
                assert _same_bits(value, want[name]), (name, stats)


def test_log2_gives_one_double_at_any_layout():
    # what makes a batch equal one-at-a-time calls, and sweep rows
    # independent of SWEEP_CHUNK: np.log2 of an element does not depend on
    # the length, offset or stride of the array around it, nor on whether it
    # is a Python float
    rng = np.random.default_rng(29)
    x = np.concatenate([
        rng.uniform(0.0, 1.0, 18000),
        10.0 ** rng.uniform(-300.0, 0.0, 6000),  # near 0
        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 6000),  # near 1
        [5e-324, 2.2250738585072014e-308, 0.5, np.nextafter(1.0, 0.0)],
    ])
    x = x[(0.0 < x) & (x < 1.0)]
    assert len(x) > 29000
    want = np.log2(x)
    assert np.log2(x.copy()).tobytes() == want.tobytes()
    even = len(x) // 2 * 2
    assert np.log2(x[:even].reshape(-1, 2).T).T.ravel().tobytes() == want[:even].tobytes()
    # positive strides only: numpy 2.4 takes a reversed view through another
    # loop, libm's, while the kernel's arrays are all freshly made
    for view in (slice(1, None), slice(3, -2), slice(None, None, 2), slice(1, None, 3), slice(5, None, 64)):
        assert np.log2(x[view]).tobytes() == want[view].tobytes(), view
    for n in range(1, 34):  # every SIMD tail
        for start in range(0, len(x), 40 * n):
            assert np.log2(x[start:start + n].copy()).tobytes() == want[start:start + n].tobytes(), (n, start)
    floats = x.tolist()
    assert np.array([np.log2(xi) for xi in floats]).tobytes() == want.tobytes()
    assert np.array([np.log2(np.array([xi]))[0] for xi in floats]).tobytes() == want.tobytes()
    # the kernel takes log2(1 - x) of the whole array; the reference of each float
    assert np.log2(1.0 - x).tobytes() == np.array([np.log2(1.0 - xi) for xi in floats]).tobytes()
    d = rng.uniform(-1.0, 1.0, 30000)
    assert (d * d).tobytes() == np.square(d).tobytes() == np.array([di * di for di in d.tolist()]).tobytes()


def test_kernel_stays_within_1e_14_of_the_libm_formula():
    # the kernel's doubles are numpy's; libm's log2 and d ** 2 give doubles
    # that differ by an ulp on a few tenths of a percent of inputs
    rng = np.random.default_rng(43)
    stats = _sample_stats() + [compute_statistics(random_attack(rng, ancilla_dim=1 + k % 4)) for k in range(3000)]
    got = key_rate_bound(_columns(stats))
    worst = 0.0
    for i, one in enumerate(stats):
        want = _reference_report(_point(one), math.log2, libm_square)
        for name in ("bound", "k0", "h_A", "lam"):
            value = getattr(got, name)[i].item()
            if name == "lam" and want["lam"] is None:
                assert math.isnan(value), i
            else:
                worst = max(worst, abs(value - want[name]))
    assert worst <= 1e-14


def test_batch_matches_one_at_a_time_bit_for_bit():
    stats = _sample_stats()
    batch = key_rate_bound(_columns(stats))
    assert batch.abort.any() and batch.B_clamped.any() and np.isnan(batch.lam).any()
    for i, one in enumerate(stats):
        single = key_rate_bound(one)
        for name in REPORT_FIELDS:
            value = getattr(batch, name)[i].item()
            if name == "lam" and math.isnan(single.lam[0]):
                assert math.isnan(value)
            else:
                assert _same_bits(value, getattr(single, name)[0].item()), (name, i)


def test_depolarizing_stats_columns_equal_scalar_calls():
    b = np.linspace(-0.5, 0.5, 21)
    for q in (0.0, 0.3, 1.0):
        columns = depolarizing_stats(b, q)
        assert isinstance(columns, Statistics) and columns.p00.shape == b.shape
        for i, bi in enumerate(b.tolist()):
            one = depolarizing_stats(bi, q)
            for name in COLUMN_FIELDS:
                assert _same_bits(getattr(columns, name)[i].item(), getattr(one, name).item()), (name, i)


def _run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one sqkd command."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# the message of each depolarizing argument check, worded as it was while the
# statistics of one point were a class of their own
@pytest.mark.parametrize("b, q, message", [
    pytest.param([0.1, 0.2, 0.6, 0.7], 0.1, "bias must lie in [-1/2, 1/2], got 0.6", id="b0-0.1"),
    pytest.param(0.1, [0.0, 0.5, float("nan"), 2.0], "depolarizing parameter must lie in [0, 1], got nan",
                 id="0.1-q1"),
    pytest.param([0.0, 0.0, float("inf")], [0.1, -0.1, 0.1], "depolarizing parameter must lie in [0, 1], got -0.1",
                 id="b2-q2"),
    pytest.param([0.0, 0.7], [1.5, 0.1], "depolarizing parameter must lie in [0, 1], got 1.5", id="b3-q3"),
])
def test_depolarizing_stats_columns_reject_the_first_bad_point(capsys, b, q, message):
    bb, qq = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(q, dtype=float))
    first = next(i for i in range(bb.size) if not (-0.5 <= bb[i] <= 0.5 and 0.0 <= qq[i] <= 1.0))
    bad_b, bad_q = bb[first].item(), qq[first].item()
    # the batch, its first bad point alone, and that point ahead of a later bad one
    for args in ((b, q), (bad_b, bad_q), ([0.0, 0.1, bad_b, 0.7], [0.1, 0.1, bad_q, 1.5])):
        with pytest.raises(ValueError) as exc:
            depolarizing_stats(*args)
        assert str(exc.value) == message
    code, out, err = _run_cli(capsys, "bound", "--b", repr(bad_b), "--q", repr(bad_q))
    assert code == 1 and out == "" and err == f"sqkd: error: {message}\n"


# the message of each statistics check, worded as it was while the statistics
# of one point were a class of their own, and the number of checks the point
# fails: where it fails several, the earliest in this order words the error
STATISTICS_CHECKS = [
    ({"bias": 0.6}, "bias must lie in [-1/2, 1/2], got 0.6", 2),
    ({"bias": float("nan")}, "bias must lie in [-1/2, 1/2], got nan", 3),
    ({"bias": 0.6, "p0_plus": 0.76}, "bias must lie in [-1/2, 1/2], got 0.6", 2),
    ({"bias": -0.6, "p00": -0.1, "p0_plus": 0.3}, "bias must lie in [-1/2, 1/2], got -0.6", 4),
    ({"p00": -0.1}, "p00 must lie in [0, 1], got -0.1", 2),
    ({"p10": float("inf")}, "p10 must lie in [0, 1], got inf", 2),
    ({"p10": float("inf"), "p1_plus": 0.6}, "p10 must lie in [0, 1], got inf", 3),
    ({"p11": 1.2}, "p11 must lie in [0, 1], got 1.2", 2),
    ({"p_e_minus": float("nan")}, "p_e_minus must lie in [0, 1], got nan", 1),
    ({"p_e_minus": float("nan"), "p01": 0.2, "p1_plus": 0.51}, "p_e_minus must lie in [0, 1], got nan", 3),
    ({"p01": 0.2}, "p00+p01+p10+p11 must equal 1, got 1.2", 1),
    ({"p01": 0.2, "p0_plus": 0.76}, "p00+p01+p10+p11 must equal 1, got 1.2", 2),
    ({"p0_plus": 0.76}, "p0_plus=0.76 exceeds 1/2+b=0.5", 1),
    ({"p0_plus": 0.76, "p1_plus": 0.51}, "p0_plus=0.76 exceeds 1/2+b=0.5", 2),
    ({"p1_plus": 0.51}, "p1_plus=0.51 exceeds 1/2-b=0.5", 1),
]


def _failed_checks(point):
    """How many checks of Statistics one point fails, by plain comparisons."""
    b, p00, p01, p10, p11, _, p0_plus, p1_plus = (point[name] for name in COLUMN_FIELDS)
    ranges = [not -0.5 <= b <= 0.5] + [not -1e-9 <= point[name] <= 1.0 + 1e-9 for name in COLUMN_FIELDS[1:]]
    return sum(ranges) + (not abs(p00 + p01 + p10 + p11 - 1.0) <= 1e-9) \
        + (not p0_plus <= 0.5 + b + 1e-9) + (not p1_plus <= 0.5 - b + 1e-9)


@pytest.mark.parametrize("changes, message, failures", [
    pytest.param(changes, message, failures, id="-".join(f"{field}-{value}" for field, value in changes.items()))
    for changes, message, failures in STATISTICS_CHECKS
])
def test_statistics_columns_reject_the_first_bad_point(capsys, tmp_path, changes, message, failures):
    good = {name: getattr(IDENTITY_STATS, name).item() for name in COLUMN_FIELDS}
    bad = {**good, **changes}
    assert _failed_checks(good) == 0 and _failed_checks(bad) == failures
    also_bad = {**good, "p_e_minus": 2.0}
    with pytest.raises(ValueError) as one:
        Statistics(**bad)
    with pytest.raises(ValueError) as batch:
        Statistics(**{name: [p[name] for p in (good, good, bad, also_bad)] for name in COLUMN_FIELDS})
    assert str(one.value) == str(batch.value) == message
    if all(map(math.isfinite, changes.values())):  # a statistics file holds finite numbers only
        path = tmp_path / "stats.txt"
        oracle.write_statistics(path, {"b" if name == "bias" else name: bad[name] for name in COLUMN_FIELDS})
        assert _run_cli(capsys, "bound", "--stats", str(path)) == (1, "", f"sqkd: error: {message}\n")


# at b = 0.2, 1/2 + b + ATOL and 1/2 + ATOL + b are different doubles, and so
# are 1/2 - b + ATOL and 1/2 + ATOL - b: each check keeps its order of operations
@pytest.mark.parametrize("field, edge, beyond, message", [
    ("p0_plus", 0.7000000009999999, 0.700000001, "p0_plus=0.700000001 exceeds 1/2+b=0.7"),
    ("p1_plus", 0.300000001, 0.30000000100000007, "p1_plus=0.30000000100000007 exceeds 1/2-b=0.3"),
    ("p_e_minus", 1.000000001, 1.0000000010000003, "p_e_minus must lie in [0, 1], got 1.0000000010000003"),
    ("p_e_minus", -1e-09, -1.0000000000000003e-09, "p_e_minus must lie in [0, 1], got -1.0000000000000003e-09"),
], ids=["p0_plus", "p1_plus", "p_e_minus-top", "p_e_minus-bottom"])
def test_statistics_checks_end_at_the_same_double(field, edge, beyond, message):
    assert np.nextafter(edge, beyond) == beyond
    good = dict(bias=0.2, p00=0.7, p01=0.0, p10=0.0, p11=0.3, p_e_minus=0.0, p0_plus=0.35, p1_plus=0.15)

    def points(*values):
        """Statistics at `good` with `field` set to each value in turn."""
        return Statistics(**{name: [v if name == field else good[name] for v in values] for name in COLUMN_FIELDS})

    points(edge)
    points(good[field], edge, edge)
    for values in ((beyond,), (good[field], beyond, 2.0)):
        with pytest.raises(ValueError) as exc:
            points(*values)
        assert str(exc.value) == message


# ------------------------------------------------------------ closed forms


def test_depolarizing_stats_known_values():
    stats = depolarizing_stats(0.0, 0.2)
    assert stats.p00[0] == pytest.approx(0.45, abs=1e-12)
    assert stats.p01[0] == pytest.approx(0.05, abs=1e-12)
    assert stats.p10[0] == pytest.approx(0.05, abs=1e-12)
    assert stats.p11[0] == pytest.approx(0.45, abs=1e-12)
    assert stats.p_e_minus[0] == pytest.approx(0.1, abs=1e-12)
    assert stats.p0_plus[0] == pytest.approx(0.25, abs=1e-12)
    assert stats.p1_plus[0] == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        depolarizing_stats(0.6, 0.1)
    with pytest.raises(ValueError):
        depolarizing_stats(0.0, 1.1)
    # the bias is checked before the noise
    with pytest.raises(ValueError, match="bias must lie"):
        depolarizing_stats(0.6, 1.5)


def test_closed_form_equals_general_bound():
    for b in np.linspace(-0.5, 0.5, 21):
        for q in np.linspace(0.0, 1.0, 21):
            f = depolarizing_bound(b, q)
            g = key_rate_bound(depolarizing_stats(b, q)).bound[0]
            assert abs(f - g) <= 1e-12


def test_depolarizing_bound_known_values():
    assert depolarizing_bound(0.0, 0.0) == 1.0
    # frozen oracle values
    assert depolarizing_bound(0.0, 0.193) == pytest.approx(0.002794788196, abs=1e-9)
    assert depolarizing_bound(0.45, 0.1) == pytest.approx(0.042543859531, abs=1e-9)
    assert depolarizing_bound(0.2, 0.1) == pytest.approx(0.321495721948, abs=1e-9)
    # at q = 0 the bound reduces to h(1/2 + b): Eve learns nothing from a
    # noiseless reverse channel, whatever the bias
    for b in np.linspace(-0.49, 0.49, 21):
        assert depolarizing_bound(b, 0.0) == pytest.approx(binary_entropy(0.5 + b), abs=1e-12)


def test_depolarizing_bound_monotone_decreasing_in_q():
    values = [depolarizing_bound(0.0, q) for q in np.arange(0.0, 0.3001, 0.01)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_depolarizing_bound_even_in_b():
    for b in np.linspace(0.0, 0.5, 26):
        for q in np.linspace(0.0, 1.0, 11):
            assert abs(depolarizing_bound(b, q) - depolarizing_bound(-b, q)) <= 1e-9


# -------------------------------------------------------------- thresholds


def test_threshold_q_at_zero_bias():
    q_star = threshold_q(0.0)
    assert q_star == pytest.approx(0.1937849788, abs=2e-4)
    assert depolarizing_bound(0.0, q_star - 1e-3) > 0
    assert depolarizing_bound(0.0, q_star + 1e-3) < 0


def test_threshold_q_shrinks_with_bias():
    assert threshold_q(0.2) == pytest.approx(0.187215, abs=2e-4)
    # a positive region survives even at large bias; only |b| = 1/2 kills it
    assert threshold_q(0.45) == pytest.approx(0.125627, abs=2e-4)
    assert threshold_q(0.5) is None


def test_threshold_b_boundaries():
    # q = 0: the bound h(1/2+b) is positive on the whole interval, so the
    # reported boundary is the endpoint 1/2
    assert threshold_b(0.0) == 0.5
    assert threshold_b(0.1) == pytest.approx(0.473156, abs=2e-4)
    assert threshold_b(0.19) == pytest.approx(0.154980, abs=2e-4)
    assert threshold_b(0.21) is None
    assert threshold_b(0.5) is None


def test_threshold_tolerance_is_respected():
    coarse = threshold_q(0.0, tol=1e-2)
    fine = threshold_q(0.0, tol=1e-6)
    assert abs(coarse - fine) <= 1e-2
    assert abs(fine - 0.19378497877) <= 1e-5
    with pytest.raises(ValueError):
        threshold_q(0.0, tol=0.0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1e-4, 2 * COARSE_STEP])
def test_threshold_tol_must_be_finite_and_at_most_the_coarse_step(tol):
    for search in (threshold_q, threshold_b):
        with pytest.raises(ValueError, match="tol must lie in"):
            search(0.1, tol=tol)


def test_threshold_finds_a_zero_inside_the_first_coarse_step():
    # q*(0.4999) is about 0.0020 and b*(0.19378) about 0.0058: the scan must
    # start at 0, or it brackets neither
    tol = 1e-9
    for x_star, f in ((threshold_q(0.4999, tol), lambda q: depolarizing_bound(0.4999, q)),
                      (threshold_b(0.19378, tol), lambda b: depolarizing_bound(b, 0.19378))):
        assert 0.0 < x_star < COARSE_STEP
        assert f(x_star - tol) > 0.0 >= f(x_star + tol)


def test_threshold_stops_at_ulp_resolution():
    # a tolerance below the spacing of doubles near q* must still terminate
    t0 = time.perf_counter()
    q_star = threshold_q(0.0, 1e-20)
    assert time.perf_counter() - t0 < 1.0
    f = lambda q: depolarizing_bound(0.0, q)
    below, above = np.nextafter(q_star, 0.0), np.nextafter(q_star, 1.0)
    assert (f(q_star) > 0.0 >= f(above)) or (f(below) > 0.0 >= f(q_star))
    assert abs(q_star - threshold_q(0.0, 1e-12)) <= 1e-12
    # at q = 0 the computed h(1/2 + b) already rounds to h(1) = 0 one ulp
    # below b = 1/2, but it is never negative, so the zero is the endpoint
    assert threshold_b(0.0, 1e-20) == 0.5


# --------------------------------------------------------- entropy terms


def test_entropy_terms_known_values():
    # the report's entropy terms: h_A = h(p00 + p01), k0 = h(k1), k2
    report = key_rate_bound(IDENTITY_STATS)
    assert (report.h_A[0], report.k0[0], report.k1[0], report.k2[0]) == (1.0, 0.0, 1.0, 0.0)

    quarter = Statistics(
        bias=0.0, p00=0.25, p01=0.25, p10=0.25, p11=0.25,
        p_e_minus=0.5, p0_plus=0.25, p1_plus=0.25,
    )
    report = key_rate_bound(quarter)
    assert (report.h_A[0], report.k0[0], report.k1[0], report.k2[0]) == (1.0, 1.0, 0.5, 0.5)
    assert report.abort[0] and report.lam[0] == 0.5
    assert report.bound[0] == pytest.approx(-1.0, abs=1e-12)

    report = key_rate_bound(depolarizing_stats(0.0, 0.2))
    assert report.h_A[0] == 1.0
    assert report.k1[0] == pytest.approx(0.9, abs=1e-15)
    assert report.k2[0] == pytest.approx(0.1, abs=1e-15)
    # h(0.9), frozen from the four-outcome entropy 1.46899559359 = h(0.9) + 1
    assert report.k0[0] == pytest.approx(0.46899559359, abs=1e-9)
    assert report.k0[0] == pytest.approx(oracle.h2(0.9), abs=1e-15)


# ------------------------------------------------------------------ Q_X


def test_x_error_from_bias_known_values():
    assert x_error_from_bias(0.0) == 0.0
    assert x_error_from_bias(0.5) == pytest.approx(0.5, abs=1e-15)
    assert x_error_from_bias(0.36) == pytest.approx(0.153013, abs=1e-6)
    with pytest.raises(ValueError):
        x_error_from_bias(0.51)


@given(st.floats(0.0, 0.499))
def test_x_error_monotone_in_bias(b):
    assert x_error_from_bias(b + 0.001) >= x_error_from_bias(b)


# ----------------------------------------------------------- files, report


def test_statistics_file_round_trip(tmp_path):
    stats = depolarizing_stats(0.13, 0.07)
    path = tmp_path / "stats.txt"
    save_statistics(stats, path)
    back = load_statistics(path)
    for name in ("bias",) + STAT_FIELDS:
        assert getattr(back, name)[0] == getattr(stats, name)[0]


def test_statistics_file_errors(tmp_path):
    path = tmp_path / "stats.txt"
    path.write_text("b=0\np00=0.5\n")
    with pytest.raises(ParseError, match="missing keys"):
        load_statistics(path)
    path.write_text("b=0\nwho=1\n")
    with pytest.raises(ParseError, match="stats.txt:2"):
        load_statistics(path)
    # the key set is checked before the numbers
    path.write_text("b=zzz\np00=0.5\nwho=1\n")
    with pytest.raises(ParseError, match="stats.txt:3: unknown key 'who'"):
        load_statistics(path)
    # well-formed file whose numbers violate the statistics invariants
    path.write_text(
        "b=0\np00=0.5\np01=0\np10=0\np11=0.4\np_e_minus=0\np0_plus=0.25\np1_plus=0.25\n")
    with pytest.raises(ValueError, match="p00\\+p01\\+p10\\+p11"):
        load_statistics(path)


def test_format_report_layout():
    text = kv_text(report_items(key_rate_bound(IDENTITY_STATS)))
    lines = text.splitlines()
    assert lines[0] == "bound=1"
    assert lines[1] == "B=0.5"
    assert lines[2] == "lambda=1"
    assert lines[-2] == "abort=false"
    assert lines[-1] == "clamped=false"
    report = key_rate_bound(depolarizing_stats(0.0, 0.31))
    assert f"bound={depolarizing_bound(0.0, 0.31):.12g}" in kv_text(report_items(report)).splitlines()[0]
