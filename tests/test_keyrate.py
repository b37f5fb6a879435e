import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from conftest import random_attack, save_statistics
from sqkd.attacks import (
    STAT_FIELDS as COLUMN_FIELDS,
    ObservedStatistics,
    RestrictedAttack,
    StatisticsColumns,
    compute_statistics,
)
from sqkd.fileio import ParseError
from sqkd.keyrate import (
    COARSE_STEP,
    _lambda,
    depolarizing_bound,
    depolarizing_stats,
    format_report,
    key_rate_bound,
    load_statistics,
    threshold_b,
    threshold_q,
    x_error_from_bias,
)

STAT_FIELDS = ("p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus")

IDENTITY_STATS = ObservedStatistics(
    bias=0.0, p00=0.5, p01=0.0, p10=0.0, p11=0.5,
    p_e_minus=0.0, p0_plus=0.25, p1_plus=0.25,
)


def binary_entropy(x):
    """h(x) with libm's log2, 0 at both ends: the scalar reference."""
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def overlap_bound(stats):
    """The report's (B, clamped) of one point."""
    report = key_rate_bound(stats)
    return report.B_lower, report.B_clamped


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
    stats = ObservedStatistics(
        bias=0.0, p00=0.5, p01=0.25, p10=0.25, p11=0.0,
        p_e_minus=0.0, p0_plus=0.0, p1_plus=0.0,
    )
    value, clamped = overlap_bound(stats)
    assert clamped
    assert value == 0.0  # ceiling sqrt(p00 p11) = 0
    report = key_rate_bound(stats)
    assert report.B_clamped and not report.abort


# ----------------------------------------------------------------- lambda


def test_lambda_from_known_values():
    assert _lambda(0.3, 0.3, 0.0) == 0.5
    assert _lambda(0.3, 0.3, 0.3) == 1.0
    for b in (0.0, 0.2, -0.3):
        for q in (0.0, 0.1, 0.5):
            big_b = max(0.0, (0.5 - 0.75 * q) * math.sqrt(1 - 4 * b * b))
            want = 0.5 + math.sqrt(b * b * (2 - q) ** 2 + 4 * big_b ** 2) / (2 - q)
            stats = depolarizing_stats(b, q)
            assert _lambda(stats.p00, stats.p11, big_b) == pytest.approx(min(want, 1.0), abs=1e-12)
            assert key_rate_bound(stats).lam == pytest.approx(min(want, 1.0), abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(5e-324, 0.0, 0.5)  # p00 + p11 subnormal: the quotient overflows
def test_lambda_from_stays_in_range(p00, p11, b_val):
    if p00 + p11 <= 0:
        return
    assert 0.5 <= _lambda(p00, p11, b_val) <= 1.0


# -------------------------------------------------------------- the bound


def test_noiseless_bound_is_exactly_one():
    report = key_rate_bound(IDENTITY_STATS)
    assert report.bound == pytest.approx(1.0, abs=1e-12)
    assert report.lam == pytest.approx(1.0, abs=1e-15)
    assert report.k0 == 0.0 and report.k2 == 0.0
    assert report.h_A == 1.0
    assert not report.abort and not report.B_clamped


def test_bound_near_zero_at_the_noise_threshold():
    # frozen oracle values for the depolarizing closed form at b = 0
    assert key_rate_bound(depolarizing_stats(0.0, 0.193)).bound == pytest.approx(
        0.002794788196, abs=1e-9)
    assert key_rate_bound(depolarizing_stats(0.0, 0.3)).bound == pytest.approx(
        -0.331290899231, abs=1e-9)


def test_bound_reports_abort_beyond_two_thirds_noise():
    report = key_rate_bound(depolarizing_stats(0.0, 0.7))
    assert report.abort
    assert report.B_lower == pytest.approx(-0.025, abs=1e-12)
    assert report.bound < 0


def test_degenerate_k1_zero_skips_lambda():
    stats = ObservedStatistics(
        bias=0.0, p00=0.0, p01=0.5, p10=0.5, p11=0.0,
        p_e_minus=0.0, p0_plus=0.25, p1_plus=0.25,
    )
    report = key_rate_bound(stats)
    assert report.lam is None
    assert report.k1 == 0.0
    assert report.bound == pytest.approx(0.0, abs=1e-12)


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
        bound = key_rate_bound(compute_statistics(RestrictedAttack(b, **frags))).bound
        gap = oracle.exact_rate(b, frags) - bound
        assert gap >= -1e-10, (k, b, gap)
        if k >= 400:
            near_gap = min(near_gap, gap)
    # the battery reaches the bound closely enough to show an error of 1e-5
    assert near_gap < 1e-5


def test_report_internal_identities():
    rng = np.random.default_rng(37)
    for _ in range(300):
        stats = compute_statistics(random_attack(rng))
        report = key_rate_bound(stats)
        assert report.k1 + report.k2 == pytest.approx(1.0, abs=1e-9)
        assert report.bound <= 1.0 + 1e-12
        if report.lam is not None:
            assert 0.5 <= report.lam <= 1.0


# ---------------------------------------------------------- batched kernel

REPORT_FIELDS = ("bound", "B_lower", "B_clamped", "lam", "k0", "k1", "k2", "h_A", "abort")

# the clamp, k1 = 0 (lambda undefined) and a sign-bit corner, next to ordinary points
CORNER_STATS = [
    ObservedStatistics(bias=0.0, p00=0.5, p01=0.25, p10=0.25, p11=0.0,
                       p_e_minus=0.0, p0_plus=0.0, p1_plus=0.0),
    ObservedStatistics(bias=0.0, p00=0.0, p01=0.5, p10=0.5, p11=0.0,
                       p_e_minus=0.0, p0_plus=0.25, p1_plus=0.25),
    ObservedStatistics(bias=0.0, p00=-0.0, p01=0.5, p10=0.5, p11=-0.0,
                       p_e_minus=0.3, p0_plus=0.25, p1_plus=0.25),
    # clamped; (p00 - p11)**2 rounds differently through libm pow and x*x,
    # which moves lambda between 1 and 1 - 1 ulp
    ObservedStatistics(bias=0.0, p00=0.5895080488549757, p01=0.09590841958795485,
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
    return StatisticsColumns(**{name: [getattr(s, name) for s in stats] for name in COLUMN_FIELDS})


def _reference_report(stats):
    """The bound written out point by point with math, as a scalar formula;
    the kernel must give its doubles bit for bit."""
    raw = 1.0 - stats.p_e_minus - stats.p0_plus - stats.p1_plus - math.sqrt(
        max(stats.p01, 0.0) * max(stats.p10, 0.0))
    ceiling = math.sqrt(max(stats.p00, 0.0) * max(stats.p11, 0.0))
    big_b, clamped = (ceiling, True) if raw > ceiling else (raw, False)
    k1 = min(max(stats.p00 + stats.p11, 0.0), 1.0)
    k2 = min(max(stats.p01 + stats.p10, 0.0), 1.0)
    h_a = binary_entropy(min(max(stats.p00 + stats.p01, 0.0), 1.0))
    lam = None
    h_lam = 0.0
    if k1 != 0.0:
        b_pos = max(big_b, 0.0)
        lam = 0.5 + math.sqrt((stats.p00 - stats.p11) ** 2 + 4.0 * b_pos * b_pos) / (
            2.0 * (stats.p00 + stats.p11))
        lam = min(max(lam, 0.5), 1.0)
        h_lam = binary_entropy(lam)
    k0 = binary_entropy(k1)
    return dict(bound=h_a - k0 - k2 - k1 * h_lam, B_lower=big_b, B_clamped=clamped, lam=lam,
                k0=k0, k1=k1, k2=k2, h_A=h_a, abort=not clamped and big_b <= 0.0)


def _same_bits(a, b):
    return a is b or (type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes())


def test_kernel_gives_the_scalar_formula_bit_for_bit():
    for stats in _sample_stats():
        got = key_rate_bound(stats)
        want = _reference_report(stats)
        for name in REPORT_FIELDS:
            assert _same_bits(getattr(got, name), want[name]), (name, stats)


def test_batch_matches_one_at_a_time_bit_for_bit():
    stats = _sample_stats()
    batch = key_rate_bound(_columns(stats))
    assert batch.abort.any() and batch.B_clamped.any() and np.isnan(batch.lam).any()
    for i, one in enumerate(stats):
        single = key_rate_bound(one)
        for name in REPORT_FIELDS:
            value = getattr(batch, name)[i].item()
            if name == "lam" and single.lam is None:
                assert math.isnan(value)
            else:
                assert _same_bits(value, getattr(single, name)), (name, i)


def test_depolarizing_stats_columns_equal_scalar_calls():
    b = np.linspace(-0.5, 0.5, 21)
    for q in (0.0, 0.3, 1.0):
        columns = depolarizing_stats(b, q)
        assert isinstance(columns, StatisticsColumns) and columns.p00.shape == b.shape
        for i, bi in enumerate(b.tolist()):
            assert columns.row(i) == depolarizing_stats(bi, q)


@pytest.mark.parametrize("b, q", [
    ([0.1, 0.2, 0.6, 0.7], 0.1),
    (0.1, [0.0, 0.5, float("nan"), 2.0]),
    ([0.0, 0.0, float("inf")], [0.1, -0.1, 0.1]),
    ([0.0, 0.7], [1.5, 0.1]),
])
def test_depolarizing_stats_columns_reject_the_first_bad_point(b, q):
    bb, qq = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(q, dtype=float))
    first = next(i for i in range(bb.size) if not (-0.5 <= bb[i] <= 0.5 and 0.0 <= qq[i] <= 1.0))
    with pytest.raises(ValueError) as scalar:
        depolarizing_stats(float(bb[first]), float(qq[first]))
    with pytest.raises(ValueError) as batch:
        depolarizing_stats(b, q)
    assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("field, value", [
    ("bias", 0.6), ("p00", -0.1), ("p11", 1.2), ("p_e_minus", float("nan")),
    ("p01", 0.2), ("p0_plus", 0.76), ("p1_plus", 0.51),
])
def test_statistics_columns_reject_the_first_bad_point(field, value):
    good = {name: getattr(IDENTITY_STATS, name) for name in COLUMN_FIELDS}
    bad = {**good, field: value}
    also_bad = {**good, "p_e_minus": 2.0}
    points = [good, good, bad, also_bad]
    with pytest.raises(ValueError) as scalar:
        ObservedStatistics(**bad)
    with pytest.raises(ValueError) as batch:
        StatisticsColumns(**{name: [p[name] for p in points] for name in COLUMN_FIELDS})
    assert str(batch.value) == str(scalar.value)


# ------------------------------------------------------------ closed forms


def test_depolarizing_stats_known_values():
    stats = depolarizing_stats(0.0, 0.2)
    assert stats.p00 == pytest.approx(0.45, abs=1e-12)
    assert stats.p01 == pytest.approx(0.05, abs=1e-12)
    assert stats.p10 == pytest.approx(0.05, abs=1e-12)
    assert stats.p11 == pytest.approx(0.45, abs=1e-12)
    assert stats.p_e_minus == pytest.approx(0.1, abs=1e-12)
    assert stats.p0_plus == pytest.approx(0.25, abs=1e-12)
    assert stats.p1_plus == pytest.approx(0.25, abs=1e-12)
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
            g = key_rate_bound(depolarizing_stats(b, q)).bound
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
    assert (report.h_A, report.k0, report.k1, report.k2) == (1.0, 0.0, 1.0, 0.0)

    quarter = ObservedStatistics(
        bias=0.0, p00=0.25, p01=0.25, p10=0.25, p11=0.25,
        p_e_minus=0.5, p0_plus=0.25, p1_plus=0.25,
    )
    report = key_rate_bound(quarter)
    assert (report.h_A, report.k0, report.k1, report.k2) == (1.0, 1.0, 0.5, 0.5)
    assert report.abort and report.lam == 0.5
    assert report.bound == pytest.approx(-1.0, abs=1e-12)

    report = key_rate_bound(depolarizing_stats(0.0, 0.2))
    assert report.h_A == 1.0
    assert report.k1 == pytest.approx(0.9, abs=1e-15)
    assert report.k2 == pytest.approx(0.1, abs=1e-15)
    # h(0.9), frozen from the four-outcome entropy 1.46899559359 = h(0.9) + 1
    assert report.k0 == pytest.approx(0.46899559359, abs=1e-9)
    assert report.k0 == pytest.approx(oracle.h2(0.9), abs=1e-15)


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
        assert getattr(back, name) == getattr(stats, name)


def test_statistics_file_errors(tmp_path):
    path = tmp_path / "stats.txt"
    path.write_text("b=0\np00=0.5\n")
    with pytest.raises(ParseError, match="missing keys"):
        load_statistics(path)
    path.write_text("b=0\nwho=1\n")
    with pytest.raises(ParseError, match="stats.txt:2"):
        load_statistics(path)
    # well-formed file whose numbers violate the statistics invariants
    path.write_text(
        "b=0\np00=0.5\np01=0\np10=0\np11=0.4\np_e_minus=0\np0_plus=0.25\np1_plus=0.25\n")
    with pytest.raises(ValueError, match="p00\\+p01\\+p10\\+p11"):
        load_statistics(path)


def test_format_report_layout():
    text = format_report(key_rate_bound(IDENTITY_STATS))
    lines = text.splitlines()
    assert lines[0] == "bound=1"
    assert lines[1] == "B=0.5"
    assert lines[2] == "lambda=1"
    assert lines[-2] == "abort=false"
    assert lines[-1] == "clamped=false"
    report = key_rate_bound(depolarizing_stats(0.0, 0.31))
    assert f"bound={depolarizing_bound(0.0, 0.31):.12g}" in format_report(report).splitlines()[0]
