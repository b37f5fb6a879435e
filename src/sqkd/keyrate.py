"""Reverse-reconciliation key-rate lower bound from observable statistics.

The asymptotic Devetak-Winter rate S(B|E) - H(B|A) is bounded from below by

    r >= h(p00 + p01) - k0 - k2 - k1 h(lambda)

with k1 = p00 + p11, k2 = p01 + p10, k0 = h(k1) and

    lambda = 1/2 + sqrt((p00 - p11)^2 + 4 B^2) / (2 (p00 + p11)),

where B lower-bounds the overlap alpha beta |<e00|e11>| of Eve's fragments on
matching key bits:

    B = 1 - p_e_minus - p0_plus - p1_plus - sqrt(p01 p10).

One numpy kernel evaluates the bound at every point of a Statistics, one
point or many, with numpy's log2 and x * x and no Python work per point.
For a depolarizing reverse channel with parameter q everything collapses to
the closed form f(b, q) implemented in depolarizing_bound(), the scalar
evaluator of the threshold searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .attacks import STAT_FIELDS, Statistics, _check_bias, _check_noise


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate bound plus the intermediate quantities that produce it.

    Every field is an array with one entry per point of the Statistics, so
    the bound of a one-point Statistics is ``report.bound[0]``.  ``abort`` is
    set where the raw overlap bound B is non-positive (channel too noisy); the
    bound there is the diagnostic value computed with B = 0.  ``lam`` is NaN
    in the degenerate case k1 = 0, whose h(lambda) term has zero weight.
    """

    bound: np.ndarray
    B_lower: np.ndarray
    B_clamped: np.ndarray
    lam: np.ndarray
    k0: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    h_A: np.ndarray
    abort: np.ndarray


def _entropy(x) -> np.ndarray:
    """h(x) at every point; 0 at and beyond both ends of [0, 1], and at NaN."""
    inner = (x > 0.0) & (x < 1.0)
    x = np.where(inner, x, 0.5)
    h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where(inner, h, 0.0)


def _overlap_bound(stats) -> tuple[np.ndarray, np.ndarray]:
    """Observable lower bound B on alpha beta |<e00|e11>| and its clamp flag.

    The raw value is capped at sqrt(p00 p11), the Cauchy-Schwarz ceiling that
    keeps lambda <= 1; a non-positive raw value is returned as is.
    """
    raw = (
        1.0
        - stats.p_e_minus
        - stats.p0_plus
        - stats.p1_plus
        - np.sqrt(np.maximum(stats.p01, 0.0) * np.maximum(stats.p10, 0.0))
    )
    ceiling = np.sqrt(np.maximum(stats.p00, 0.0) * np.maximum(stats.p11, 0.0))
    clamped = raw > ceiling
    return np.where(clamped, ceiling, raw), clamped


def _lambda(p00, p11, B) -> np.ndarray:
    """Larger eigenvalue bound of Eve's state on matching key bits.

    lambda = 1/2 + sqrt((p00-p11)^2 + 4 B^2) / (2 (p00+p11)), clamped to
    [1/2, 1]; NaN or 1 where p00 + p11 = 0.
    """
    d = p00 - p11
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = 0.5 + np.sqrt(d * d + 4.0 * B * B) / (2.0 * (p00 + p11))
    return np.minimum(np.maximum(lam, 0.5), 1.0)


def key_rate_bound(stats: Statistics) -> KeyRateReport:
    """Evaluate the key-rate lower bound at every point of a Statistics."""
    B, clamped = _overlap_bound(stats)
    # clamping only applies from above, so B <= 0 can only be the raw value
    abort = ~clamped & (B <= 0.0)
    k1 = (stats.p00 + stats.p11).clip(0.0, 1.0)
    k2 = (stats.p01 + stats.p10).clip(0.0, 1.0)
    lam = np.where(k1 == 0.0, np.nan, _lambda(stats.p00, stats.p11, np.maximum(B, 0.0)))
    # one pair of log2 passes serves all three entropies
    k0, h_a, h_lam = _entropy(np.array([k1, stats.p00 + stats.p01, lam]))
    return KeyRateReport(
        bound=h_a - k0 - k2 - k1 * h_lam, B_lower=B, B_clamped=clamped, lam=lam,
        k0=k0, k1=k1, k2=k2, h_A=h_a, abort=abort,
    )


# ---------------------------------------------------------------------------
# depolarizing reverse channel: closed forms and threshold search


def depolarizing_stats(b, q) -> Statistics:
    """Exact statistics when the reverse channel depolarizes with parameter q.

    b and q broadcast together, and two scalars give one point.  The first
    bad point is rejected with the message of its bias, else of its q.
    """
    # scalars stay numpy scalars, so one point costs scalar arithmetic
    b, q = np.asarray(b, dtype=float)[()], np.asarray(q, dtype=float)[()]
    ok = (-0.5 <= b) & (b <= 0.5) & (0.0 <= q) & (q <= 1.0)
    # valid arguments cannot break a statistics invariant, so the first bad
    # argument is the first bad point
    if not ok.all():
        i = np.argmin(ok)
        bad_b, bad_q = np.broadcast_arrays(b, q)
        _check_bias(bad_b.flat[i])
        _check_noise(bad_q.flat[i])
    root = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * b * b))
    return Statistics(
        bias=b,
        p00=(0.5 + b) * (1.0 - 0.5 * q),
        p01=(0.5 - b) * 0.5 * q,
        p10=(0.5 + b) * 0.5 * q,
        p11=(0.5 - b) * (1.0 - 0.5 * q),
        p_e_minus=0.5 + 0.5 * (q - 1.0) * root,
        p0_plus=0.5 * (0.5 + b),
        p1_plus=0.5 * (0.5 - b),
    )


def _h(x: float) -> float:
    """Binary entropy h(x) in bits, 0 at both ends of [0, 1].

    Outside [0, 1] one of the logarithms raises ValueError.
    """
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def depolarizing_bound(b: float, q: float) -> float:
    """f(b, q) = h(1/2 + b - b q) - h(1 - q/2) - q/2 - (1 - q/2) h(lambda).

    Here B = (1/2 - 3q/4) sqrt(1 - 4 b^2) and
    lambda = 1/2 + sqrt(b^2 (2-q)^2 + 4 B^2) / (2 - q); a negative B is
    replaced by 0, matching the abort diagnostics of key_rate_bound.  The
    threshold searches evaluate this scalar closed form, one point at a
    time: a kernel call on a batch of one costs far more.  It takes libm's
    log2, which on one Python float costs a fifth of np.log2; the kernel's
    numpy log2 may differ from it by an ulp.
    """
    b, q = _check_bias(b), _check_noise(q)
    root = math.sqrt(max(0.0, 1.0 - 4.0 * b * b))
    big_b = max(0.0, (0.5 - 0.75 * q) * root)
    lam = min(1.0, 0.5 + math.sqrt(b * b * (2.0 - q) ** 2 + 4.0 * big_b * big_b) / (2.0 - q))
    return (
        _h(0.5 + b - b * q)
        - _h(1.0 - 0.5 * q)
        - 0.5 * q
        - (1.0 - 0.5 * q) * _h(lam)
    )


def x_error_from_bias(b: float) -> float:
    """Forward-channel X error rate 1/2 - sqrt(1/4 - b^2) caused by the bias."""
    b = _check_bias(b)
    return 0.5 - math.sqrt(max(0.0, 0.25 - b * b))


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Shrink a bracket with f(lo) > 0 >= f(hi) until it is narrower than tol
    or its ends are adjacent doubles.

    Returns the midpoint of the last bracket, except when no probe was
    negative and f is exactly 0 at the upper end: then f has only rounded to
    0 near that end, and the end itself is the zero.
    """
    end = hi
    negative = False
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        value = f(mid)
        if value > 0.0:
            lo = mid
        else:
            hi = mid
            negative = negative or value < 0.0
    if not negative and f(end) == 0.0:
        return end
    return 0.5 * (lo + hi)


#: step of the threshold searches' coarse scan; the bisection tolerance may not exceed it
COARSE_STEP = 0.01


def _first_zero(f, hi: float, tol: float) -> float | None:
    """First zero crossing of f on [0, hi], located by a coarse scan then bisection.

    Returns None when f(0) <= 0 or when f never drops to 0 on the scan's grid.
    """
    if not 0.0 < tol <= COARSE_STEP:
        raise ValueError(f"tol must lie in (0, {COARSE_STEP}], got {tol!r}")
    if f(0.0) <= 0.0:
        return None
    x = 0.0
    while x < hi:
        nxt = min(x + COARSE_STEP, hi)
        if f(nxt) <= 0.0:
            return _bisect(f, x, nxt, tol)
        x = nxt
    return None


def threshold_q(b: float, tol: float = 1e-4) -> float | None:
    """Noise threshold: the q* below which f(b, .) stays positive.

    Returns None when f(b, 0) <= 0.  The search runs on (0, 2/3), the region
    where the overlap bound B can be positive.
    """
    return _first_zero(lambda q: depolarizing_bound(b, q), 2.0 / 3.0, tol)


def threshold_b(q: float, tol: float = 1e-4) -> float | None:
    """Bias boundary: the largest b* with f(b, q) > 0 for 0 <= b < b*.

    Returns None when f(0, q) <= 0.  The bound is even in b (B and lambda
    depend on b^2 and h(1/2 + b(1-q)) is symmetric), so the same magnitude
    applies to negative bias; the symmetry is exercised in tests rather than
    assumed here.  The search includes the endpoint b = 1/2, where
    f(1/2, q) = -q/2 and in particular f(1/2, 0) = 0: for q = 0 the bound
    h(1/2 + b) is positive on the whole open interval and the reported
    boundary is 1/2.
    """
    return _first_zero(lambda b: depolarizing_bound(b, q), 0.5, tol)


# ---------------------------------------------------------------------------
# statistics file and report pairs

_STATS_KEYS = ("b", *STAT_FIELDS[1:])


def load_statistics(path) -> Statistics:
    """Read a key-value statistics file, one point, and validate its invariants."""
    entries = fileio.read_kv_lines(path, _STATS_KEYS)
    values = {key: fileio.parse_float(path, lineno, key, value) for key, (lineno, value) in entries.items()}
    return Statistics(*(values[key] for key in _STATS_KEYS))


def report_items(report: KeyRateReport) -> list[tuple[str, object]]:
    """The (key, value) pairs of a report's point 0, as ``fileio.kv_text`` renders them."""
    return [
        ("bound", report.bound[0]),
        ("B", report.B_lower[0]),
        ("lambda", report.lam[0]),
        ("k0", report.k0[0]),
        ("k1", report.k1[0]),
        ("k2", report.k2[0]),
        ("abort", report.abort[0]),
        ("clamped", report.B_clamped[0]),
    ]
