"""The four workloads: seeded command lines for ``sqkd.cli.main`` and their checks.

A workload is one round of operations, drawn once from the seed and repeated
whole until the run's time is up, so the share of failed operations is the
same in every run.  Each operation carries the number of items it completes
and a check that compares the program's output with ``oracle``.  A check
returns None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    exc: BaseException | None


@dataclass
class Op:
    argv: list
    items: int
    check: Callable[[Outcome], "str | None"]
    #: a defect named in CHANGES.md; it fails on every run until it is mended
    known_fault: bool = False


@dataclass
class Workload:
    ops: list
    warmup: Op


def _kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _expect_rc(o, rc):
    if o.exc is not None:
        return f"raised {type(o.exc).__name__}: {o.exc}"
    if o.rc != rc:
        return f"exit {o.rc}, expected {rc}: {o.err.strip()[:200]}"
    return None


#: sizes per workload; with an odd count every size appears equally often and
#: the median and the 90th percentile of operation times fall at the middle
#: of the third and the fifth size's operations, never between two sizes
GROUPS = 5


def _size_groups(lo, hi, per_size):
    """GROUPS sizes spread over [lo, hi] on a log scale, each per_size times,
    in round-robin order so that a slow phase of the host hits every size.

    The sizes do not depend on the seed: a seed changes what is computed, not
    how much, so the operation mix and its percentiles are the same every run.
    """
    sizes = [int(round(lo * (hi / lo) ** (k / (GROUPS - 1)))) for k in range(GROUPS)]
    return [n for _ in range(per_size) for n in sizes]


# ---------------------------------------------------------------------------
# sweep


def _sweep_op(tmp, k, var, fixed, start, stop, n):
    step = (stop - start) / (n - 0.5)  # the last point sits half a step below stop
    path = os.path.join(tmp, f"sweep{k}.csv")
    argv = ["sweep", "--var", var, "--fixed", repr(fixed), "--start", repr(start),
            "--stop", repr(stop), "--step", repr(step), "--out", path]
    xs = start + np.arange(n) * step

    def check(o):
        bad = _expect_rc(o, 0)
        if bad:
            return bad
        if o.out != f"rows={n}\nout={path}\n":
            return f"stdout {o.out[:120]!r}"
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)
        lines = text.split("\n")
        if lines[0] != "x,f" or lines[-1] != "" or len(lines) != n + 2:
            return f"header {lines[0]!r} or {len(lines) - 2} rows, expected {n}"
        cells = np.array(",".join(lines[1:-1]).split(","), dtype=float).reshape(n, 2)
        if not np.all(oracle.close(cells[:, 0], xs)) or cells[-1, 0] > stop:
            return "x column does not start at start and rise by step"
        b, q = (fixed, xs) if var == "q" else (xs, fixed)
        ok = oracle.close(cells[:, 1], oracle.closed_form_f(b, q))
        if not np.all(ok):
            i = int(np.argmin(ok))
            return f"f({lines[i + 1]}) differs from the closed form {oracle.closed_form_f(b, q)[i]!r}"
        return None

    return Op(argv, n, check)


def sweep(rng, tmp):
    """Grids of 2,000 to 20,000 points over q up to 1 and over b out to +-1/2,
    four of each size, two over q and two over b."""
    ops = []
    for k, n in enumerate(_size_groups(2000, 20000, 4)):
        if k % 2 == 0:
            fixed, start, stop = float(rng.uniform(-0.45, 0.45)), float(rng.uniform(0.0, 0.2)), 1.0
            ops.append(_sweep_op(tmp, k, "q", fixed, start, stop, n))
        else:
            fixed, start, stop = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-0.5, -0.3)), 0.5
            ops.append(_sweep_op(tmp, k, "b", fixed, start, stop, n))
    warmup = _sweep_op(tmp, "w", "q", 0.0, 0.0, 1.0, 500)
    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# simulate and export

_COUNT_KEYS = ("sift_z_count", "sift_x_count", "ctrl_z_count", "ctrl_x_count")
P_T = 0.1


def _rounds(n, delta):
    return math.ceil(8 * n * (1.0 + delta))


def _expected_abort(n, delta, probs):
    """Abort reason by the documented check order, for parameters far from p_t."""
    rounds = _rounds(n, delta)
    p_ctrl, p_test = probs["p_e_minus"], probs["p01"] + probs["p10"]
    margins = (  # in standard errors; negative means the check fires
        ("TOO_FEW_SIFT_Z", (rounds / 4 - 2 * n) / math.sqrt(rounds * 3 / 16)),
        ("CTRL_X_NOISE", (P_T - p_ctrl) / math.sqrt(p_ctrl * (1 - p_ctrl) / (rounds / 4))),
        ("TEST_BIT_NOISE", (P_T - p_test) / math.sqrt(max(p_test * (1 - p_test), 1e-12) / n)),
    )
    for reason, margin in margins:
        if abs(margin) < 8:
            raise ValueError(f"simulate parameters within 8 SE of the {reason} check")
        if margin < 0:
            return reason
    return "none"


def _check_estimates(kv, probs):
    """Every estimate within a Bernstein bound of the exact statistics."""
    counts = {key: int(kv[key]) for key in _COUNT_KEYS}
    classes = {
        "bias": counts["sift_z_count"] + counts["sift_x_count"],
        "p00": counts["sift_z_count"], "p01": counts["sift_z_count"],
        "p10": counts["sift_z_count"], "p11": counts["sift_z_count"],
        "p_e_minus": counts["ctrl_x_count"],
        "p0_plus": counts["sift_x_count"], "p1_plus": counts["sift_x_count"],
    }
    for name, m in classes.items():
        # the bias estimate is the frequency of Bob's 0 minus 1/2
        p = probs["b"] + 0.5 if name == "bias" else probs[name]
        est = float(kv[name]) + (0.5 if name == "bias" else 0.0)
        tol = oracle.count_tolerance(m, p) / m + oracle.unit12(float(kv[name]))
        if abs(est - p) > tol:
            se = math.sqrt(p * (1 - p) / m) or float("nan")
            return f"{name}={kv[name]} is {(est - p) / se:.1f} SE from exact {p!r}"
    return None


def _simulate_op(rng, n, delta, q, b):
    seed = int(rng.integers(0, 2**63))
    argv = ["simulate", "--n", str(n), "--seed", str(seed), "--q", repr(q), "--b", repr(b)]
    if delta != 0.25:
        argv += ["--delta", repr(delta)]
    probs = oracle.depolarizing_probabilities(b, q)
    abort = _expected_abort(n, delta, probs)
    rounds = _rounds(n, delta)

    def check(o):
        bad = _expect_rc(o, 0 if abort == "none" else 2)
        if bad:
            return bad
        kv = _kv(o.out)
        if int(kv.get("rounds", -1)) != rounds or sum(int(kv[key]) for key in _COUNT_KEYS) != rounds:
            return f"rounds={kv.get('rounds')} or counts do not sum to ceil(8n(1+delta))={rounds}"
        if kv["abort"] != abort:
            return f"abort={kv['abort']}, expected {abort}"
        if kv["ctrl_x_error_rate"] != kv["p_e_minus"]:
            return "ctrl_x_error_rate differs from p_e_minus"
        if "bound" not in kv:
            return "no bound line"
        return _check_estimates(kv, probs)

    return Op(argv, rounds, check)


def _channel(rng, q_max, b_max):
    return float(rng.uniform(0.0, q_max)), float(rng.uniform(-b_max, b_max))


def simulate(rng, tmp):
    """5*10^4 to 10^6 rounds, three runs of each size, one at each --delta;
    two runs of the smallest size abort with CTRL_X_NOISE."""
    ops = []
    for k, n in enumerate(_size_groups(5000, 100000, 3)):
        # n is scaled so that the three runs of one size make the same number
        # of rounds; the largest (10^6 rounds) sets the peak RSS for every seed
        delta = (0.25, 0.125, 0.5)[k // GROUPS]
        n = int(round(n * 1.25 / (1.0 + delta)))
        q, b = _channel(rng, 0.08, 0.2)
        if k in (GROUPS, 2 * GROUPS):
            q = float(rng.uniform(0.29, 0.31))
        ops.append(_simulate_op(rng, n, delta, q, b))
    return Workload(ops, _simulate_op(rng, 5000, 0.25, 0.05, 0.0))


_ROW_TAILS = {
    f"{choice},{basis},{bit},{out}"
    for choice, bits in (("SIFT", "01"), ("CTRL", ("",)))
    for bit in bits
    for basis, outs in (("Z", "01"), ("X", "+-"))
    for out in outs
}
_HEADER = "round,bob_choice,alice_basis,bob_bit,alice_outcome\n"


def _read_transcript(path, rows):
    """Read the CSV once: validate every row, tally it and hash the bytes."""
    digest = hashlib.sha256()
    tally = Counter()
    comments = []
    with open(path, "rb") as fh:
        raw = fh.read()
    digest.update(raw)
    text = raw.decode("utf-8")
    del raw
    pos = len(_HEADER)
    if not text.startswith(_HEADER):
        return None, None, None, "bad header"
    for i in range(rows):
        nl = text.find("\n", pos)
        if nl < 0:
            return None, None, None, f"only {i} of {rows} rows"
        line = text[pos:nl]
        pos = nl + 1
        index, _, tail = line.partition(",")
        if index != str(i) or tail not in _ROW_TAILS:
            return None, None, None, f"row {i} malformed: {line!r}"
        tally[tail] += 1
    for line in text[pos:].splitlines():
        if not line.startswith("# "):
            return None, None, None, f"unexpected line after the rows: {line!r}"
        comments.append(line[2:])
    return digest.hexdigest(), tally, comments, None


def _check_tallies(kv, tally):
    def total(prefix):
        return sum(c for tail, c in tally.items() if tail.startswith(prefix))

    counts = {"sift_z_count": total("SIFT,Z,"), "sift_x_count": total("SIFT,X,"),
              "ctrl_z_count": total("CTRL,Z,"), "ctrl_x_count": total("CTRL,X,")}
    for key, value in counts.items():
        if int(kv[key]) != value:
            return f"{key}={kv[key]} but the CSV holds {value}"
    sz, sx, cx = counts["sift_z_count"], counts["sift_x_count"], counts["ctrl_x_count"]
    sift = sz + sx
    expected = {
        "bias": (total("SIFT,Z,0,") + total("SIFT,X,0,")) / sift - 0.5,
        "p00": tally["SIFT,Z,0,0"] / sz, "p01": tally["SIFT,Z,1,0"] / sz,
        "p10": tally["SIFT,Z,0,1"] / sz, "p11": tally["SIFT,Z,1,1"] / sz,
        "p_e_minus": tally["CTRL,X,,-"] / cx, "ctrl_x_error_rate": tally["CTRL,X,,-"] / cx,
        "p0_plus": tally["SIFT,X,0,+"] / sx, "p1_plus": tally["SIFT,X,1,+"] / sx,
    }
    for key, value in expected.items():
        if not oracle.close(float(kv[key]), value):
            return f"{key}={kv[key]} but the CSV tallies give {value!r}"
    return None


def _export_op(tmp, k, sim, digests):
    """The simulate operation ``sim`` with its transcript written and checked."""
    path = os.path.join(tmp, f"export{k}.csv")
    key = " ".join(sim.argv)

    def check(o):
        bad = sim.check(o)
        if bad:
            return bad
        digest, tally, comments, bad = _read_transcript(path, sim.items)
        os.remove(path)
        if bad:
            return bad
        if comments != o.out.splitlines()[:len(comments)] or not comments or not comments[0].startswith("rounds="):
            return "the # block differs from stdout"
        if digests.setdefault(key, digest) != digest:
            return "a repeated seed produced a different file"
        return _check_tallies(_kv(o.out), tally)

    return Op(sim.argv + ["--export", path], sim.items, check)


def export(rng, tmp):
    """n from 2,500 to 12,500 with the transcript written, two runs of each
    size; the two of the largest size are one run repeated with its seed."""
    sizes = _size_groups(2500, 12500, 2)
    # a milder channel than simulate's keeps n = 2500 runs 8 SE from every abort check
    sims = [_simulate_op(rng, n, 0.25, *_channel(rng, 0.05, 0.15)) for n in sizes[:-1]]
    sims.append(sims[GROUPS - 1])
    digests = {}
    ops = [_export_op(tmp, k, sim, digests) for k, sim in enumerate(sims)]
    return Workload(ops, _export_op(tmp, "w", _simulate_op(rng, 2500, 0.25, 0.05, 0.0), {}))


# ---------------------------------------------------------------------------
# queries


def _bound_check(ref_bound, abort):
    def check(o):
        bad = _expect_rc(o, 2 if abort else 0)
        if bad:
            return bad
        kv = _kv(o.out)
        if kv.get("abort") != ("true" if abort else "false"):
            return f"abort={kv.get('abort')}, expected {abort}"
        if not oracle.close(float(kv["bound"]), ref_bound):
            return f"bound={kv['bound']} but the closed form gives {ref_bound!r}"
        return None
    return check


def _bound_bq(rng):
    b, q = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.0, 1.0))
    while abs(oracle.overlap_bound(b, q)) < 1e-9:  # keep the abort flag unambiguous
        b, q = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.0, 1.0))
    abort = oracle.overlap_bound(b, q) <= 0.0
    return Op(["bound", "--b", repr(b), "--q", repr(q)], 1, _bound_check(float(oracle.closed_form_f(b, q)), abort))


def _bound_stats(rng, path):
    b, q = float(rng.uniform(-0.45, 0.45)), float(rng.uniform(0.0, 0.6))
    oracle.write_statistics(path, oracle.depolarizing_probabilities(b, q))
    return Op(["bound", "--stats", path], 1, _bound_check(float(oracle.closed_form_f(b, q)), False))


def _attack_ops(rng, path, near_identity, d):
    b = float(rng.uniform(-0.45, 0.45))
    if near_identity:
        u = oracle.near_identity_unitary(2 * d, 10 ** rng.uniform(-3, -0.5), rng)
    else:
        u = oracle.haar_unitary(2 * d, rng)
    frags = oracle.fragments(u)
    oracle.write_attack(path, b, frags)
    exact = oracle.exact_rate(b, frags)

    def check_bound(o):
        if o.exc is not None or o.rc not in (0, 2):
            return _expect_rc(o, 0)
        kv = _kv(o.out)
        if (o.rc == 2) != (kv.get("abort") == "true"):
            return f"exit {o.rc} with abort={kv.get('abort')}"
        bound = float(kv["bound"])
        if bound > exact + oracle.unit12(bound) + oracle.ABS_FLOOR:
            return f"bound={kv['bound']} exceeds the exact rate {exact!r}"
        return None

    def check_validate(o):
        bad = _expect_rc(o, 0)
        if bad:
            return bad
        kv = _kv(o.out)
        if kv.get("status") != "pass" or float(kv["max_deviation"]) > 1e-9 or not oracle.close(float(kv["b"]), b):
            return f"validate printed {o.out.strip()!r}"
        return None

    return Op(["bound", "--attack", path], 1, check_bound), Op(["validate", "--attack", path], 1, check_validate)


def _crossing_check(name, rate_key, f, hi, tol, rate, rate_slope):
    """The printed zero x of f brackets a sign change within tol, and the
    printed error rate equals rate(x) (slope given for the rounding of x)."""
    def check(o):
        bad = _expect_rc(o, 0)
        if bad:
            return bad
        kv = _kv(o.out)
        if kv.get(name) == "none":
            return None if f(0.0) <= 0.0 else f"{name}=none but f(0) > 0"
        x = float(kv[name])
        u = oracle.unit12(x)
        if not (f(x - tol - u) > 0.0 >= f(min(x + tol + u, hi))):
            return f"{name}={kv[name]} does not bracket a sign change within tol={tol!r}"
        if not oracle.close(float(kv[rate_key]), rate(x), slack=rate_slope(x) * u):
            return f"{rate_key}={kv[rate_key]} is not consistent with {name}"
        return None
    return check


def _check_zero_noise_endpoint(o):
    """At q = 0 the bound is h(1/2 + b), positive up to the endpoint b = 1/2."""
    bad = _expect_rc(o, 0)
    if bad:
        return bad
    kv = _kv(o.out)
    if kv.get("b_star") != "0.5" or kv.get("Q_X_star") != "0.5":
        return f"at q=0 expected b_star=0.5 and Q_X_star=0.5, got {o.out.strip()!r}"
    return None


#: --tol of the threshold calls, taken in turn; 1e-4 is the default
TOLS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)


def _threshold_argv(fix, tol):
    return ["threshold", "--fix", fix] + ([] if tol == 1e-4 else ["--tol", repr(tol)]), tol


def _threshold_b_op(rng, tol):
    b = float(rng.uniform(-0.45, 0.45))
    argv, tol = _threshold_argv(f"b={b!r}", tol)
    check = _crossing_check("q_star", "Q_Z_star", lambda q: float(oracle.closed_form_f(b, q)),
                            2.0 / 3.0, tol, lambda x: 0.5 * x, lambda x: 0.5)
    return Op(argv, 1, check)


def _threshold_q_op(q, tol):
    argv, tol = _threshold_argv(f"q={q!r}", tol)
    if q == 0.0:
        return Op(argv, 1, _check_zero_noise_endpoint)
    check = _crossing_check("b_star", "Q_X_star", lambda b: float(oracle.closed_form_f(b, q)), 0.5, tol,
                            lambda x: 0.5 - math.sqrt(max(0.0, 0.25 - x * x)),
                            lambda x: x / math.sqrt(max(1e-300, 0.25 - x * x)))
    return Op(argv, 1, check)


def _clean_error(o):
    """Bad input should end with exit 1 and one 'sqkd: error:' line."""
    if o.exc is not None:
        return f"uncaught {type(o.exc).__name__}: {o.exc}"
    lines = o.err.strip().splitlines()
    if o.rc != 1 or len(lines) != 1 or not lines[0].startswith("sqkd: error:"):
        return f"exit {o.rc} with stdout {o.out.strip()[:60]!r} and stderr {o.err.strip()[:60]!r}"
    return None


def _bad_inputs(tmp):
    """Inputs that fail on every run today; they do not depend on the seed."""
    return [
        Op(["sweep", "--var", "q", "--fixed", "0", "--start", "0", "--stop", "inf", "--step", "0.01",
            "--out", os.path.join(tmp, "bad.csv")], 1, _clean_error, known_fault=True),
        Op(["simulate", "--n", "1000", "--seed", "1", "--q", "0.05", "--b", "0", "--delta", "inf"],
           1, _clean_error, known_fault=True),
        Op(["threshold", "--fix", "b=0", "--tol", "inf"], 1, _clean_error, known_fault=True),
    ]


def queries(rng, tmp):
    """A seeded mix of 55 short calls: bound, threshold, validate and bad input."""
    ops = [_bound_bq(rng) for _ in range(20)]
    ops += [_bound_stats(rng, os.path.join(tmp, f"stats{k}.txt")) for k in range(8)]
    for k in range(8):
        bound_op, validate_op = _attack_ops(rng, os.path.join(tmp, f"attack{k}.txt"), k < 4, 1 + k % 4)
        ops.append(bound_op)
        if k % 2 == 0:
            ops.append(validate_op)
    ops += [_threshold_b_op(rng, TOLS[k % len(TOLS)]) for k in range(6)]
    fixed_q = [0.0] + [float(rng.uniform(0.005, 0.19)) for _ in range(4)] + [float(rng.uniform(0.2, 0.4))]
    ops += [_threshold_q_op(q, TOLS[k % len(TOLS)]) for k, q in enumerate(fixed_q)]
    ops += _bad_inputs(tmp)
    order = rng.permutation(len(ops))
    return Workload([ops[i] for i in order], ops[0])


WORKLOADS = {"sweep": sweep, "simulate": simulate, "export": export, "queries": queries}
