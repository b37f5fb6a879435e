"""Seeded Monte Carlo simulation of the single-state measure/reflect protocol.

Each round Alice sends |+>, Bob either measures in Z and resends his result
(SIFT) or reflects the state untouched (CTRL), and Alice measures the
returning state in Z or X.  Under a collective attack the rounds are i.i.d.,
so every round is sampled from its exact outcome distribution instead of
tracking a global state.  Round i consumes row i of one pre-drawn block of
uniforms, which makes transcripts reproducible and rounds independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .attacks import ObservedStatistics, RestrictedAttack

SIFT = "SIFT"
CTRL = "CTRL"
BASIS_Z = "Z"
BASIS_X = "X"

ABORT_TOO_FEW_SIFT_Z = "TOO_FEW_SIFT_Z"
ABORT_CTRL_X_NOISE = "CTRL_X_NOISE"
ABORT_TEST_BIT_NOISE = "TEST_BIT_NOISE"

# alice_out codes: Z basis rounds use 0/1, X basis rounds use 2 (+) and 3 (-)
OUT_ZERO, OUT_ONE, OUT_PLUS, OUT_MINUS = 0, 1, 2, 3
OUTCOME_LABELS = ("0", "1", "+", "-")

TRANSCRIPT_HEADER = "round,bob_choice,alice_basis,bob_bit,alice_outcome"


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters; the number of rounds is ceil(8 n (1 + delta))."""

    n: int
    seed: int
    delta: float = 0.25
    p_sift: float = 0.5
    p_z: float = 0.5
    p_t: float = 0.1

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"raw key length n must be a positive integer, got {self.n!r}")
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        for name in ("p_sift", "p_z"):
            p = float(getattr(self, name))
            if not 0.0 < p < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {p!r}")
        if not 0.0 < self.p_t < 0.5:
            raise ValueError(f"error threshold p_t must lie in (0, 1/2), got {self.p_t!r}")

    @property
    def n_rounds(self) -> int:
        return math.ceil(8 * self.n * (1.0 + self.delta))


@dataclass(frozen=True)
class RoundRecord:
    bob_choice: str
    alice_basis: str
    bob_bit: int | None
    alice_outcome: str


@dataclass(frozen=True)
class Estimate:
    """Frequency estimate with its binomial standard error."""

    value: float
    se: float
    n_samples: int


@dataclass(frozen=True)
class EstimatedStatistics:
    """Empirical counterparts of ObservedStatistics; None marks a field whose
    conditioning class was empty."""

    bias: Estimate | None
    p00: Estimate | None
    p01: Estimate | None
    p10: Estimate | None
    p11: Estimate | None
    p_e_minus: Estimate | None
    p0_plus: Estimate | None
    p1_plus: Estimate | None

    FIELDS = ("bias", "p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus")

    def complete(self) -> bool:
        return all(getattr(self, name) is not None for name in self.FIELDS)

    def to_observed(self) -> ObservedStatistics:
        """Build ObservedStatistics from the point estimates.

        Raises ValueError when a field is unavailable or when sampling noise
        pushes the estimates outside the statistics invariants.
        """
        if not self.complete():
            missing = [name for name in self.FIELDS if getattr(self, name) is None]
            raise ValueError(f"estimates unavailable for: {', '.join(missing)}")
        return ObservedStatistics(**{name: getattr(self, name).value for name in self.FIELDS})


@dataclass(frozen=True)
class ProtocolTranscript:
    """Outcome of one protocol run.

    Per-round data is stored in column arrays (one entry per round); use
    ``round(i)`` or ``iter_rounds()`` for a record view.  ``bob_bit`` is -1 on
    CTRL rounds.  Error rates are NaN when their conditioning class is empty
    or the corresponding protocol step was never reached.
    """

    bob_sift: np.ndarray
    alice_z: np.ndarray
    bob_bit: np.ndarray
    alice_out: np.ndarray
    sift_z_count: int
    ctrl_x_error_rate: float
    test_bit_error_rate: float
    test_rounds: np.ndarray
    raw_key_alice: np.ndarray | None
    raw_key_bob: np.ndarray | None
    abort_reason: str | None
    estimated: EstimatedStatistics

    @property
    def n_rounds(self) -> int:
        return self.bob_sift.size

    @property
    def sift_x_count(self) -> int:
        return int(np.count_nonzero(self.bob_sift & ~self.alice_z))

    @property
    def ctrl_z_count(self) -> int:
        return int(np.count_nonzero(~self.bob_sift & self.alice_z))

    @property
    def ctrl_x_count(self) -> int:
        return int(np.count_nonzero(~self.bob_sift & ~self.alice_z))

    def round(self, i: int) -> RoundRecord:
        sift = bool(self.bob_sift[i])
        return RoundRecord(
            bob_choice=SIFT if sift else CTRL,
            alice_basis=BASIS_Z if self.alice_z[i] else BASIS_X,
            bob_bit=int(self.bob_bit[i]) if sift else None,
            alice_outcome=OUTCOME_LABELS[self.alice_out[i]],
        )

    def iter_rounds(self):
        return (self.round(i) for i in range(self.n_rounds))

    def summary_lines(self) -> list[str]:
        """Key-value summary: counts, error rates, abort and the estimates."""

        def num(x: float) -> str:
            return "none" if x != x else fileio.fmt(x)

        lines = [
            f"rounds={self.n_rounds}",
            f"sift_z_count={self.sift_z_count}",
            f"sift_x_count={self.sift_x_count}",
            f"ctrl_z_count={self.ctrl_z_count}",
            f"ctrl_x_count={self.ctrl_x_count}",
            f"ctrl_x_error_rate={num(self.ctrl_x_error_rate)}",
            f"test_bit_error_rate={num(self.test_bit_error_rate)}",
            f"abort={self.abort_reason or 'none'}",
        ]
        for name in EstimatedStatistics.FIELDS:
            est = getattr(self.estimated, name)
            if est is None:
                lines.append(f"{name}=none")
            else:
                lines.append(f"{name}={fileio.fmt(est.value)}")
                lines.append(f"{name}_se={fileio.fmt(est.se)}")
        return lines

    def to_csv(self, path) -> None:
        """Write one row per round plus the summary block as '#' comments."""
        bit = self.bob_bit
        out = self.alice_out
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(TRANSCRIPT_HEADER + "\n")
            for i in range(self.n_rounds):
                if self.bob_sift[i]:
                    choice, bob = SIFT, str(int(bit[i]))
                else:
                    choice, bob = CTRL, ""
                basis = BASIS_Z if self.alice_z[i] else BASIS_X
                fh.write(f"{i},{choice},{basis},{bob},{OUTCOME_LABELS[out[i]]}\n")
            for line in self.summary_lines():
                fh.write(f"# {line}\n")


def sample_outcome(dist, rng: np.random.Generator):
    """Inverse-CDF draw of one label from ``[(label, probability), ...]``."""
    if not dist:
        raise ValueError("empty distribution")
    labels = [label for label, _ in dist]
    probs = np.array([p for _, p in dist], dtype=float)
    if np.any(probs < -1e-12):
        raise ValueError(f"negative probability in distribution: {probs.min()!r}")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {float(probs.sum())!r}")
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return labels[min(idx, len(labels) - 1)]


def _outcome_probabilities(attack: RestrictedAttack) -> dict[str, float]:
    """Per-branch probability of the first outcome label (0 for Z, + for X)."""
    e00, e01, e10, e11 = attack.e00, attack.e01, attack.e10, attack.e11
    gm = attack.g_minus()
    reflected = attack.alpha * e00 + attack.beta * e10  # qubit collapses to 0
    probs = {
        "sift_z_bob0": float(np.vdot(e00, e00).real),
        "sift_z_bob1": float(np.vdot(e10, e10).real),
        "sift_x_bob0": 0.5 + float(np.vdot(e00, e01).real),
        "sift_x_bob1": 0.5 + float(np.vdot(e10, e11).real),
        "ctrl_z": float(np.vdot(reflected, reflected).real),
        "ctrl_x": 1.0 - float(np.vdot(gm, gm).real),
    }
    return {key: min(max(p, 0.0), 1.0) for key, p in probs.items()}


def run_protocol(cfg: ProtocolConfig, attack: RestrictedAttack) -> ProtocolTranscript:
    """Simulate all rounds, apply the abort checks in order, and distill keys.

    Aborts are recorded on the transcript, not raised.  Identical
    (cfg, attack) pairs produce bit-identical transcripts.
    """
    n = cfg.n
    n_rounds = cfg.n_rounds
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    u = rng.random((n_rounds, 4))

    bob_sift = u[:, 0] < cfg.p_sift
    alice_z = u[:, 1] < cfg.p_z
    bob_bit = np.full(n_rounds, -1, dtype=np.int8)
    bob_bit[bob_sift] = (u[bob_sift, 2] >= 0.5 + attack.bias).astype(np.int8)

    pr = _outcome_probabilities(attack)
    p_first = np.empty(n_rounds, dtype=float)
    sz = bob_sift & alice_z
    sx = bob_sift & ~alice_z
    bob0 = bob_bit == 0
    p_first[sz & bob0] = pr["sift_z_bob0"]
    p_first[sz & ~bob0] = pr["sift_z_bob1"]
    p_first[sx & bob0] = pr["sift_x_bob0"]
    p_first[sx & ~bob0] = pr["sift_x_bob1"]
    p_first[~bob_sift & alice_z] = pr["ctrl_z"]
    p_first[~bob_sift & ~alice_z] = pr["ctrl_x"]

    first = u[:, 3] < p_first
    alice_out = np.where(
        alice_z,
        np.where(first, OUT_ZERO, OUT_ONE),
        np.where(first, OUT_PLUS, OUT_MINUS),
    ).astype(np.int8)

    cx = ~bob_sift & ~alice_z
    n_cx = int(np.count_nonzero(cx))
    ctrl_x_error = float(np.count_nonzero(alice_out[cx] == OUT_MINUS)) / n_cx if n_cx else math.nan

    sz_rounds = np.flatnonzero(sz)
    sift_z_count = int(sz_rounds.size)

    abort = None
    test_rounds = np.empty(0, dtype=np.int64)
    test_error = math.nan
    key_alice = key_bob = None
    if sift_z_count < 2 * n:
        abort = ABORT_TOO_FEW_SIFT_Z
    else:
        test_rounds = np.sort(rng.choice(sz_rounds, size=n, replace=False))
        test_error = float(np.count_nonzero(alice_out[test_rounds] != bob_bit[test_rounds])) / n
        if not math.isnan(ctrl_x_error) and ctrl_x_error > cfg.p_t:
            abort = ABORT_CTRL_X_NOISE
        elif test_error > cfg.p_t:
            abort = ABORT_TEST_BIT_NOISE
        else:
            remaining = np.setdiff1d(sz_rounds, test_rounds, assume_unique=True)
            key_rounds = remaining[:n]
            key_alice = alice_out[key_rounds].astype(np.int8)
            key_bob = bob_bit[key_rounds].copy()

    transcript = ProtocolTranscript(
        bob_sift=bob_sift,
        alice_z=alice_z,
        bob_bit=bob_bit,
        alice_out=alice_out,
        sift_z_count=sift_z_count,
        ctrl_x_error_rate=ctrl_x_error,
        test_bit_error_rate=test_error,
        test_rounds=test_rounds,
        raw_key_alice=key_alice,
        raw_key_bob=key_bob,
        abort_reason=abort,
        estimated=_estimate_from_arrays(bob_sift, alice_z, bob_bit, alice_out),
    )
    return transcript


def _freq(count: int, m: int) -> Estimate:
    p = count / m
    return Estimate(value=p, se=math.sqrt(p * (1.0 - p) / m), n_samples=m)


def _estimate_from_arrays(bob_sift, alice_z, bob_bit, alice_out) -> EstimatedStatistics:
    sift_rounds = int(np.count_nonzero(bob_sift))
    bias = None
    if sift_rounds:
        frac0 = _freq(int(np.count_nonzero(bob_bit == 0)), sift_rounds)
        bias = Estimate(value=frac0.value - 0.5, se=frac0.se, n_samples=sift_rounds)

    sz = bob_sift & alice_z
    m_sz = int(np.count_nonzero(sz))
    p00 = p01 = p10 = p11 = None
    if m_sz:
        a = alice_out[sz]
        b = bob_bit[sz]
        p00 = _freq(int(np.count_nonzero((a == OUT_ZERO) & (b == 0))), m_sz)
        p01 = _freq(int(np.count_nonzero((a == OUT_ZERO) & (b == 1))), m_sz)
        p10 = _freq(int(np.count_nonzero((a == OUT_ONE) & (b == 0))), m_sz)
        p11 = _freq(int(np.count_nonzero((a == OUT_ONE) & (b == 1))), m_sz)

    cx = ~bob_sift & ~alice_z
    m_cx = int(np.count_nonzero(cx))
    p_e_minus = _freq(int(np.count_nonzero(alice_out[cx] == OUT_MINUS)), m_cx) if m_cx else None

    sx = bob_sift & ~alice_z
    m_sx = int(np.count_nonzero(sx))
    p0_plus = p1_plus = None
    if m_sx:
        a = alice_out[sx]
        b = bob_bit[sx]
        p0_plus = _freq(int(np.count_nonzero((a == OUT_PLUS) & (b == 0))), m_sx)
        p1_plus = _freq(int(np.count_nonzero((a == OUT_PLUS) & (b == 1))), m_sx)

    return EstimatedStatistics(
        bias=bias, p00=p00, p01=p01, p10=p10, p11=p11,
        p_e_minus=p_e_minus, p0_plus=p0_plus, p1_plus=p1_plus,
    )


def estimate_statistics(transcript: ProtocolTranscript) -> EstimatedStatistics:
    """Frequency estimates of the observable statistics from a transcript.

    The raw-key probabilities are conditioned on the measure-and-Z rounds,
    the bias on all measured rounds, p_e_minus on reflected X rounds and
    p0_plus / p1_plus (jointly with Bob's bit) on measure-and-X rounds.
    Empty conditioning classes yield None fields rather than fabricated
    values.
    """
    return _estimate_from_arrays(
        transcript.bob_sift, transcript.alice_z, transcript.bob_bit, transcript.alice_out
    )
