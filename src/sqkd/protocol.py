"""Seeded Monte Carlo simulation of the single-state measure/reflect protocol.

Each round Alice sends |+>, Bob either measures in Z and resends his result
(SIFT) or reflects the state untouched (CTRL), and Alice measures the
returning state in Z or X.  Under a collective attack the rounds are i.i.d.,
so every round is sampled from its exact outcome distribution instead of
tracking a global state.  Round i consumes the i-th four uniforms of one
Philox stream, drawn CHUNK rounds at a time; a block-wise draw yields the
same doubles as one large draw, so transcripts are reproducible whatever the
block size.

A round is stored as one int8 cell code, ``2 * branch + second``.  The branch
(see ``_BRANCHES``) fixes Bob's choice, Alice's basis and, on SIFT rounds,
Bob's bit; ``second`` is 1 when Alice saw the second outcome of her basis
(1 or -).  Cells 0-3 are the SIFT-Z rounds, where Bob's bit is ``cell >> 1``
and Alice's is ``cell & 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .attacks import STAT_FIELDS, RestrictedAttack, Statistics

SIFT = "SIFT"
CTRL = "CTRL"
BASIS_Z = "Z"
BASIS_X = "X"

ABORT_TOO_FEW_SIFT_Z = "TOO_FEW_SIFT_Z"
ABORT_CTRL_X_NOISE = "CTRL_X_NOISE"
ABORT_TEST_BIT_NOISE = "TEST_BIT_NOISE"

TRANSCRIPT_HEADER = "round,bob_choice,alice_basis,bob_bit,alice_outcome"

#: rounds drawn, classified and written per block; bounds the working memory
CHUNK = 4096
#: the most rounds one run may have; larger requests are rejected before allocation
MAX_ROUNDS = 10**8

# (bob_choice, alice_basis, bob_bit) of each branch, in branch order
_BRANCHES = (
    (SIFT, BASIS_Z, "0"),
    (SIFT, BASIS_Z, "1"),
    (SIFT, BASIS_X, "0"),
    (SIFT, BASIS_X, "1"),
    (CTRL, BASIS_Z, ""),
    (CTRL, BASIS_X, ""),
)
_OUTCOMES = {BASIS_Z: ("0", "1"), BASIS_X: ("+", "-")}
# the CSV row of a round after its index, by cell code
_ROW_SUFFIX = tuple(
    f",{choice},{basis},{bit},{outcome}\n"
    for choice, basis, bit in _BRANCHES
    for outcome in _OUTCOMES[basis]
)
# the same endings as fixed 12-byte records; CTRL endings are one byte
# shorter and end in a NUL pad byte
_ROW_END = np.array([end.encode() for end in _ROW_SUFFIX], dtype="S12").view("V12")
# a round index is written as 4-digit groups, enough for every index below MAX_ROUNDS
_GROUPS = -(-len(str(MAX_ROUNDS - 1)) // 4)
_INDEX_WIDTH = 4 * _GROUPS
# _KEEP[g, d] masks the bytes of group g that an index of d digits shows
_KEEP = np.ascontiguousarray(
    np.where(np.arange(_INDEX_WIDTH) >= _INDEX_WIDTH - np.arange(_INDEX_WIDTH + 1)[:, None], 0xFF, 0)
    .astype(np.uint8).view(np.uint32).T
)
# 10, 100, ...: the smallest index of each digit count above one
_DECADES = 10 ** np.arange(1, _INDEX_WIDTH)
# branch by 4 * sift + 2 * (alice_basis == X) + bob_bit; CTRL rounds ignore the bit
_BRANCH_OF = np.array([4, 4, 5, 5, 0, 1, 2, 3], dtype=np.int8)


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
        # n is checked first: 8 * n cannot overflow a float once n <= MAX_ROUNDS
        if self.n > MAX_ROUNDS or 8 * self.n * (1.0 + self.delta) > MAX_ROUNDS:
            raise ValueError(
                f"n={self.n!r} with delta={self.delta!r} needs more than {MAX_ROUNDS} rounds,"
                " the most one run may have"
            )

    @property
    def n_rounds(self) -> int:
        return math.ceil(8 * self.n * (1.0 + self.delta))


@dataclass(frozen=True)
class Estimate:
    """Frequency estimate with its binomial standard error."""

    value: float
    se: float
    n_samples: int


@dataclass(frozen=True)
class EstimatedStatistics:
    """Empirical counterparts of Statistics; None marks a field whose
    conditioning class was empty."""

    bias: Estimate | None
    p00: Estimate | None
    p01: Estimate | None
    p10: Estimate | None
    p11: Estimate | None
    p_e_minus: Estimate | None
    p0_plus: Estimate | None
    p1_plus: Estimate | None

    def complete(self) -> bool:
        return all(getattr(self, name) is not None for name in STAT_FIELDS)

    def to_observed(self) -> Statistics:
        """Build a one-point Statistics from the point estimates.

        Raises ValueError when a field is unavailable or when sampling noise
        pushes the estimates outside the statistics invariants.
        """
        if not self.complete():
            missing = [name for name in STAT_FIELDS if getattr(self, name) is None]
            raise ValueError(f"estimates unavailable for: {', '.join(missing)}")
        return Statistics(**{name: getattr(self, name).value for name in STAT_FIELDS})


def _freq(count: int, m: int) -> Estimate | None:
    if not m:
        return None
    p = count / m
    return Estimate(value=p, se=math.sqrt(p * (1.0 - p) / m), n_samples=m)


@dataclass(frozen=True)
class ProtocolTranscript:
    """Outcome of one protocol run.

    ``cells`` holds the cell code of every round (see the module docstring)
    and ``table`` the number of rounds in each of the 12 cells; every count,
    rate and estimate is read from ``table``.  Error rates are NaN when their
    conditioning class is empty or the corresponding protocol step was never
    reached.
    """

    cells: np.ndarray
    table: np.ndarray
    test_bit_error_rate: float
    test_rounds: np.ndarray
    raw_key_alice: np.ndarray | None
    raw_key_bob: np.ndarray | None
    abort_reason: str | None

    @property
    def n_rounds(self) -> int:
        return self.cells.size

    @property
    def sift_z_count(self) -> int:
        return int(self.table[0:4].sum())

    @property
    def sift_x_count(self) -> int:
        return int(self.table[4:8].sum())

    @property
    def ctrl_z_count(self) -> int:
        return int(self.table[8:10].sum())

    @property
    def ctrl_x_count(self) -> int:
        return int(self.table[10:12].sum())

    @property
    def ctrl_x_error_rate(self) -> float:
        n_cx = self.ctrl_x_count
        return int(self.table[11]) / n_cx if n_cx else math.nan

    @property
    def estimated(self) -> EstimatedStatistics:
        """Frequency estimates of the observable statistics.

        The raw-key probabilities are conditioned on the measure-and-Z rounds,
        the bias on all measured rounds, p_e_minus on reflected X rounds and
        p0_plus / p1_plus (jointly with Bob's bit) on measure-and-X rounds.
        Empty conditioning classes yield None fields rather than fabricated
        values.
        """
        t = self.table.tolist()
        m_sift, m_sz, m_sx, m_cx = sum(t[0:8]), sum(t[0:4]), sum(t[4:8]), t[10] + t[11]
        frac0 = _freq(t[0] + t[1] + t[4] + t[5], m_sift)
        bias = None if frac0 is None else Estimate(value=frac0.value - 0.5, se=frac0.se, n_samples=m_sift)
        return EstimatedStatistics(
            bias=bias,
            p00=_freq(t[0], m_sz),
            p01=_freq(t[2], m_sz),
            p10=_freq(t[1], m_sz),
            p11=_freq(t[3], m_sz),
            p_e_minus=_freq(t[11], m_cx),
            p0_plus=_freq(t[4], m_sx),
            p1_plus=_freq(t[6], m_sx),
        )

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
        estimated = self.estimated
        for name in STAT_FIELDS:
            est = getattr(estimated, name)
            if est is None:
                lines.append(f"{name}=none")
            else:
                lines.append(f"{name}={fileio.fmt(est.value)}")
                lines.append(f"{name}_se={fileio.fmt(est.se)}")
        return lines

    def to_csv(self, path) -> None:
        """Write one row per round plus the summary block as '#' comments."""
        with open(path, "wb") as fh:
            fh.write(f"{TRANSCRIPT_HEADER}\n".encode())
            for start in range(0, self.n_rounds, CHUNK):
                fh.write(_rows(start, self.cells[start:start + CHUNK]))
            fh.write("".join(f"# {line}\n" for line in self.summary_lines()).encode())


def _rows(start: int, cells: np.ndarray) -> bytes:
    """CSV rows of the rounds start, start + 1, ... whose cell codes are ``cells``.

    Each row is first laid out as a fixed-width record: the index as
    zero-padded 4-digit groups, then the 12-byte ending.  Leading zeros
    and the pad byte of CTRL endings are NUL, which never occurs in a row,
    so deleting every NUL leaves the rows.
    """
    index = np.arange(start, start + cells.size)
    n_digits = 1 + np.searchsorted(_DECADES, index, side="right")
    records = np.empty((cells.size, _GROUPS + 3), dtype=np.uint32)
    for g in range(_GROUPS):
        group = index // 10 ** (4 * (_GROUPS - 1 - g)) % 10**4
        records[:, g] = fileio._DIGITS[group] & _KEEP[g, n_digits]
    records[:, _GROUPS:].view("V12")[:, 0] = _ROW_END[cells]
    return records.tobytes().translate(None, b"\0")


def run_protocol(cfg: ProtocolConfig, attack: RestrictedAttack) -> ProtocolTranscript:
    """Simulate all rounds, apply the abort checks in order, and distill keys.

    Aborts are recorded on the transcript, not raised.  Identical
    (cfg, attack) pairs produce bit-identical transcripts.
    """
    n = cfg.n
    n_rounds = cfg.n_rounds
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    # probability of the first outcome (0 for Z, + for X) on each branch
    e00, e01, e10, e11 = attack.e00, attack.e01, attack.e10, attack.e11
    gm = attack.g_minus()
    reflected = attack.alpha * e00 + attack.beta * e10  # qubit collapses to 0
    p_first = np.clip([
        np.vdot(e00, e00).real,
        np.vdot(e10, e10).real,
        0.5 + np.vdot(e00, e01).real,
        0.5 + np.vdot(e10, e11).real,
        np.vdot(reflected, reflected).real,
        1.0 - np.vdot(gm, gm).real,
    ], 0.0, 1.0)

    bit_cut = 0.5 + attack.bias
    cells = np.empty(n_rounds, dtype=np.int8)
    table = np.zeros(12, dtype=np.int64)
    for start in range(0, n_rounds, CHUNK):
        u = rng.random((min(CHUNK, n_rounds - start), 4))
        packed = 4 * (u[:, 0] < cfg.p_sift) + 2 * (u[:, 1] >= cfg.p_z) + (u[:, 2] >= bit_cut)
        branch = _BRANCH_OF[packed]
        block = 2 * branch + (u[:, 3] >= p_first[branch])
        cells[start:start + block.size] = block
        table += np.bincount(block, minlength=12)

    sz_rounds = np.flatnonzero(cells < 4)
    n_cx = int(table[10] + table[11])
    abort = None
    test_rounds = np.empty(0, dtype=np.int64)
    test_error = math.nan
    key_alice = key_bob = None
    if sz_rounds.size < 2 * n:
        abort = ABORT_TOO_FEW_SIFT_Z
    else:
        picked = np.sort(rng.choice(sz_rounds.size, size=n, replace=False))  # positions in sz_rounds
        test_rounds = sz_rounds[picked]
        test_cells = cells[test_rounds]
        test_error = int(np.count_nonzero((test_cells & 1) != (test_cells >> 1))) / n
        if n_cx and int(table[11]) / n_cx > cfg.p_t:
            abort = ABORT_CTRL_X_NOISE
        elif test_error > cfg.p_t:
            abort = ABORT_TEST_BIT_NOISE
        else:
            unpicked = np.ones(sz_rounds.size, dtype=bool)
            unpicked[picked] = False
            key_cells = cells[sz_rounds[unpicked][:n]]
            key_alice = key_cells & 1
            key_bob = key_cells >> 1

    return ProtocolTranscript(
        cells=cells,
        table=table,
        test_bit_error_rate=test_error,
        test_rounds=test_rounds,
        raw_key_alice=key_alice,
        raw_key_bob=key_bob,
        abort_reason=abort,
    )
