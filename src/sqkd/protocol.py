"""Seeded Monte Carlo simulation of the single-state measure/reflect protocol.

Each round Alice sends |+>, Bob either measures in Z and resends his result
(SIFT) or reflects the state untouched (CTRL), and Alice measures the
returning state in Z or X.  Under a collective attack the rounds are i.i.d.,
so every round is sampled from its exact outcome distribution instead of
tracking a global state.  Round i consumes the i-th four words of one Philox
stream, each compared by its top 53 bits with an integer threshold that
decides as ``Generator.random``'s double of the word would.  One counter step
gives four words, so a generator jumped to step i with ``Philox.advance(i)``
draws round i as the one stream would.  A run is therefore cut into up to
eight spans of contiguous rounds, each drawn by its own generator on its own
thread of this process, CHUNK rounds at a time, so transcripts are
reproducible whatever the block size and the number of spans.

A round is stored as one int8 cell code, ``2 * branch + second``.  The branch
(see ``_BRANCHES``) fixes Bob's choice, Alice's basis and, on SIFT rounds,
Bob's bit; ``second`` is 1 when Alice saw the second outcome of her basis
(1 or -).  Cells 0-3 are the SIFT-Z rounds, where Bob's bit is ``cell >> 1``
and Alice's is ``cell & 1``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import fileio
from .attacks import STAT_FIELDS, RestrictedAttack

SIFT = "SIFT"
CTRL = "CTRL"
BASIS_Z = "Z"
BASIS_X = "X"

ABORT_TOO_FEW_SIFT_Z = "TOO_FEW_SIFT_Z"
ABORT_CTRL_X_NOISE = "CTRL_X_NOISE"
ABORT_TEST_BIT_NOISE = "TEST_BIT_NOISE"

TRANSCRIPT_HEADER = "round,bob_choice,alice_basis,bob_bit,alice_outcome"

#: rounds drawn and classified per block, 512 kB of words; each block's dozen numpy
#: calls hold the GIL while they dispatch, so larger blocks let the spans' threads overlap more
CHUNK = 16384
#: the fewest rounds worth a span of their own: starting and joining a thread
#: costs about 0.1 ms, drawing and classifying 2**15 rounds 1-2 ms
SPAN = 2**15
#: the cores this process may run on, read once
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
#: the most spans one run is cut into
MAX_SPANS = 8
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
# the same endings as 16-byte records of four NULs and the ending; CTRL
# endings are one byte shorter and end in a NUL pad byte
_ROW_END = np.array([bytes(4) + end.encode() for end in _ROW_SUFFIX], dtype="S16").view("V16")
#: the rows of one index block share the digits of the index above the last four
_BLOCK = 10**4


def _layout(width: int) -> tuple[np.dtype, np.ndarray]:
    """The record of a row whose index has ``width`` digits, and the "low"
    field of each index below 10**4.

    The fields, in the order they are written: "tail", four NULs and the
    ending; "high", the digits above the last four as one 4-byte word (NUL
    below 10**4), whose bytes past those digits fall on "low"; "low", the
    last four digits, or all of them below 10**4, after 4 - width of the
    NULs.  The second item holds the last ``min(width, 4)`` bytes of each
    entry of the digit table.
    """
    low = min(width, 4)
    layout = np.dtype({
        "names": ["tail", "high", "low"],
        "formats": ["V16", "<u4", f"V{low}"],
        "offsets": [max(width, 4) - 4, 0, abs(width - 4)],
        "itemsize": max(width, 4) + 12,
    })
    return layout, np.ndarray(_BLOCK, f"V{low}", fileio._DIGITS, 4 - low, (4,))


_LAYOUTS = {width: _layout(width) for width in range(1, len(str(MAX_ROUNDS - 1)) + 1)}
# branch by 4 * sift + 2 * (alice_basis == X) + bob_bit; CTRL rounds ignore the bit
_BRANCH_OF = np.array([4, 4, 5, 5, 0, 1, 2, 3], dtype=np.int8)
# the cells each estimate counts and the cells of its conditioning class, one
# row per estimate in STAT_FIELDS order; the columns are the 12 cell codes:
# SIFT-Z (Bob, Alice) = 00, 01, 10, 11, SIFT-X (Bob, Alice) = 0+, 0-, 1+, 1-,
# CTRL-Z 0, 1 and CTRL-X +, -
_COUNTED = np.array([
    [1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0],  # bias + 1/2: Bob's bit 0
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # p00
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # p01
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # p10
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],  # p11
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],  # p_e_minus
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],  # p0_plus
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],  # p1_plus
])
_CLASS = np.array([
    [1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0],  # bias: the measured rounds
    *[[1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]] * 4,  # p00 ... p11: SIFT-Z
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],  # p_e_minus: CTRL-X
    *[[0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]] * 2,  # p0_plus, p1_plus: SIFT-X
])


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

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Frequency estimates of the observable statistics and their binomial
        standard errors, two float64 arrays in STAT_FIELDS order.

        Each estimate is the share of its counted cells in its conditioning
        class (see ``_COUNTED`` and ``_CLASS``); an empty class gives NaN
        rather than a fabricated value.
        """
        m = _CLASS @ self.table
        with np.errstate(invalid="ignore", divide="ignore"):
            value = _COUNTED @ self.table / m
            se = np.sqrt(value * (1.0 - value) / m)
        value[0] -= 0.5  # the bias is the share of Bob's bit 0, less 1/2
        return value, se

    def summary_lines(self) -> list[str]:
        """Key-value summary: counts, error rates, abort and the estimates."""

        def num(x: float) -> str:
            return "none" if x != x else fileio.fmt(x)

        value, se = self.estimates()
        lines = [
            f"rounds={self.n_rounds}",
            f"sift_z_count={self.sift_z_count}",
            f"sift_x_count={self.sift_x_count}",
            f"ctrl_z_count={self.ctrl_z_count}",
            f"ctrl_x_count={self.ctrl_x_count}",
            f"ctrl_x_error_rate={num(value[5])}",
            f"test_bit_error_rate={num(self.test_bit_error_rate)}",
            f"abort={self.abort_reason or 'none'}",
        ]
        for name, v, v_se in zip(STAT_FIELDS, value.tolist(), se.tolist()):
            lines.append(f"{name}={num(v)}")
            if v == v:
                lines.append(f"{name}_se={fileio.fmt(v_se)}")
        return lines

    def to_csv(self, path) -> None:
        """Write one row per round plus the summary block as '#' comments."""
        with open(path, "wb") as fh:
            fh.write(f"{TRANSCRIPT_HEADER}\n".encode())
            for start in range(0, self.n_rounds, _BLOCK):
                fh.write(_rows(start, self.cells[start:start + _BLOCK]))
            fh.write("".join(f"# {line}\n" for line in self.summary_lines()).encode())


def _rows(start: int, cells: np.ndarray) -> bytes:
    """CSV rows of the rounds start, start + 1, ... whose cell codes are ``cells``.

    The rows are built one index block at a time: a run of indices of one
    width that share the digits above the last four, so a block ends at each
    power of ten and each multiple of 10**4.  Each row of a block is one
    record (see ``_layout``): the ending is gathered by cell code, the high
    digits are one constant and the last digits a slice of the digit table.
    The NULs left, the pad byte of CTRL endings and those before an index
    below 1000, never occur in a row, so deleting every NUL leaves the rows.
    """
    blocks = []
    stop = start + cells.size
    a = start
    while a < stop:
        width = len(str(a))
        b = min(stop, a - a % _BLOCK + _BLOCK, 10**width)
        layout, last_digits = _LAYOUTS[width]
        records = np.empty(b - a, layout)
        records["tail"] = _ROW_END[cells[a - start:b - start].astype(np.intp)]  # numpy gathers fastest by intp
        records["high"] = int.from_bytes(str(a)[:-4].encode(), "little")
        records["low"] = last_digits[a % _BLOCK:a % _BLOCK + b - a]
        blocks.append(records.tobytes().replace(b"\0", b""))
        a = b
    return b"".join(blocks)


def _thresholds(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64 for p in [0, 1]: ``Generator.random`` reads a
    word w as k * 2**-53, k = w >> 11, which is >= p exactly when k >= ceil(p * 2**53)."""
    return np.ceil(np.multiply(p, 2.0**53)).astype(np.uint64)


def _fill(seed: int, start: int, stop: int, cuts: tuple[float, float, float], first_cell: np.ndarray,
          p_first: np.ndarray, cells: np.ndarray, counts: np.ndarray, sift_z: list) -> None:
    """Draw and classify rounds [start, stop) into ``cells[start:stop]``, add
    their number in each cell to ``counts`` and append their SIFT-Z cells to
    ``sift_z``.  The generator is jumped to round ``start``; ``cuts`` holds
    p_sift, p_z and the bit cut 1/2 + b, and ``first_cell`` and ``p_first``
    the first cell and the first-outcome probability of each packed choice.
    """
    k_sift, k_z, k_bit = _thresholds(cuts)
    k_first = _thresholds(p_first)
    bitgen = np.random.Philox(seed).advance(start)
    for a in range(start, stop, CHUNK):
        k = bitgen.random_raw(4 * min(CHUNK, stop - a)).reshape(-1, 4)
        k >>= 11
        packed = (k[:, 0] < k_sift).view(np.uint8) << 2
        packed |= (k[:, 1] >= k_z).view(np.uint8) << 1
        packed |= (k[:, 2] >= k_bit).view(np.uint8)
        packed = packed.astype(np.intp)
        block = first_cell[packed] + (k[:, 3] >= k_first[packed])
        del k  # the next chunk's words are drawn only after these are freed
        cells[a:a + block.size] = block
        counts += np.bincount(block, minlength=12)
        sift_z.append(np.compress(block < 4, block))


def run_protocol(cfg: ProtocolConfig, attack: RestrictedAttack) -> ProtocolTranscript:
    """Simulate all rounds, apply the abort checks in order, and distill keys.

    Aborts are recorded on the transcript, not raised.  Identical
    (cfg, attack) pairs produce bit-identical transcripts.
    """
    n, n_rounds = cfg.n, cfg.n_rounds

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

    # spans 1 ... w-1 run on threads, span 0 on this one; a run too short for
    # two spans, or a single core, starts no thread
    w = max(1, min(CORES, n_rounds // SPAN, MAX_SPANS))
    ends = [n_rounds * k // w for k in range(w + 1)]
    cells = np.empty(n_rounds, dtype=np.int8)
    counts = np.zeros((w, 12), dtype=np.int64)
    sift_z = [[] for _ in range(w)]
    shared = ((cfg.p_sift, cfg.p_z, 0.5 + attack.bias), 2 * _BRANCH_OF, p_first[_BRANCH_OF], cells)
    errors = [None] * w

    def span(k):
        try:
            _fill(cfg.seed, ends[k], ends[k + 1], *shared, counts[k], sift_z[k])
        except BaseException as exc:  # re-raised by the caller once every span has ended
            errors[k] = exc

    threads = [threading.Thread(target=span, args=(k,)) for k in range(1, w)]
    try:
        for thread in threads:
            thread.start()
        span(0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    table = counts.sum(axis=0)

    sz_cells = np.concatenate([part for parts in sift_z for part in parts])  # in round order
    abort = key_alice = key_bob = None
    test_error = math.nan
    if sz_cells.size < 2 * n:
        abort = ABORT_TOO_FEW_SIFT_Z
    else:
        picked = np.zeros(sz_cells.size, dtype=bool)  # the test rounds among the SIFT-Z cells
        # the generator continues where the draw of the last round left the stream
        rng = np.random.Generator(np.random.Philox(cfg.seed).advance(n_rounds))
        picked[rng.choice(sz_cells.size, size=n, replace=False)] = True
        test_cells = np.compress(picked, sz_cells)
        test_error = int(np.count_nonzero((test_cells & 1) != (test_cells >> 1))) / n
        n_cx = _CLASS[5] @ table  # the p_e_minus rows: the CTRL-X rounds and their - outcomes
        if n_cx and _COUNTED[5] @ table / n_cx > cfg.p_t:
            abort = ABORT_CTRL_X_NOISE
        elif test_error > cfg.p_t:
            abort = ABORT_TEST_BIT_NOISE
        else:
            key_cells = np.compress(~picked, sz_cells)[:n]
            key_alice, key_bob = key_cells & 1, key_cells >> 1

    return ProtocolTranscript(
        cells=cells,
        table=table,
        test_bit_error_rate=test_error,
        raw_key_alice=key_alice,
        raw_key_bob=key_bob,
        abort_reason=abort,
    )
