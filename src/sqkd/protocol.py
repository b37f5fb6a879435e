"""Seeded Monte Carlo simulation of the single-state measure/reflect protocol.

Each round Alice sends |+>, Bob either measures in Z and resends his result
(SIFT) or reflects the state untouched (CTRL), and Alice measures the
returning state in Z or X.  Under a collective attack the rounds are i.i.d.,
so every round is drawn from the law of a round, ``cell_probabilities``,
instead of tracking a global state.  Round i reads the i-th 64-bit word of one
Philox stream: Bob sifts when bit 0 is 0 and Alice measures in X when bit 1
is 1, and the top 53 bits pick the cell of that choice, compared with integer
thresholds of the cumulative probabilities of its cells that decide as
``Generator.random``'s double of the word would.  That double drops the 11 low
bits, so the fair choices are exactly 1/2 and independent of the cell draw.
A counter step gives four words, four rounds, so ``Philox.advance(i // 4)``,
less i % 4 words, draws round i as the one stream would.  A run is therefore
cut into up to eight spans of contiguous rounds, each drawn by its own
generator on its own thread, CHUNK rounds at a time, so transcripts are
reproducible whatever the block size and the number of spans.

A round is stored as one int8 cell code, ``2 * branch + second``.  The branch
(see ``_ROW_SUFFIX``) fixes Bob's choice, Alice's basis and, on SIFT rounds,
Bob's bit; ``second`` is 1 when Alice saw the second outcome of her basis
(1 or -).  Cells 0-3 are the SIFT-Z rounds, where Bob's bit is ``cell >> 1``
and Alice's is ``cell & 1``.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import fileio
from .attacks import _CLASS, _COUNTED, STAT_FIELDS, RestrictedAttack, Statistics, cell_probabilities
from .keyrate import KeyRateReport, key_rate_bound

ABORT_TOO_FEW_SIFT_Z = "TOO_FEW_SIFT_Z"
ABORT_CTRL_X_NOISE = "CTRL_X_NOISE"
ABORT_KEY_RATE = "KEY_RATE"

TRANSCRIPT_HEADER = "round,bob_choice,alice_basis,bob_bit,alice_outcome"

#: rounds drawn and classified per block, 128 kB of words; each block's dozen numpy
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
#: the error threshold of the CTRL-X abort check
P_T = 0.1

# the CSV row of a round after its index, by cell code: bob_choice,
# alice_basis, bob_bit (SIFT rounds only) and alice_outcome
_ROW_SUFFIX = (
    ",SIFT,Z,0,0\n", ",SIFT,Z,0,1\n", ",SIFT,Z,1,0\n", ",SIFT,Z,1,1\n",
    ",SIFT,X,0,+\n", ",SIFT,X,0,-\n", ",SIFT,X,1,+\n", ",SIFT,X,1,-\n",
    ",CTRL,Z,,0\n", ",CTRL,Z,,1\n", ",CTRL,X,,+\n", ",CTRL,X,,-\n",
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
# the first cell of each choice, ctrl + 2 * (alice_basis == X)
_FIRST_CELL = np.array([0, 8, 4, 10], dtype=np.int8)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters.  Bob sifts and Alice measures in Z with probability 1/2
    each, so SIFT-Z rounds are 1/4 of all rounds; a run with fewer than 2n of
    them aborts, and so the run has ceil(8 n (1 + delta)) rounds."""

    n: int
    seed: int
    delta: float = 0.25

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"raw key length n must be a positive integer, got {self.n!r}")
        if int(self.seed) != self.seed or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
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
    and ``table`` the number of rounds in each of the 12 cells.  ``estimates``
    holds the frequency estimates of the observable statistics and ``se``
    their binomial standard errors, two float64 arrays in STAT_FIELDS order
    computed once from ``table``, NaN where their conditioning class is
    empty.  ``report`` is the key-rate bound at the estimates, or the
    ValueError with which ``Statistics`` rejected them.
    """

    cells: np.ndarray
    table: np.ndarray
    estimates: np.ndarray
    se: np.ndarray
    report: KeyRateReport | ValueError
    abort_reason: str | None

    @property
    def n_rounds(self) -> int:
        return self.cells.size

    def summary_items(self) -> list[tuple[str, object]]:
        """Key-value summary: counts, error rates, abort and the estimates."""
        # the rounds of each branch: SIFT-Z, SIFT-X, CTRL-Z and CTRL-X
        sift_z, sift_x, ctrl_z, ctrl_x = np.add.reduceat(self.table, [0, 4, 8, 10]).tolist()
        items = [
            ("rounds", self.n_rounds),
            ("sift_z_count", sift_z),
            ("sift_x_count", sift_x),
            ("ctrl_z_count", ctrl_z),
            ("ctrl_x_count", ctrl_x),
            ("ctrl_x_error_rate", self.estimates[5]),
            ("abort", self.abort_reason),
        ]
        for name, v, v_se in zip(STAT_FIELDS, self.estimates.tolist(), self.se.tolist()):
            items.append((name, v))
            if v == v:
                items.append((f"{name}_se", v_se))
        return items

    def to_csv(self, path) -> None:
        """Write one row per round plus the summary block as '#' comments."""
        with open(path, "wb") as fh:
            fh.write(f"{TRANSCRIPT_HEADER}\n".encode())
            fh.writelines(_rows(0, self.cells))
            summary = fileio.kv_text(self.summary_items())
            fh.write("".join(f"# {line}\n" for line in summary.splitlines()).encode())


def _rows(start: int, cells: np.ndarray) -> Iterator[bytes]:
    """CSV rows of the rounds start, start + 1, ... whose cell codes are
    ``cells``, one index block at a time.

    A block is a run of indices of one width that share the digits above the
    last four, so a block ends at each power of ten and each multiple of
    10**4.  Each row of a block is one record (see ``_layout``): the ending is
    gathered by cell code, the high digits are one constant and the last
    digits a slice of the digit table.  The NULs left, the pad byte of CTRL
    endings and those before an index below 1000, never occur in a row, so
    deleting every NUL leaves the rows.
    """
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
        yield records.tobytes().replace(b"\0", b"")
        a = b


def _thresholds(p) -> np.ndarray:
    """ceil(p * 2**53) as uint64 for p in [0, 1]: ``Generator.random`` reads a
    word w as k * 2**-53, k = w >> 11, which is >= p exactly when k >= ceil(p * 2**53)."""
    return np.ceil(np.multiply(p, 2.0**53)).astype(np.uint64)


def _fill(seed: int, start: int, stop: int, k: np.ndarray, cells: np.ndarray, counts: np.ndarray) -> None:
    """Draw and classify rounds [start, stop) into ``cells[start:stop]`` and
    add their number in each cell to ``counts``.  The generator is jumped to
    round ``start``, four rounds a counter step; ``k[j, c]`` is the threshold of
    the probability of the first j + 1 cells of choice c, ctrl + 2 * (alice_basis == X).
    """
    bitgen = np.random.Philox(seed).advance(start // 4)
    bitgen.random_raw(start % 4)
    for a in range(start, stop, CHUNK):
        w = bitgen.random_raw(min(CHUNK, stop - a))
        choice = (w & 3).view(np.int64)
        w >>= 11
        block = _FIRST_CELL[choice]
        for k_j in k:
            block += w >= k_j[choice]
        del w  # the next chunk's words are drawn only after these are freed
        cells[a:a + block.size] = block
        counts += np.bincount(block, minlength=12)


def run_protocol(cfg: ProtocolConfig, attack: RestrictedAttack) -> ProtocolTranscript:
    """Simulate all rounds, take the key-rate bound at their estimates and
    apply the abort checks in order.

    Aborts are recorded on the transcript, not raised.  Identical
    (cfg, attack) pairs produce bit-identical transcripts.
    """
    n, n_rounds = cfg.n, cfg.n_rounds
    # the cumulative probabilities of each choice's cells, in code order: on SIFT
    # Bob's bit 0 with the first outcome (0 for Z, + for X), bit 0, and bit 1 with
    # the first outcome; on CTRL the first outcome, then 1, which no draw reaches
    pb, p = 0.5 + attack.bias, np.clip(cell_probabilities(attack), 0.0, 1.0)
    k = _thresholds([[pb * p[0], p[8], pb * p[4], p[10]], [pb, 1.0, pb, 1.0],
                     [pb + (1.0 - pb) * p[2], 1.0, pb + (1.0 - pb) * p[6], 1.0]])

    # spans 1 ... w-1 run on threads, span 0 on this one; a run too short for
    # two spans, or a single core, starts no thread
    w = max(1, min(CORES, n_rounds // SPAN, MAX_SPANS))
    ends = [n_rounds * i // w for i in range(w + 1)]
    cells = np.empty(n_rounds, dtype=np.int8)
    counts = np.zeros((w, 12), dtype=np.int64)
    errors = [None] * w

    def span(i):
        try:
            _fill(cfg.seed, ends[i], ends[i + 1], k, cells, counts[i])
        except BaseException as exc:  # re-raised by the caller once every span has ended
            errors[i] = exc

    threads = [threading.Thread(target=span, args=(i,)) for i in range(1, w)]
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
    # each estimate is the share of its counted cells in its conditioning
    # class, NaN for an empty class rather than a fabricated value
    m = _CLASS @ table
    with np.errstate(invalid="ignore", divide="ignore"):
        estimates = _COUNTED @ table / m
        se = np.sqrt(estimates * (1.0 - estimates) / m)
    estimates[0] -= 0.5  # the bias is the share of Bob's bit 0, less 1/2

    try:  # an estimate of an empty class is NaN, which Statistics rejects
        report = key_rate_bound(Statistics(*estimates))
    except ValueError as exc:
        report = exc

    abort = None
    if table[:4].sum() < 2 * n:
        abort = ABORT_TOO_FEW_SIFT_Z
    # the CTRL-X error rate is the p_e_minus estimate; NaN, for no CTRL-X round, never aborts
    elif estimates[5] > P_T:
        abort = ABORT_CTRL_X_NOISE
    # no key where the estimates give no bound, where B <= 0 (the bound there, at
    # most 0, may round above it) or where the bound is not positive
    elif isinstance(report, ValueError) or report.abort[0] or not report.bound[0] > 0:
        abort = ABORT_KEY_RATE

    return ProtocolTranscript(cells=cells, table=table, estimates=estimates, se=se,
                              report=report, abort_reason=abort)
