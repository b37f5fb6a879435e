import hashlib
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

import oracle
import sqkd.protocol
from sqkd.attacks import STAT_FIELDS, RestrictedAttack, Statistics, compute_statistics, depolarizing_attack
from sqkd.protocol import (
    ABORT_CTRL_X_NOISE,
    ABORT_TEST_BIT_NOISE,
    ABORT_TOO_FEW_SIFT_Z,
    CTRL,
    MAX_ROUNDS,
    SIFT,
    TRANSCRIPT_HEADER,
    ProtocolConfig,
    _ROW_SUFFIX,
    _rows,
    _thresholds,
    run_protocol,
)
from sqkd.fileio import fmt

IDENTITY = depolarizing_attack(0.0, 0.0)
P_E_MINUS = STAT_FIELDS.index("p_e_minus")


# ------------------------------------------------------------------- config


def test_config_validation():
    ProtocolConfig(n=10, seed=0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=0, seed=0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=10, seed=-1)
    with pytest.raises(ValueError):
        ProtocolConfig(n=10, seed=0, delta=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=10, seed=0, p_sift=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(n=10, seed=0, p_t=0.5)
    # the round cap is checked before anything is allocated, also where
    # 8 n (1 + delta) overflows a float
    assert ProtocolConfig(n=MAX_ROUNDS // 10, seed=0).n_rounds == MAX_ROUNDS
    for n, delta in ((MAX_ROUNDS // 10, 0.26), (10**10, 0.25), (1, 1e300), (10**400, 0.25), (1, 1e308)):
        with pytest.raises(ValueError, match="needs more than 100000000 rounds"):
            ProtocolConfig(n=n, seed=0, delta=delta)


def test_round_count_rounds_up():
    assert ProtocolConfig(n=100, seed=0, delta=0.25).n_rounds == 1000
    assert ProtocolConfig(n=1, seed=0, delta=0.001).n_rounds == 9


# ---------------------------------------------------------------- protocol


def reference_split(tr, cfg):
    """The test-bit error rate and both raw keys of ``tr``, rebuilt from its
    cells alone: the SIFT-Z rounds are the positions of cells 0-3, the test
    rounds n of them chosen by the generator advanced past the last round,
    and the keys the first n SIFT-Z rounds not chosen."""
    sz_rounds = np.flatnonzero(tr.cells < 4)
    if sz_rounds.size < 2 * cfg.n:
        return math.nan, None, None
    picked = np.zeros(sz_rounds.size, dtype=bool)
    rng = np.random.Generator(np.random.Philox(cfg.seed).advance(cfg.n_rounds))
    picked[rng.choice(sz_rounds.size, size=cfg.n, replace=False)] = True
    test, key = tr.cells[sz_rounds[picked]], tr.cells[sz_rounds[~picked][:cfg.n]]
    return np.count_nonzero(test & 1 != test >> 1) / cfg.n, key & 1, key >> 1


def assert_split_matches_the_reference(tr, cfg):
    error, alice, bob = reference_split(tr, cfg)
    assert tr.test_bit_error_rate == error or math.isnan(tr.test_bit_error_rate) and math.isnan(error)
    if tr.abort_reason is None:
        assert np.array_equal(tr.raw_key_alice, alice) and np.array_equal(tr.raw_key_bob, bob)
    else:
        assert tr.raw_key_alice is None and tr.raw_key_bob is None


def test_noiseless_run_gives_identical_keys():
    cfg = ProtocolConfig(n=1000, seed=3, p_t=0.05)
    tr = run_protocol(cfg, IDENTITY)
    assert tr.abort_reason is None
    assert tr.estimates()[0][P_E_MINUS] == 0.0  # the CTRL-X error rate
    assert tr.test_bit_error_rate == 0.0
    assert tr.raw_key_alice.size == 1000
    assert np.array_equal(tr.raw_key_alice, tr.raw_key_bob)


def test_runs_are_deterministic():
    cfg = ProtocolConfig(n=500, seed=99)
    atk = depolarizing_attack(0.1, 0.15)
    a = run_protocol(cfg, atk)
    b = run_protocol(cfg, atk)
    assert np.array_equal(a.cells, b.cells)
    assert a.test_bit_error_rate == b.test_bit_error_rate
    assert np.array_equal(a.raw_key_alice, b.raw_key_alice)
    assert_split_matches_the_reference(a, cfg)
    for x, y in zip(a.estimates(), b.estimates()):
        assert np.array_equal(x, y)


def test_round_classes_partition_all_rounds():
    cfg = ProtocolConfig(n=200, seed=7)
    tr = run_protocol(cfg, depolarizing_attack(0.0, 0.2))
    sift_x = tr.sift_x_count
    total = tr.sift_z_count + sift_x + tr.ctrl_z_count + tr.ctrl_x_count
    assert total == tr.n_rounds == cfg.n_rounds


def test_estimates_track_analytic_statistics():
    atk = depolarizing_attack(0.0, 0.1)
    tr = run_protocol(ProtocolConfig(n=100_000, seed=12), atk)
    want = compute_statistics(atk)
    value, se = (dict(zip(STAT_FIELDS, x)) for x in tr.estimates())
    err_rate = value["p01"] + value["p10"]
    err_se = math.hypot(se["p01"], se["p10"])
    assert abs(err_rate - 0.05) <= 4 * err_se
    for name in ("p00", "p11", "p_e_minus", "p0_plus", "p1_plus"):
        assert abs(value[name] - getattr(want, name)) <= 4 * se[name]


def test_noisy_channel_aborts():
    tr = run_protocol(ProtocolConfig(n=1000, seed=5, p_t=0.1), depolarizing_attack(0.0, 0.9))
    assert tr.abort_reason in (ABORT_CTRL_X_NOISE, ABORT_TEST_BIT_NOISE)
    assert tr.raw_key_alice is None and tr.raw_key_bob is None


def test_too_few_sift_z_aborts_first():
    # with p_sift this small the sifted count cannot reach 2n
    cfg = ProtocolConfig(n=100, seed=8, p_sift=0.01)
    tr = run_protocol(cfg, depolarizing_attack(0.0, 0.9))
    assert tr.abort_reason == ABORT_TOO_FEW_SIFT_Z
    assert tr.test_bit_error_rate != tr.test_bit_error_rate  # NaN: step never ran
    assert_split_matches_the_reference(tr, cfg)


def test_no_abort_for_noiseless_channel_at_any_threshold():
    for p_t in (0.01, 0.05, 0.2, 0.49):
        for n in (100, 500):
            tr = run_protocol(ProtocolConfig(n=n, seed=21, p_t=p_t), IDENTITY)
            assert tr.abort_reason is None


def test_key_disagreement_matches_error_probability():
    atk = depolarizing_attack(0.0, 0.2)
    tr = run_protocol(ProtocolConfig(n=20_000, seed=13, p_t=0.2), atk)
    assert tr.abort_reason is None
    disagree = float(np.count_nonzero(tr.raw_key_alice != tr.raw_key_bob)) / tr.raw_key_alice.size
    p_err = 0.1  # p01 + p10 at q = 0.2, b = 0
    se = math.sqrt(p_err * (1 - p_err) / tr.raw_key_alice.size)
    assert abs(disagree - p_err) <= 4 * se


def test_bit_flip_attack_flips_every_key_bit():
    atk = RestrictedAttack(0.0, e00=[0.0], e01=[1.0], e10=[1.0], e11=[0.0])  # bit flip
    cfg = ProtocolConfig(n=50, seed=2, p_t=0.49)
    tr = run_protocol(cfg, atk)
    # every sifted Z round disagrees, so the test-bit check must fire
    assert tr.abort_reason == ABORT_TEST_BIT_NOISE
    assert tr.test_bit_error_rate == 1.0
    assert_split_matches_the_reference(tr, cfg)


def round_law(u, b, p_sift=0.5, p_z=0.5):
    """The probability of each branch and of the first outcome on it (0 for Z,
    + for X), from the dense unitary ``u`` on qubit (x) ancilla.

    Bob receives sqrt(1/2 + b)|0> + sqrt(1/2 - b)|1>.  On SIFT he measures it
    in Z and sends his result |k> back; on CTRL he reflects it.  The ancilla
    starts in its first basis state and ``u`` acts on the returning qubit;
    Alice measures the qubit in Z or X.  Branches in the simulator's order:
    SIFT-Z bit 0, SIFT-Z bit 1, SIFT-X bit 0, SIFT-X bit 1, CTRL-Z, CTRL-X.
    """
    d = u.shape[0] // 2
    received = np.array([math.sqrt(0.5 + b), math.sqrt(0.5 - b)])
    first = {"Z": np.kron([[1.0, 0.0], [0.0, 0.0]], np.eye(d)), "X": np.kron(np.full((2, 2), 0.5), np.eye(d))}
    ancilla = np.eye(d)[0]
    returned = [u @ np.kron(np.eye(2)[k], ancilla) for k in (0, 1)] + [u @ np.kron(received, ancilla)]
    branches = [(p_sift * p_z * received[k] ** 2, "Z", returned[k]) for k in (0, 1)]
    branches += [(p_sift * (1 - p_z) * received[k] ** 2, "X", returned[k]) for k in (0, 1)]
    branches += [((1 - p_sift) * p_z, "Z", returned[2]), ((1 - p_sift) * (1 - p_z), "X", returned[2])]
    return [(p_branch, np.vdot(psi, first[basis] @ psi).real) for p_branch, basis, psi in branches]


@pytest.mark.parametrize("d, b, seed", [(2, 0.2, 51), (2, -0.2, 52), (4, 0.2, 53), (4, -0.2, 54)])
def test_rounds_follow_the_round_law_of_a_dense_unitary(d, b, seed):
    u = oracle.haar_unitary(2 * d, np.random.default_rng(seed))
    tr = run_protocol(ProtocolConfig(n=10_000, seed=seed), RestrictedAttack(b, **oracle.fragments(u)))
    assert tr.n_rounds == 100_000
    for branch, (p_branch, p_first) in enumerate(round_law(u, b)):
        m, second = int(tr.table[2 * branch:2 * branch + 2].sum()), int(tr.table[2 * branch + 1])
        assert abs(m - tr.n_rounds * p_branch) <= oracle.count_tolerance(tr.n_rounds, p_branch), branch
        assert abs(second - m * (1.0 - p_first)) <= oracle.count_tolerance(m, 1.0 - p_first), branch


# the random p are off the grid of 2**-53 that Generator.random's doubles lie on
@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0,
                               *(np.random.default_rng(71).random(4) / 3).tolist()])
def test_integer_thresholds_decide_as_the_doubles_do(p):
    # Generator.random's double is k * 2**-53 for the top 53 bits k of a word
    t = int(_thresholds(p))
    assert t == math.ceil(p * 2**53) and _thresholds([p, p]).tolist() == [t, t]
    for k in range(max(t - 2, 0), t + 3):
        assert (np.uint64(k) >= _thresholds(p)) == (k * 2.0**-53 >= p), k
        assert (np.uint64(k) < _thresholds(p)) == (k * 2.0**-53 < p), k


@pytest.mark.parametrize("start", [0, 1, 123_457])
def test_raw_words_give_the_doubles_of_generator_random(start):
    words = np.random.Philox(29).advance(start).random_raw(4 * 1000)
    doubles = np.random.Generator(np.random.Philox(29).advance(start)).random(4 * 1000)
    assert np.array_equal((words >> 11) * 2.0**-53, doubles)


def classify(u, cuts, first_cell, p_first):
    """The cell codes of rounds whose four uniforms are the rows of ``u``,
    from the doubles compared with the probabilities themselves."""
    p_sift, p_z, bit_cut = cuts
    packed = 4 * (u[:, 0] < p_sift) + 2 * (u[:, 1] >= p_z) + (u[:, 2] >= bit_cut)
    return first_cell[packed] + (u[:, 3] >= p_first[packed])


def reference_fill(seed, start, stop, cuts, first_cell, p_first, cells, counts, sift_z):
    """``_fill`` as it drew before integer thresholds, with Generator.random's doubles."""
    u = np.random.Generator(np.random.Philox(seed).advance(start)).random((stop - start, 4))
    block = classify(u, cuts, first_cell, p_first)
    cells[start:stop] = block
    counts += np.bincount(block, minlength=12)
    sift_z.append(block[block < 4])


# b = +-1/2 puts the bit cut at 1 or 0, and the identity attack puts
# first-outcome probabilities at 0 and 1
@pytest.mark.parametrize("b, q", [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.5, 0.1), (-0.5, 0.1)])
def test_integer_draws_match_a_reference_that_draws_doubles(monkeypatch, b, q):
    monkeypatch.setattr(sqkd.protocol, "SPAN", 1)
    monkeypatch.setattr(sqkd.protocol, "CORES", 2)
    cfg, atk = ProtocolConfig(n=2000, seed=43, p_t=0.3), depolarizing_attack(b, q)
    tr = run_protocol(cfg, atk)
    monkeypatch.setattr(sqkd.protocol, "_fill", reference_fill)
    ref = run_protocol(cfg, atk)
    assert np.array_equal(tr.cells, ref.cells) and np.array_equal(tr.table, ref.table)
    assert tr.abort_reason == ref.abort_reason and tr.test_bit_error_rate == ref.test_bit_error_rate
    assert_split_matches_the_reference(tr, cfg)


@pytest.mark.parametrize("cuts", [(1 / 3, 0.7, 0.45), (2.0**-53, 1 - 2.0**-53, 0.0), (0.5, 0.5, 1.0)])
def test_words_at_the_thresholds_decide_as_the_doubles(monkeypatch, cuts):
    # the top 53 bits of each word sit at a threshold or next to it, and the
    # eleven low bits, which the draw drops, are all set
    p_first = np.array([1.0, 0.0, 0.1, 2 / 3, 0.5, 1 - 2.0**-53, 0.3, 5e-324])
    near = [sorted({min(max(int(t) + d, 0), 2**53 - 1) for t in _thresholds(ps) for d in (-1, 0, 1)})
            for ps in ([cuts[0]], [cuts[1]], [cuts[2]], p_first)]
    k = np.array(np.meshgrid(*near, indexing="ij"), dtype=np.uint64).reshape(4, -1).T
    words = (k << np.uint64(11) | np.uint64(0x7FF)).ravel()

    class Words:
        def advance(self, start):
            self.next = 4 * start
            return self

        def random_raw(self, size):
            self.next += size
            return words[self.next - size:self.next].copy()

    monkeypatch.setattr(np.random, "Philox", lambda seed: Words())
    monkeypatch.setattr(sqkd.protocol, "CHUNK", 100)
    first_cell = 2 * sqkd.protocol._BRANCH_OF
    cells, counts, sift_z = np.empty(len(k), dtype=np.int8), np.zeros(12, dtype=np.int64), []
    sqkd.protocol._fill(0, 0, len(k), cuts, first_cell, p_first, cells, counts, sift_z)
    want = classify(k * 2.0**-53, cuts, first_cell, p_first)
    assert np.array_equal(cells, want) and np.array_equal(counts, np.bincount(want, minlength=12))
    assert np.array_equal(np.concatenate(sift_z), want[want < 4])


# ---------------------------------------------------------------- estimates


def test_empty_ctrl_class_is_flagged_not_fabricated():
    cfg = ProtocolConfig(n=2, seed=4, p_sift=1.0 - 1e-12)
    tr = run_protocol(cfg, IDENTITY)
    assert tr.ctrl_x_count == 0
    value, se = tr.estimates()
    assert math.isnan(value[P_E_MINUS]) and math.isnan(se[P_E_MINUS])
    with pytest.raises(ValueError, match="p_e_minus"):
        Statistics(*value)


def test_estimate_statistics_matches_transcript_field():
    tr = run_protocol(ProtocolConfig(n=300, seed=6), depolarizing_attack(0.2, 0.1))
    obs = Statistics(*tr.estimates()[0])
    assert obs.p00 + obs.p01 + obs.p10 + obs.p11 == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- export


def read_export(path):
    """The rows of an exported transcript, split into fields, and its summary."""
    lines = path.read_text().splitlines()
    assert lines[0] == TRANSCRIPT_HEADER
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    summary = dict(line[2:].split("=", 1) for line in lines[1:] if line.startswith("#"))
    return rows, summary


def test_round_records_are_consistent(tmp_path):
    tr = run_protocol(ProtocolConfig(n=50, seed=14), depolarizing_attack(0.1, 0.3))
    tr.to_csv(tmp_path / "t.csv")
    rows, _ = read_export(tmp_path / "t.csv")
    assert [int(row[0]) for row in rows] == list(range(tr.n_rounds))
    for _, choice, basis, bit, outcome in rows:
        if choice == SIFT:
            assert bit in ("0", "1")
        else:
            assert choice == CTRL
            assert bit == ""
        if basis == "Z":
            assert outcome in ("0", "1")
        else:
            assert basis == "X"
            assert outcome in ("+", "-")


# (config, q, b) of four depolarizing runs: one aborting, one with
# nondefault p_sift and p_z, one longer than three chunks of 4096 rounds, and
# one of 120,000 rounds, longer than three default chunks, whose index width
# changes from 5 to 6 digits
EXPORT_RUNS = (
    (dict(n=200, seed=31), 0.6, 0.0),
    (dict(n=150, seed=32, delta=0.6, p_sift=0.3, p_z=0.7, p_t=0.3), 0.05, 0.15),
    (dict(n=1500, seed=33), 0.08, 0.1),
    (dict(n=12000, seed=34), 0.04, 0.05),
)
# sha256 of their exports: the first three written by the per-round-array
# simulator that the cell-code transcript replaced, the fourth by the NUL-mask
# writer that the index-block writer replaced
EXPORT_SHA256 = (
    "7fcc7e9ee01239e8610ecf8aedff28551541e2ce25cf79526c0222e545629d1b",
    "af77fb4dfcc5664fb6e01782e46717712cadb6aa8125cd69e0c4def6fc01b49a",
    "7f70e68140f600b0a19b266b78f87193250d4811bd54b7ba4980bc30bdd3f270",
    "cd20eb71fa8b8c5b6e8f0e44e33989bed4aa0573168966c45cfcc0565f3e4a0d",
)


DEFAULT_CHUNK = sqkd.protocol.CHUNK


def record_spans(monkeypatch):
    """Make every run record the (start, stop, thread) of each span it fills."""
    fill, spans = sqkd.protocol._fill, []

    def recording_fill(seed, start, stop, *rest):
        spans.append((start, stop, threading.current_thread()))
        fill(seed, start, stop, *rest)

    monkeypatch.setattr(sqkd.protocol, "_fill", recording_fill)
    return spans


@pytest.mark.parametrize("chunk", [1, 7, DEFAULT_CHUNK])
def test_exports_are_byte_identical_at_any_chunk_size(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(sqkd.protocol, "CHUNK", chunk)
    # with SPAN 1 the core count is the number of spans; chunk 1 runs one
    # span only, and without the 120,000-round run, which alone would take
    # seconds there
    runs = EXPORT_RUNS[:3] if chunk == 1 else EXPORT_RUNS
    monkeypatch.setattr(sqkd.protocol, "SPAN", 1)
    spans = record_spans(monkeypatch)
    single = None
    for w in (1,) if chunk == 1 else (1, 2, 3, 5):
        monkeypatch.setattr(sqkd.protocol, "CORES", w)
        transcripts = []
        for cfg, q, b in runs:
            spans.clear()
            tr = run_protocol(ProtocolConfig(**cfg), depolarizing_attack(b, q))
            starts, stops, threads = zip(*sorted(spans, key=lambda span: span[0]))
            assert starts[0] == 0 and starts[1:] == stops[:-1] and stops[-1] == tr.n_rounds
            assert len(starts) == w and len(set(threads)) == w
            if w > 1:
                assert any(start % chunk for start in starts), "a span end off the chunk grid"
            transcripts.append(tr)
        for tr, digest in zip(transcripts, EXPORT_SHA256):
            tr.to_csv(tmp_path / "t.csv")
            assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == digest
        assert [tr.abort_reason for tr in transcripts] == [ABORT_CTRL_X_NOISE, None, None, None][:len(runs)]
        single = single or transcripts
        for (cfg, _, _), tr, one in zip(runs, transcripts, single):
            assert_split_matches_the_reference(tr, ProtocolConfig(**cfg))
            assert np.array_equal(tr.raw_key_alice, one.raw_key_alice)
            assert np.array_equal(tr.raw_key_bob, one.raw_key_bob)
            assert tr.test_bit_error_rate == one.test_bit_error_rate
    assert transcripts[2].n_rounds > 3 * 4096
    assert chunk == 1 or transcripts[3].n_rounds > 3 * DEFAULT_CHUNK


@pytest.mark.parametrize("cores, n, spans", [(1, 5000, 1), (2, 2000, 1), (2, 5000, 2), (16, 20000, 8)])
def test_only_runs_of_two_spans_on_two_cores_start_threads(monkeypatch, cores, n, spans):
    # n = 5000 makes 50,000 rounds, 2000 makes 20,000, fewer than two spans
    monkeypatch.setattr(sqkd.protocol, "CORES", cores)
    monkeypatch.setattr(sqkd.protocol, "SPAN", 2**14)
    recorded = record_spans(monkeypatch)
    start, started = threading.Thread.start, []

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    tr = run_protocol(ProtocolConfig(n=n, seed=41), IDENTITY)
    assert len(recorded) == spans and len(started) == spans - 1
    assert {thread for *_, thread in recorded} - {threading.current_thread()} == set(started)
    assert tr.abort_reason is None


def test_eight_spans_on_two_cores_at_a_short_switch_interval_match_one_span(monkeypatch):
    # more threads than cores, switched every microsecond: a lost update to
    # the shared cells or count table would show up as a changed cell or count
    cfg, atk = ProtocolConfig(n=1500, seed=33), depolarizing_attack(0.1, 0.08)
    one = run_protocol(cfg, atk)
    monkeypatch.setattr(sqkd.protocol, "CHUNK", 7)
    monkeypatch.setattr(sqkd.protocol, "SPAN", 1)
    monkeypatch.setattr(sqkd.protocol, "CORES", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = run_protocol(cfg, atk)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(many.cells, one.cells) and np.array_equal(many.table, one.table)


@pytest.mark.parametrize("failing", [0, 2])
def test_an_error_in_a_span_is_raised_once_every_span_has_ended(monkeypatch, failing):
    monkeypatch.setattr(sqkd.protocol, "CORES", 3)
    monkeypatch.setattr(sqkd.protocol, "SPAN", 1)
    fill, ended = sqkd.protocol._fill, []

    def failing_fill(seed, start, stop, *rest):
        span = math.ceil(3 * start / 1000)  # span k starts at floor(1000 k / 3)
        if span == failing:
            raise ValueError(f"span {span} failed")
        time.sleep(0.05)  # still running when the failing span raises
        fill(seed, start, stop, *rest)
        ended.append(span)

    monkeypatch.setattr(sqkd.protocol, "_fill", failing_fill)
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"span {failing} failed"):
        run_protocol(ProtocolConfig(n=100, seed=42), IDENTITY)  # 1000 rounds
    assert sorted(ended) == [span for span in range(3) if span != failing]
    assert threading.active_count() == before


def reference_rows(start, cells):
    """The per-row writer that the numpy block writer replaced."""
    return "".join(f"{i}{_ROW_SUFFIX[c]}" for i, c in enumerate(cells.tolist(), start)).encode()


# starts just below and at each change of index width, just below a change of
# the digits above the last four, and the last rounds a run may have
@pytest.mark.parametrize("start", list(dict.fromkeys(
    [0, *(10**k - 1 for k in range(1, 8)), 10**4, *(k * 10**4 - 1 for k in (1, 2, 7, 9999)), MAX_ROUNDS - 5])))
def test_block_writer_matches_the_per_row_writer(start):
    size = min(300, MAX_ROUNDS - start)
    cells = np.random.default_rng(start).integers(0, 12, size).astype(np.int8)
    assert _rows(start, cells) == reference_rows(start, cells)
    for code in np.arange(12, dtype=np.int8):
        assert _rows(start, np.full(1, code)) == reference_rows(start, np.full(1, code))
    assert _rows(start, cells[:0]) == b""


def test_block_writer_matches_the_per_row_writer_across_several_blocks():
    # 29,990 ... 54,989 crosses three multiples of 10**4
    cells = np.random.default_rng(29990).integers(0, 12, 25000).astype(np.int8)
    assert _rows(29990, cells) == reference_rows(29990, cells)


@pytest.mark.parametrize("cfg, q, b", EXPORT_RUNS)
def test_summary_matches_an_independent_tally_of_the_rows(tmp_path, cfg, q, b):
    tr = run_protocol(ProtocolConfig(**cfg), depolarizing_attack(b, q))
    tr.to_csv(tmp_path / "t.csv")
    rows, summary = read_export(tmp_path / "t.csv")
    tally = Counter(tuple(row[1:]) for row in rows)

    def count(choice, basis, bit=None, outcome=None):
        return sum(k for (row_choice, row_basis, row_bit, row_outcome), k in tally.items()
                   if (row_choice, row_basis) == (choice, basis)
                   and bit in (None, row_bit) and outcome in (None, row_outcome))

    sz, sx, cz, cx = count(SIFT, "Z"), count(SIFT, "X"), count(CTRL, "Z"), count(CTRL, "X")
    assert (tr.sift_z_count, tr.sift_x_count, tr.ctrl_z_count, tr.ctrl_x_count) == (sz, sx, cz, cx)
    assert [summary[k] for k in ("sift_z_count", "sift_x_count", "ctrl_z_count", "ctrl_x_count")] == [
        str(sz), str(sx), str(cz), str(cx)]
    value, se = tr.estimates()
    assert value[P_E_MINUS] == count(CTRL, "X", outcome="-") / cx
    assert summary["ctrl_x_error_rate"] == fmt(count(CTRL, "X", outcome="-") / cx)
    # each estimate's count and the size m of its conditioning class
    want = {
        "bias": (count(SIFT, "Z", "0") + count(SIFT, "X", "0"), sz + sx),
        "p00": (count(SIFT, "Z", "0", "0"), sz),
        "p01": (count(SIFT, "Z", "1", "0"), sz),
        "p10": (count(SIFT, "Z", "0", "1"), sz),
        "p11": (count(SIFT, "Z", "1", "1"), sz),
        "p_e_minus": (count(CTRL, "X", outcome="-"), cx),
        "p0_plus": (count(SIFT, "X", "0", "+"), sx),
        "p1_plus": (count(SIFT, "X", "1", "+"), sx),
    }
    assert list(want) == list(STAT_FIELDS)
    for i, (name, (k, m)) in enumerate(want.items()):
        p = k / m
        want_value = p - 0.5 if name == "bias" else p
        want_se = math.sqrt(p * (1.0 - p) / m)
        assert value[i] == want_value and se[i] == want_se, name
        assert summary[name] == fmt(want_value), name
        assert summary[f"{name}_se"] == fmt(want_se), name


def test_ten_million_rounds_keep_memory_bounded():
    # getrusage's peak RSS survives fork and exec, so a child of this large
    # test process would report this process's peak; a small interpreter in
    # between starts the run and reads the peak of its only child
    run = (
        "import sys; from sqkd import cli; sys.exit(cli.main(['simulate', '--n', '1000000', '--seed', '1',"
        " '--q', '0.05', '--b', '0']))"
    )
    parent = (
        "import resource, subprocess, sys\n"
        f"out = subprocess.run([sys.executable, '-c', {run!r}], check=True, capture_output=True, text=True).stdout\n"
        "print(out.splitlines()[0])\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(sqkd.protocol.__file__))
    result = subprocess.run([sys.executable, "-c", parent], capture_output=True, text=True, timeout=120,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    rounds, max_rss_kb = result.stdout.split()
    assert rounds == "rounds=10000000"
    assert int(max_rss_kb) < 200 * 1024


def test_transcript_csv_export(tmp_path):
    cfg = ProtocolConfig(n=20, seed=1)
    tr = run_protocol(cfg, IDENTITY)
    path = tmp_path / "transcript.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRANSCRIPT_HEADER
    rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == cfg.n_rounds
    assert rows[0].startswith("0,")
    summary = [l for l in lines if l.startswith("#")]
    assert any("abort=none" in l for l in summary)
    assert any(l.startswith("# p00=") for l in summary)
    # byte-identical on a repeated run
    path2 = tmp_path / "transcript2.csv"
    run_protocol(cfg, IDENTITY).to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()
