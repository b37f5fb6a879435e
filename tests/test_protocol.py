import hashlib
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import sqkd.protocol
from sqkd.attacks import (
    attack_from_kraus,
    attack_from_unitary,
    compute_statistics,
    depolarizing_channel,
    identity_attack,
)
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
    run_protocol,
)
from sqkd.fileio import fmt
from sqkd.qmath import PAULI_X


def depolarizing_attack(q, b):
    return attack_from_kraus(depolarizing_channel(q), b)


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


def test_noiseless_run_gives_identical_keys():
    cfg = ProtocolConfig(n=1000, seed=3, p_t=0.05)
    tr = run_protocol(cfg, identity_attack(0.0))
    assert tr.abort_reason is None
    assert tr.ctrl_x_error_rate == 0.0
    assert tr.test_bit_error_rate == 0.0
    assert tr.raw_key_alice.size == 1000
    assert np.array_equal(tr.raw_key_alice, tr.raw_key_bob)


def test_runs_are_deterministic():
    cfg = ProtocolConfig(n=500, seed=99)
    atk = depolarizing_attack(0.15, 0.1)
    a = run_protocol(cfg, atk)
    b = run_protocol(cfg, atk)
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.test_rounds, b.test_rounds)
    assert np.array_equal(a.raw_key_alice, b.raw_key_alice)
    assert a.estimated == b.estimated


def test_round_classes_partition_all_rounds():
    cfg = ProtocolConfig(n=200, seed=7)
    tr = run_protocol(cfg, depolarizing_attack(0.2, 0.0))
    sift_x = tr.sift_x_count
    total = tr.sift_z_count + sift_x + tr.ctrl_z_count + tr.ctrl_x_count
    assert total == tr.n_rounds == cfg.n_rounds


def test_estimates_track_analytic_statistics():
    atk = depolarizing_attack(0.1, 0.0)
    tr = run_protocol(ProtocolConfig(n=100_000, seed=12), atk)
    want = compute_statistics(atk)
    est = tr.estimated
    err_rate = est.p01.value + est.p10.value
    err_se = math.hypot(est.p01.se, est.p10.se)
    assert abs(err_rate - 0.05) <= 4 * err_se
    for name in ("p00", "p11", "p_e_minus", "p0_plus", "p1_plus"):
        e = getattr(est, name)
        assert abs(e.value - getattr(want, name)) <= 4 * e.se


def test_noisy_channel_aborts():
    tr = run_protocol(ProtocolConfig(n=1000, seed=5, p_t=0.1), depolarizing_attack(0.9, 0.0))
    assert tr.abort_reason in (ABORT_CTRL_X_NOISE, ABORT_TEST_BIT_NOISE)
    assert tr.raw_key_alice is None and tr.raw_key_bob is None


def test_too_few_sift_z_aborts_first():
    # with p_sift this small the sifted count cannot reach 2n
    tr = run_protocol(ProtocolConfig(n=100, seed=8, p_sift=0.01), depolarizing_attack(0.9, 0.0))
    assert tr.abort_reason == ABORT_TOO_FEW_SIFT_Z
    assert tr.test_bit_error_rate != tr.test_bit_error_rate  # NaN: step never ran


def test_no_abort_for_noiseless_channel_at_any_threshold():
    for p_t in (0.01, 0.05, 0.2, 0.49):
        for n in (100, 500):
            tr = run_protocol(ProtocolConfig(n=n, seed=21, p_t=p_t), identity_attack(0.0))
            assert tr.abort_reason is None


def test_key_disagreement_matches_error_probability():
    atk = depolarizing_attack(0.2, 0.0)
    tr = run_protocol(ProtocolConfig(n=20_000, seed=13, p_t=0.2), atk)
    assert tr.abort_reason is None
    disagree = float(np.count_nonzero(tr.raw_key_alice != tr.raw_key_bob)) / tr.raw_key_alice.size
    p_err = 0.1  # p01 + p10 at q = 0.2, b = 0
    se = math.sqrt(p_err * (1 - p_err) / tr.raw_key_alice.size)
    assert abs(disagree - p_err) <= 4 * se


def test_bit_flip_attack_flips_every_key_bit():
    atk = attack_from_unitary(PAULI_X, b=0.0)
    tr = run_protocol(ProtocolConfig(n=50, seed=2, p_t=0.49), atk)
    # every sifted Z round disagrees, so the test-bit check must fire
    assert tr.abort_reason == ABORT_TEST_BIT_NOISE
    assert tr.test_bit_error_rate == 1.0


# ---------------------------------------------------------------- estimates


def test_empty_ctrl_class_is_flagged_not_fabricated():
    cfg = ProtocolConfig(n=2, seed=4, p_sift=1.0 - 1e-12)
    tr = run_protocol(cfg, identity_attack(0.0))
    assert tr.ctrl_x_count == 0
    est = tr.estimated
    assert est.p_e_minus is None
    assert not est.complete()
    with pytest.raises(ValueError, match="p_e_minus"):
        est.to_observed()


def test_estimate_statistics_matches_transcript_field():
    tr = run_protocol(ProtocolConfig(n=300, seed=6), depolarizing_attack(0.1, 0.2))
    est = tr.estimated
    assert est.p00.n_samples == tr.sift_z_count
    assert est.p0_plus.n_samples == tr.sift_x_count
    assert est.p_e_minus.n_samples == tr.ctrl_x_count
    assert est.bias.n_samples == tr.sift_z_count + tr.sift_x_count
    obs = est.to_observed()
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
    tr = run_protocol(ProtocolConfig(n=50, seed=14), depolarizing_attack(0.3, 0.1))
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


# (config, q, b) of three depolarizing runs: one aborting, one with
# nondefault p_sift and p_z, and one longer than three default chunks
EXPORT_RUNS = (
    (dict(n=200, seed=31), 0.6, 0.0),
    (dict(n=150, seed=32, delta=0.6, p_sift=0.3, p_z=0.7, p_t=0.3), 0.05, 0.15),
    (dict(n=1500, seed=33), 0.08, 0.1),
)
# sha256 of their exports, written by the per-round-array simulator that the
# cell-code transcript replaced
EXPORT_SHA256 = (
    "7fcc7e9ee01239e8610ecf8aedff28551541e2ce25cf79526c0222e545629d1b",
    "af77fb4dfcc5664fb6e01782e46717712cadb6aa8125cd69e0c4def6fc01b49a",
    "7f70e68140f600b0a19b266b78f87193250d4811bd54b7ba4980bc30bdd3f270",
)


DEFAULT_CHUNK = sqkd.protocol.CHUNK


@pytest.mark.parametrize("chunk", [1, 7, DEFAULT_CHUNK])
def test_exports_are_byte_identical_at_any_chunk_size(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(sqkd.protocol, "CHUNK", chunk)
    transcripts = [run_protocol(ProtocolConfig(**cfg), depolarizing_attack(q, b)) for cfg, q, b in EXPORT_RUNS]
    for tr, digest in zip(transcripts, EXPORT_SHA256):
        tr.to_csv(tmp_path / "t.csv")
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == digest
    assert [tr.abort_reason for tr in transcripts] == [ABORT_CTRL_X_NOISE, None, None]
    assert transcripts[2].n_rounds > 3 * DEFAULT_CHUNK


def reference_rows(start, cells):
    """The per-row writer that the numpy block writer replaced."""
    return "".join(f"{i}{_ROW_SUFFIX[c]}" for i, c in enumerate(cells.tolist(), start)).encode()


# starts just below and at each change of index width, and the last rounds a run may have
@pytest.mark.parametrize("start", [0, *(10**k - 1 for k in range(1, 8)), 10**4, MAX_ROUNDS - 5])
def test_block_writer_matches_the_per_row_writer(start):
    size = min(300, MAX_ROUNDS - start)
    cells = np.random.default_rng(start).integers(0, 12, size).astype(np.int8)
    assert _rows(start, cells) == reference_rows(start, cells)
    for code in np.arange(12, dtype=np.int8):
        assert _rows(start, np.full(1, code)) == reference_rows(start, np.full(1, code))
    assert _rows(start, cells[:0]) == b""


@pytest.mark.parametrize("cfg, q, b", EXPORT_RUNS)
def test_summary_matches_an_independent_tally_of_the_rows(tmp_path, cfg, q, b):
    tr = run_protocol(ProtocolConfig(**cfg), depolarizing_attack(q, b))
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
    assert tr.ctrl_x_error_rate == count(CTRL, "X", outcome="-") / cx
    assert summary["ctrl_x_error_rate"] == fmt(count(CTRL, "X", outcome="-") / cx)
    bob0 = count(SIFT, "Z", "0") + count(SIFT, "X", "0")
    want = {
        "bias": bob0 / (sz + sx) - 0.5,
        "p00": count(SIFT, "Z", "0", "0") / sz,
        "p01": count(SIFT, "Z", "1", "0") / sz,
        "p10": count(SIFT, "Z", "0", "1") / sz,
        "p11": count(SIFT, "Z", "1", "1") / sz,
        "p_e_minus": count(CTRL, "X", outcome="-") / cx,
        "p0_plus": count(SIFT, "X", "0", "+") / sx,
        "p1_plus": count(SIFT, "X", "1", "+") / sx,
    }
    for name, value in want.items():
        assert getattr(tr.estimated, name).value == value, name
        assert summary[name] == fmt(value), name


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
    tr = run_protocol(cfg, identity_attack(0.0))
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
    run_protocol(cfg, identity_attack(0.0)).to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()
