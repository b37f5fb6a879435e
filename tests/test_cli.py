import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_attack, save_attack, save_statistics
from sqkd import cli
from sqkd.attacks import STAT_FIELDS, Statistics, depolarizing_attack
from sqkd.keyrate import depolarizing_stats, format_report, key_rate_bound, load_statistics


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse-level flag errors
        code = exc.code if isinstance(exc.code, int) else 0
    out, err = capsys.readouterr()
    return code, out, err


def kv(out: str) -> dict:
    pairs = [line.partition("=") for line in out.splitlines() if "=" in line]
    return {k: v for k, _, v in pairs}


# ------------------------------------------------------------------- bound


def test_bound_noiseless(capsys):
    code, out, _ = run_cli(capsys, "bound", "--b", "0", "--q", "0")
    assert code == 0
    values = kv(out)
    assert float(values["bound"]) == 1.0
    assert values["abort"] == "false"


def test_bound_at_threshold(capsys):
    code, out, _ = run_cli(capsys, "bound", "--b", "0", "--q", "0.193")
    assert code == 0
    assert float(kv(out)["bound"]) == pytest.approx(0.002794788196, abs=1e-9)


def test_bound_abort_exit_code(capsys):
    code, out, _ = run_cli(capsys, "bound", "--b", "0", "--q", "0.7")
    assert code == 2
    values = kv(out)
    assert values["abort"] == "true"
    assert float(values["B"]) == pytest.approx(-0.025, abs=1e-9)


def test_bound_from_stats_file(capsys, tmp_path):
    path = tmp_path / "stats.txt"
    save_statistics(depolarizing_stats(0.1, 0.05), path)
    code, out, _ = run_cli(capsys, "bound", "--stats", str(path))
    assert code == 0
    assert float(kv(out)["bound"]) == pytest.approx(
        cli.keyrate.depolarizing_bound(0.1, 0.05), abs=1e-9)


def test_bound_from_attack_file(capsys, tmp_path):
    path = tmp_path / "attack.txt"
    save_attack(depolarizing_attack(0.0, 0.0), path)
    code, out, _ = run_cli(capsys, "bound", "--attack", str(path))
    assert code == 0
    assert float(kv(out)["bound"]) == 1.0


def test_bound_input_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bound")
    assert code == 1 and "exactly one" in err

    code, _, err = run_cli(capsys, "bound", "--b", "0")
    assert code == 1

    path = tmp_path / "broken.txt"
    path.write_text("b=0\nnot a kv line\n")
    code, _, err = run_cli(capsys, "bound", "--stats", str(path))
    assert code == 1
    assert "broken.txt:2" in err

    code, _, err = run_cli(capsys, "bound", "--b", "0", "--q", "1.5")
    assert code == 1


# one-point paths of bound and simulate; {stats}, {k1_zero} and {attack} name
# the files below
BOUND_CALLS = (
    ("bound", "--b", "0.1", "--q", "0.05"),
    ("bound", "--b", "-0.35", "--q", "0.17"),
    ("bound", "--b", "0.1", "--q", "0"),  # clamped
    ("bound", "--b", "-0.2", "--q", "0.7"),  # aborts
    ("bound", "--stats", "{k1_zero}"),  # lambda=none
    ("bound", "--stats", "{stats}"),
    ("bound", "--attack", "{attack}"),
    ("simulate", "--n", "2000", "--seed", "3", "--q", "0.05", "--b", "0.1"),
    ("simulate", "--n", "2000", "--seed", "4", "--attack", "{attack}", "--pt", "0.49"),
    # estimates outside the invariants: bound=none and the message
    ("simulate", "--n", "5", "--seed", "25", "--q", "0.05", "--b", "0.1", "--pt", "0.49"),
    ("simulate", "--n", "2", "--seed", "0", "--q", "0.05", "--b", "0.1", "--pt", "0.49"),
)
BOUND_FILES = {
    "stats": "b=0.1\np00=0.585\np01=0.01\np10=0.015\np11=0.39\np_e_minus=0.0346\np0_plus=0.3\np1_plus=0.2\n",
    "k1_zero": "b=0\np00=0\np01=0.5\np10=0.5\np11=0\np_e_minus=0\np0_plus=0.25\np1_plus=0.25\n",
    "attack": "b=-0.15\nd=1\ne00=0.96,0\ne01=0.28,0\ne10=-0.28,0\ne11=0.96,0\n",
}
# sha256 of the exit code and stdout of every call above, as they were
# printed while one point of statistics was a class of its own
BOUND_SHA256 = "4b92860dd8f42bfa061bd93fea27edfdfb8ab12f1cdf04404ecf5611b79e04f8"


def test_bound_and_simulate_stdout_is_byte_identical(capsys, tmp_path):
    paths = {}
    for name, text in BOUND_FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    digest = hashlib.sha256()
    for argv in BOUND_CALLS:
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert err == ""
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == BOUND_SHA256


@pytest.mark.parametrize("command", ["bound --stats", "validate --attack"])
def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# made by hand\nb=0\xff\n")
    code, out, err = run_cli(capsys, *command.split(), str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"sqkd: error: {path}:2: not UTF-8: byte 0xff"]


# ------------------------------------------------------------------- sweep


def test_sweep_crosses_zero_inside_expected_window(capsys, tmp_path):
    out_path = tmp_path / "fig1.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0",
        "--start", "0", "--stop", "0.25", "--step", "0.001", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,f"
    assert len(lines) == 252
    rows = [(float(x), float(f)) for x, f in (l.split(",") for l in lines[1:])]
    signs = [f > 0 for _, f in rows]
    flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
    assert len(flips) == 1
    assert 0.192 < rows[flips[0]][0] <= 0.194


def test_sweep_over_bias_at_zero_noise_is_positive_everywhere(capsys, tmp_path):
    # with a noiseless reverse channel the bound is h(1/2+b) > 0 on the
    # whole bias range
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--var", "b", "--fixed", "0",
        "--start", "-0.45", "--stop", "0.45", "--step", "0.01", "--out", str(out_path))
    assert code == 0
    rows = [float(l.split(",")[1]) for l in out_path.read_text().splitlines()[1:]]
    assert len(rows) == 91
    assert all(f > 0 for f in rows)


def test_sweep_single_point(capsys, tmp_path):
    out_path = tmp_path / "one.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0",
        "--start", "0", "--stop", "0", "--step", "0.1", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "x,f\n0,1\n"


def test_sweep_is_byte_identical_across_runs(capsys, tmp_path):
    args = ("sweep", "--var", "q", "--fixed", "0.1",
            "--start", "0", "--stop", "0.3", "--step", "0.01")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_bound_matches_sweep_value_exactly(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    run_cli(capsys, "sweep", "--var", "q", "--fixed", "0.2",
            "--start", "0.1", "--stop", "0.1", "--step", "1", "--out", str(out_path))
    sweep_f = out_path.read_text().splitlines()[1].split(",")[1]
    code, out, _ = run_cli(capsys, "bound", "--b", "0.2", "--q", "0.1")
    assert kv(out)["bound"] == sweep_f


def test_sweep_input_errors(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0",
        "--start", "0.3", "--stop", "0.1", "--step", "0.01",
        "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "must not exceed" in err
    code, _, err = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0",
        "--start", "0", "--stop", "0.1", "--step", "0.01",
        "--out", str(tmp_path / "nope" / "x.csv"))
    assert code == 1


@pytest.mark.parametrize("flag, value", [("--stop", "inf"), ("--step", "inf"), ("--start", "-inf"), ("--step", "nan")])
def test_sweep_rejects_non_finite_grid_flags(capsys, tmp_path, flag, value):
    args = {"--start": "0", "--stop": "1", "--step": "0.01", flag: value}
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0", *[f"{k}={v}" for k, v in args.items()],
        "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"sqkd: error: {flag[2:]} must be finite, got {float(value)!r}"]
    assert not out_path.exists()


def test_sweep_rejects_a_grid_whose_size_overflows(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0",
        "--start=-1e308", "--stop", "1e308", "--step", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert err.splitlines() == ["sqkd: error: grid size inf exceeds the 1000000 limit"]


def test_sweep_bad_grid_point_writes_no_file(capsys, tmp_path):
    # the first point past b = 1/2 sits in the third chunk; nothing is written
    out_path = tmp_path / "x.csv"
    step = 0.5 / 9000
    code, _, err = run_cli(
        capsys, "sweep", "--var", "b", "--fixed", "0.1",
        "--start", "0", "--stop", "0.6", "--step", repr(step), "--out", str(out_path))
    first_bad = next(x for x in (i * step for i in range(20000)) if x > 0.5)
    assert code == 1
    assert err.splitlines() == [f"sqkd: error: bias must lie in [-1/2, 1/2], got {first_bad!r}"]
    assert not out_path.exists()


def test_sweep_bad_fixed_value_writes_no_file(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--var", "b", "--fixed", "1.5",
        "--start", "0", "--stop", "0.4", "--step", "0.01", "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["sqkd: error: depolarizing parameter must lie in [0, 1], got 1.5"]
    assert not out_path.exists()


def test_sweep_bad_first_point_writes_no_file(capsys, tmp_path):
    # every later point of this grid is good
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0.1",
        "--start=-0.001", "--stop", "0.5", "--step", "0.001", "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["sqkd: error: depolarizing parameter must lie in [0, 1], got -0.001"]
    assert not out_path.exists()


# sha256 of the CSV files the per-value "%.12g" writer wrote for these grids:
# over q to 1 across two chunk boundaries and into the abort region, over b
# at q = 0 (the clamp), and from 1e-07 through f = 0 (exponent notation)
SWEEP_GRIDS = (
    ("q", "0.2", "0", "1", repr(1 / 8199)),
    ("b", "0", "-0.5", "0.5", "0.0025"),
    ("q", "-0.3", "1e-07", "0.9", "0.00293"),
)
SWEEP_SHA256 = (
    "760f471b249952fd9f14f614858238746785d2db5226994bf4459f54232724ae",
    "9d7c9813e7aa1833c3d0b1a35f77c7c5ae8aec6dce7c0eb1873edf420c1769ac",
    "d3ba4ac7540c0673dc44bd7ea6601afbb3930a1cd89c9d778ba46994a3c039ba",
)


# at one point per chunk the 8200-point grid would take seconds of kernel calls
@pytest.mark.parametrize("chunk, grids", [(1, (1, 2)), (7, (0, 1, 2)), (cli.SWEEP_CHUNK, (0, 1, 2))])
def test_sweep_csv_is_byte_identical_at_any_chunk_size(capsys, tmp_path, monkeypatch, chunk, grids):
    monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
    out_path = tmp_path / "grid.csv"
    for i in grids:
        var, fixed, start, stop, step = SWEEP_GRIDS[i]
        code, _, _ = run_cli(capsys, "sweep", "--var", var, "--fixed", fixed, "--start", start,
                             "--stop", stop, "--step", step, "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SWEEP_SHA256[i]


def _bound_line(b, q):
    """The bound=... line `sqkd bound --b B --q Q` prints."""
    return format_report(key_rate_bound(depolarizing_stats(b, q))).splitlines()[0]


@pytest.mark.parametrize("n, var, fixed", [(4095, "q", 0.1), (4096, "b", 0.3), (4097, "q", -0.3), (8193, "b", 0.0)])
def test_sweep_across_chunk_boundaries_matches_bound_point_by_point(capsys, tmp_path, n, var, fixed):
    # q grids run to 1 and so cover the abort region q > 2/3; at q = 0
    # round-off fires the Cauchy-Schwarz cap at some b
    start, stop = (0.0, 1.0) if var == "q" else (-0.5, 0.5)
    step = (stop - start) / (n - 1)
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--var", var, "--fixed", repr(fixed), "--start", repr(start),
        "--stop", repr(stop), "--step", repr(step), "--out", str(out_path))
    assert code == 0 and out == f"rows={n}\nout={out_path}\n"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,f" and len(lines) == n + 1
    xs = [start + i * step for i in range(n)]
    grid = key_rate_bound(depolarizing_stats(*((fixed, np.array(xs)) if var == "q" else (np.array(xs), fixed))))
    assert grid.abort.any() if var == "q" else grid.B_clamped.any() == (fixed == 0.0)
    for x, line in zip(xs, lines[1:]):
        b, q = (fixed, x) if var == "q" else (x, fixed)
        assert line == f"{x:.12g},{_bound_line(b, q)[len('bound='):]}"
    # and through the command itself at the chunk edges
    for i in sorted({0, 1, 4094, 4095, 4096, 8191, 8192, n - 1} & set(range(n))):
        b, q = (fixed, xs[i]) if var == "q" else (xs[i], fixed)
        _, out, _ = run_cli(capsys, "bound", "--b", repr(b), "--q", repr(q))
        assert out.splitlines()[0] == f"bound={lines[i + 1].split(',')[1]}"


def test_sweep_at_the_grid_cap_keeps_memory_bounded(tmp_path):
    # getrusage's peak RSS survives fork and exec, so a child of this large
    # test process would report this process's peak; a small interpreter in
    # between starts the sweep and reads the peak of its only child
    out_path = tmp_path / "cap.csv"
    sweep = (
        "import sys; from sqkd import cli; sys.exit(cli.main(['sweep', '--var', 'q', '--fixed', '0.1',"
        f" '--start', '0', '--stop', '1', '--step', {repr(1 / 999999)!r}, '--out', {str(out_path)!r}]))"
    )
    parent = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-c', {sweep!r}], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", parent], capture_output=True, text=True, timeout=120,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    max_rss_kb = int(result.stdout)
    assert max_rss_kb < 60 * 1024
    with open(out_path, "rb") as fh:
        assert sum(1 for _ in fh) == 10**6 + 1


def test_bound_from_stats_with_no_matching_key_bits(capsys, tmp_path):
    # p00 + p11 = 0: lambda is undefined and the batched row carries NaN
    path = tmp_path / "stats.txt"
    path.write_text("b=0\np00=0\np01=0.5\np10=0.5\np11=0\np_e_minus=0\np0_plus=0.25\np1_plus=0.25\n")
    code, out, _ = run_cli(capsys, "bound", "--stats", str(path))
    assert code == 2  # B = 0 as well: the channel aborts
    values = kv(out)
    assert values["lambda"] == "none" and values["k1"] == "0"
    stats = load_statistics(path)
    batch = key_rate_bound(Statistics(**{name: [getattr(stats, name)[0]] * 3 for name in STAT_FIELDS}))
    assert np.isnan(batch.lam).all()
    assert [f"{f:.12g}" for f in batch.bound] == [values["bound"]] * 3


# --------------------------------------------------------------- threshold


def test_threshold_fixed_bias(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--fix", "b=0")
    assert code == 0
    values = kv(out)
    assert float(values["q_star"]) == pytest.approx(0.193785, abs=2e-4)
    assert float(values["Q_Z_star"]) == pytest.approx(0.0968925, abs=1e-4)


def test_threshold_fixed_noise(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--fix", "q=0.1")
    assert code == 0
    values = kv(out)
    assert float(values["b_star"]) == pytest.approx(0.473156, abs=2e-4)
    assert float(values["Q_X_star"]) == pytest.approx(
        cli.keyrate.x_error_from_bias(0.473156), abs=1e-3)


def test_threshold_fixed_noise_at_zero_reports_endpoint(capsys):
    # f(b, 0) = h(1/2+b) is positive on the open interval, so the boundary
    # is the endpoint b = 1/2 itself, where Q_X = 1/2; at a tolerance below
    # one ulp the probes next to 1/2 round to 0 and must not move the answer
    for tol in ("1e-4", "1e-20"):
        code, out, _ = run_cli(capsys, "threshold", "--fix", "q=0", "--tol", tol)
        assert code == 0
        values = kv(out)
        assert values["b_star"] == "0.5"
        assert values["Q_X_star"] == "0.5"


def test_threshold_none_when_always_negative(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--fix", "q=0.5")
    assert code == 0
    assert kv(out)["b_star"] == "none"


def test_threshold_rejects_infinite_tol(capsys):
    code, out, err = run_cli(capsys, "threshold", "--fix", "b=0", "--tol", "inf")
    assert code == 1 and out == ""
    assert err.splitlines() == ["sqkd: error: tol must lie in (0, 0.01], got inf"]


def test_threshold_bad_fix_flag(capsys):
    code, _, err = run_cli(capsys, "threshold", "--fix", "z=1")
    assert code == 1 and "--fix" in err


# ---------------------------------------------------------------- simulate


def test_simulate_noiseless(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "1000", "--seed", "7", "--q", "0", "--b", "0")
    assert code == 0
    values = kv(out)
    assert values["abort"] == "none"
    assert values["test_bit_error_rate"] == "0"
    assert float(values["bound"]) > 0.9


def test_simulate_abort_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "1000", "--seed", "7", "--q", "0.9", "--b", "0", "--pt", "0.1")
    assert code == 2
    assert kv(out)["abort"] in ("CTRL_X_NOISE", "TEST_BIT_NOISE")


def test_simulate_export_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--n", "200", "--seed", "11", "--q", "0.05", "--b", "0.1")
    code1, out1, _ = run_cli(capsys, *args, "--export", str(a))
    code2, out2, _ = run_cli(capsys, *args, "--export", str(b))
    assert code1 == code2 == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


def test_simulate_with_attack_file(capsys, tmp_path):
    path = tmp_path / "attack.txt"
    save_attack(random_attack(np.random.default_rng(3), ancilla_dim=2), path)
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "300", "--seed", "5", "--attack", str(path), "--pt", "0.49")
    values = kv(out)
    assert code in (0, 2)
    assert values["rounds"] == "3000"


def test_simulate_input_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--n", "10", "--seed", "1")
    assert code == 1 and "either" in err
    code, _, err = run_cli(capsys, "simulate", "--n", "0", "--seed", "1", "--q", "0", "--b", "0")
    assert code == 1
    path = tmp_path / "attack.txt"
    save_attack(depolarizing_attack(0.0, 0.0), path)
    code, _, err = run_cli(
        capsys, "simulate", "--n", "10", "--seed", "1", "--q", "0", "--b", "0", "--attack", str(path))
    assert code == 1


def test_simulate_rejects_infinite_delta(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "1000", "--seed", "1", "--q", "0.05", "--b", "0", "--delta", "inf")
    assert code == 1 and out == ""
    assert err.splitlines() == ["sqkd: error: delta must be positive and finite, got inf"]


@pytest.mark.parametrize("n, delta", [("10000000000", "0.25"), ("1", "1e300")])
def test_simulate_rejects_runs_over_the_round_cap(capsys, n, delta):
    # the cap is checked on the configuration, before any round is allocated
    code, out, err = run_cli(
        capsys, "simulate", "--n", n, "--seed", "1", "--q", "0.05", "--b", "0", "--delta", delta)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"sqkd: error: n={int(n)} with delta={float(delta)!r} needs more than 100000000 rounds,"
        " the most one run may have"
    ]


# ---------------------------------------------------------------- validate


def test_validate_pass(capsys, tmp_path):
    path = tmp_path / "attack.txt"
    save_attack(depolarizing_attack(0.2, 0.0), path)
    code, out, _ = run_cli(capsys, "validate", "--attack", str(path))
    assert code == 0
    assert kv(out)["status"] == "pass"


def test_validate_kraus_derived_attack_passes(capsys, tmp_path):
    path = tmp_path / "attack.txt"
    save_attack(depolarizing_attack(0.1, 0.3), path)
    code, out, _ = run_cli(capsys, "validate", "--attack", str(path))
    assert code == 0
    assert kv(out)["status"] == "pass"


def test_validate_reports_deviation_and_fails(capsys, tmp_path):
    path = tmp_path / "scaled.txt"
    path.write_text("b=0\nd=1\ne00=1.1,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    code, out, _ = run_cli(capsys, "validate", "--attack", str(path))
    assert code == 2
    values = kv(out)
    assert values["status"] == "fail"
    assert float(values["norm0_deviation"]) == pytest.approx(0.21, abs=1e-9)


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("b=0\nd=1\ne00=1;0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    code, _, err = run_cli(capsys, "validate", "--attack", str(path))
    assert code == 1
    assert "broken.txt:3" in err


# ------------------------------------------------------------------- misc


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    stats = tmp_path / "stats.txt"
    save_statistics(depolarizing_stats(0.2, 0.1), stats)
    calls = [("bound", "--b", "0.1", "--q", "0.05"), ("bound", "--stats", str(stats)),
             ("threshold", "--fix", "q=0.1"), ("bound", "--b", "0", "--q", "0.7")]
    first = [run_cli(capsys, *argv) for argv in calls]
    # a bad flag (exit 1) in between leaves nothing behind for the next call
    code, out, err = run_cli(capsys, "bound", "--b", "0.1", "--bogus", "1")
    assert code == 1 and out == "" and "unrecognized arguments: --bogus" in err
    code, _, _ = run_cli(capsys, "bound", "--q")
    assert code == 1
    again = [run_cli(capsys, *argv) for argv in calls]
    assert again == first
    assert [code for code, _, _ in first] == [0, 0, 0, 2]


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--n", "1.5", "--seed", "1", "--q", "0", "--b", "0"),
     "sqkd simulate: error: argument --n: invalid int value: '1.5'"),
    (("bogus",), "sqkd: error: argument command: invalid choice: 'bogus'"),
    (("bound", "--b", "0.1", "--bogus", "1"), "sqkd: error: unrecognized arguments: --bogus 1"),
], ids=["bad int", "unknown subcommand", "unknown flag"])
def test_argparse_errors_are_one_line(capsys, argv, message):
    # argparse's own errors follow the CLI contract: exit 1, no usage text
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_negative_numbers_in_exponent_form_are_values(capsys, tmp_path):
    assert run_cli(capsys, "bound", "--b", "-1e-3", "--q", "0.1") == run_cli(capsys, "bound", "--b=-1e-3", "--q", "0.1")
    code, _, err = run_cli(capsys, "bound", "--b", "-2.5E-1", "--q", "-.1e1")
    assert code == 1 and err.splitlines() == ["sqkd: error: depolarizing parameter must lie in [0, 1], got -1.0"]
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "sweep", "--var", "b", "--fixed", "0", "--start", "-5e-1",
                           "--stop", "-4.9e-1", "--step", "1e-3", "--out", str(out_path))
    assert code == 0 and out == f"rows=11\nout={out_path}\n"
    assert out_path.read_text().splitlines()[:3] == ["x,f", "-0.5,0", f"-0.499,{_bound_line(-0.499, 0.0)[6:]}"]
    # a word that is not a number is still read as a flag
    code, out, err = run_cli(capsys, "bound", "--b", "-1e-3", "--q", "0.1", "--bogus", "-1e-3")
    assert code == 1 and out == ""
    assert err.splitlines() == ["sqkd: error: unrecognized arguments: --bogus -1e-3"]
    code, _, err = run_cli(capsys, "bound", "--b", "-e3", "--q", "0.1")
    assert code == 1 and err.splitlines() == ["sqkd bound: error: argument --b: expected one argument"]


def _sqkd(*argv, **kwargs):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = f"import sys; from sqkd import cli; sys.exit(cli.main({list(argv)!r}))"
    return subprocess.Popen([sys.executable, "-c", code], stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src}, **kwargs)


def test_a_reader_that_stops_early_ends_the_command_quietly(tmp_path):
    # the sweep writes 2.5 MB into the pipe, far more than it buffers, so it
    # is still writing when the reader closes after the header
    child = _sqkd("sweep", "--var", "q", "--fixed", "0.1", "--start", "0", "--stop", "1",
                  "--step", "1e-05", "--out", "/dev/stdout", stdout=subprocess.PIPE)
    assert child.stdout.readline() == b"x,f\n"
    child.stdout.close()
    assert child.wait(timeout=60) == cli.EXIT_PIPE
    assert child.stderr.read() == b""


def test_a_closed_stdout_ends_bound_quietly():
    read, write = os.pipe()
    os.close(read)
    try:
        child = _sqkd("bound", "--b", "0.1", "--q", "0.1", stdout=write)
    finally:
        os.close(write)
    assert child.wait(timeout=60) == cli.EXIT_PIPE
    assert child.stderr.read() == b""


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "bound" in out and "simulate" in out


def test_every_subcommand_has_help(capsys):
    for sub in ("bound", "sweep", "threshold", "simulate", "validate"):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert sub in out or "usage" in out
