import hashlib
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import random_attack, save_attack, save_statistics
from sqkd import cli
from sqkd.attacks import STAT_FIELDS, Statistics, depolarizing_attack, load_attack
from sqkd.fileio import ParseError, kv_text
from sqkd.keyrate import depolarizing_stats, key_rate_bound, load_statistics, report_items


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
    ("simulate", "--n", "2000", "--seed", "4", "--attack", "{attack}"),
    # estimates outside the invariants: bound=none and the message
    ("simulate", "--n", "5", "--seed", "25", "--q", "0.05", "--b", "0.1"),
    ("simulate", "--n", "2", "--seed", "0", "--q", "0.05", "--b", "0.1"),
)
BOUND_FILES = {
    "stats": "b=0.1\np00=0.585\np01=0.01\np10=0.015\np11=0.39\np_e_minus=0.0346\np0_plus=0.3\np1_plus=0.2\n",
    "k1_zero": "b=0\np00=0\np01=0.5\np10=0.5\np11=0\np_e_minus=0\np0_plus=0.25\np1_plus=0.25\n",
    "attack": "b=-0.15\nd=1\ne00=0.96,0\ne01=0.28,0\ne10=-0.28,0\ne11=0.96,0\n",
}
# sha256 of the exit code and stdout of every call above, as they were
# printed while one point of statistics was a class of its own, except that
# the attack run aborts on its CTRL-X rate of 0.179 (abort line and exit code)
BOUND_SHA256 = "c90647fbb3dd235eb2d18b57b3d210c9842586c4a56491ab2e77dfbf52796b80"


def says_why_there_is_no_bound(out):
    """Whether a stdout that prints bound=none also prints a bound_error= line."""
    lines = out.splitlines()
    return "bound=none" not in lines or any(line.startswith("bound_error=") for line in lines)


def test_bound_and_simulate_stdout_is_byte_identical(capsys, tmp_path):
    paths = {}
    for name, text in BOUND_FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    digest = hashlib.sha256()
    for argv in BOUND_CALLS:
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert err == ""
        assert says_why_there_is_no_bound(out)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == BOUND_SHA256


# malformed key=value files: a line put in after the first key of a valid
# statistics or attack file that starts with a comment (None drops its second
# and fourth keys instead), the line of the error and its message, in which
# {1} and {3} are the dropped keys
MALFORMED = {
    "no_equals": (b"hello\n", 3, "expected key=value, got 'hello'"),
    "empty_key": (b" =1\n", 3, "empty key"),
    "unknown_key": (b"who=1\n", 3, "unknown key 'who'"),
    "duplicate_key": (b"b=0\n", 3, "duplicate key 'b'"),
    "two_missing_keys": (None, 0, "missing keys: {1}, {3}"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_key_value_files_fail_alike(capsys, tmp_path, case):
    line, lineno, message = MALFORMED[case]
    path = tmp_path / "bad.txt"
    for name, load, command in (("stats", load_statistics, "bound --stats"), ("attack", load_attack, "validate --attack")):
        lines = BOUND_FILES[name].encode().splitlines(keepends=True)
        keys = [entry.partition(b"=")[0].decode() for entry in lines]
        if line is None:
            del lines[3], lines[1]
        else:
            lines.insert(1, line)
        path.write_bytes(b"# made by hand\n" + b"".join(lines))
        expected = f"{path}:{lineno}: {message.format(*keys)}"
        with pytest.raises(ParseError) as raised:
            load(path)
        assert str(raised.value) == expected
        assert run_cli(capsys, *command.split(), str(path)) == (1, "", f"sqkd: error: {expected}\n")


@pytest.mark.parametrize(("load", "command"), [(load_statistics, "bound --stats"), (load_attack, "validate --attack")],
                         ids=["bound --stats", "validate --attack"])
def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, load, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# made by hand\nb=0\xff\n")
    expected = f"{path}:2: not UTF-8: byte 0xff"
    with pytest.raises(ParseError) as raised:
        load(path)
    assert str(raised.value) == expected
    code, out, err = run_cli(capsys, *command.split(), str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"sqkd: error: {expected}"]


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


@pytest.mark.parametrize("line_break", ["\n", "\r", "\u2028"], ids=["LF", "CR", "LS"])
def test_sweep_rejects_an_out_path_with_a_line_break(capsys, tmp_path, line_break):
    # the path would break the out= line of stdout
    out_path = str(tmp_path / f"a{line_break}b.csv")
    code, out, err = run_cli(
        capsys, "sweep", "--var", "q", "--fixed", "0",
        "--start", "0", "--stop", "0", "--step", "1", "--out", out_path)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"sqkd: error: output path must not hold a line break, got {out_path!r}"]
    assert list(tmp_path.iterdir()) == []


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
    return kv_text(report_items(key_rate_bound(depolarizing_stats(b, q)))).splitlines()[0]


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
        "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
        "print(usage.ru_maxrss, usage.ru_minflt)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", parent], capture_output=True, text=True, timeout=120,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    max_rss_kb, minor_faults = map(int, result.stdout.split())
    assert max_rss_kb < 60 * 1024
    # glibc keeps the freed heap top for the next chunk instead of trimming it
    # (about 93,000-116,000 faults when every chunk faults its buffers back in)
    if platform.libc_ver()[0] == "glibc":
        assert minor_faults < 25_000
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
    # a bad name and a bad number get the same message, which names the flag
    for fix in ("z=1", "b=abc", "b=", "q=0.1x"):
        code, out, err = run_cli(capsys, "threshold", "--fix", fix)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"sqkd: error: --fix expects b=<real> or q=<real>, got {fix!r}"]


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
        capsys, "simulate", "--n", "1000", "--seed", "7", "--q", "0.9", "--b", "0")
    assert code == 2
    assert kv(out)["abort"] in ("CTRL_X_NOISE", "TEST_BIT_NOISE")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19: the abort checks compare fixed error levels, not the key rate")
def test_simulate_aborts_a_run_whose_bound_is_negative(capsys):
    # a CTRL-X rate of 9.79% and a test-bit rate of 9.82% lie under P_T = 0.1,
    # while the bound at the estimates is -0.00914881932723
    code, out, _ = run_cli(capsys, "simulate", "--q", "0.196", "--b", "0", "--n", "200000", "--seed", "3")
    values = kv(out)
    assert float(values["bound"]) < 0
    assert code == 2 and values["abort"] != "none"


# a run of nine rounds with no CTRL-X round: p_e_minus has an empty class, so
# it has no value and no standard error, and no bound is taken, which
# bound_error explains
EMPTY_CLASS_STDOUT = """\
rounds=9
sift_z_count=6
sift_x_count=2
ctrl_z_count=1
ctrl_x_count=0
ctrl_x_error_rate=none
test_bit_error_rate=0
abort=none
bias=0
bias_se=0.176776695297
p00=0.5
p00_se=0.204124145232
p01=0
p01_se=0
p10=0
p10_se=0
p11=0.5
p11_se=0.204124145232
p_e_minus=none
p0_plus=0
p0_plus_se=0
p1_plus=0.5
p1_plus_se=0.353553390593
bound=none
bound_error=p_e_minus must lie in [0, 1], got nan
"""


def test_simulate_with_an_empty_estimate_class_prints_none(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "1", "--seed", "10", "--q", "0.05", "--b", "0.1",
                             "--delta", "1e-3")
    assert (code, out, err) == (0, EMPTY_CLASS_STDOUT, "")
    assert says_why_there_is_no_bound(out)


def test_simulate_export_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--n", "200", "--seed", "11", "--q", "0.05", "--b", "0.1")
    code1, out1, _ = run_cli(capsys, *args, "--export", str(a))
    code2, out2, _ = run_cli(capsys, *args, "--export", str(b))
    assert code1 == code2 == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


def test_simulate_export_to_an_unwritable_path_fails_before_the_run(capsys, tmp_path, monkeypatch):
    def run_protocol(cfg, attack):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.protocol, "run_protocol", run_protocol)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "simulate", "--n", "1000000", "--seed", "1", "--q", "0.05", "--b", "0",
                             "--export", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"sqkd: error: [Errno 2] No such file or directory: {str(path)!r}"]
    # the configuration is checked first
    code, out, err = run_cli(capsys, "simulate", "--n", "0", "--seed", "1", "--q", "0.05", "--b", "0",
                             "--export", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["sqkd: error: raw key length n must be a positive integer, got 0"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_simulate_exports_through_a_named_pipe(capsys, tmp_path):
    args = ("simulate", "--n", "1000", "--seed", "1", "--q", "0.05", "--b", "0")
    assert run_cli(capsys, *args, "--export", str(tmp_path / "t.csv"))[0] == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    child = _sqkd(*args, "--export", str(fifo), stdout=subprocess.DEVNULL)
    try:
        with open(fifo, "rb") as fh:  # one reader to the end of the stream
            data = fh.read()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.wait()
    assert data == (tmp_path / "t.csv").read_bytes()


def test_simulate_with_attack_file(capsys, tmp_path):
    path = tmp_path / "attack.txt"
    save_attack(random_attack(np.random.default_rng(3), ancilla_dim=2), path)
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "300", "--seed", "5", "--attack", str(path))
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


# the stdout of threshold, validate and sweep, which BOUND_SHA256 does not
# cover; {passing}, {scaled} and {out} name files in the test's directory
OTHER_STDOUT = (
    (("threshold", "--fix", "b=0"), 0, "q_star=0.1937890625\nQ_Z_star=0.09689453125\n"),
    (("threshold", "--fix", "b=0.5"), 0, "q_star=none\n"),
    (("threshold", "--fix", "q=0.1"), 0, "b_star=0.4731640625\nQ_X_star=0.33839625636\n"),
    (("threshold", "--fix", "q=0"), 0, "b_star=0.5\nQ_X_star=0.5\n"),
    (("threshold", "--fix", "q=0.5"), 0, "b_star=none\n"),
    (("validate", "--attack", "{passing}"), 0,
     "b=0.25\northogonality_deviation=0\nnorm0_deviation=2.00000016548e-10\nnorm1_deviation=0\n"
     "max_deviation=2.00000016548e-10\nstatus=pass\n"),
    (("validate", "--attack", "{scaled}"), 2,
     "b=0\northogonality_deviation=0\nnorm0_deviation=0.21\nnorm1_deviation=0\nmax_deviation=0.21\n"
     "status=fail\n"),
    (("sweep", "--var", "q", "--fixed", "0", "--start", "0", "--stop", "0.3", "--step", "0.1",
      "--out", "{out}"), 0, "rows=4\nout={out}\n"),
)


def test_threshold_validate_and_sweep_stdout_is_pinned(capsys, tmp_path):
    paths = {"passing": tmp_path / "passing.txt", "scaled": tmp_path / "scaled.txt", "out": tmp_path / "sweep.csv"}
    paths["passing"].write_text("b=0.25\nd=1\ne00=1.0000000001,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    paths["scaled"].write_text("b=0\nd=1\ne00=1.1,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    for argv, code, out in OTHER_STDOUT:
        argv = [arg.format(**paths) for arg in argv]
        assert run_cli(capsys, *argv) == (code, out.format(**paths), ""), argv


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


@pytest.fixture
def unset_heap_policy():
    cli.keep_heap_top.cache_clear()
    yield
    cli.keep_heap_top.cache_clear()


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()], ids=["no C library", "no mallopt"])
def test_without_mallopt_the_cli_runs_as_before(capsys, monkeypatch, unset_heap_policy, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    argv, code, out = OTHER_STDOUT[0]
    assert run_cli(capsys, *argv) == (code, out, "")


def test_the_heap_policy_is_set_once_per_process(capsys, monkeypatch, unset_heap_policy):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = types.SimpleNamespace(mallopt=mallopt)  # a plain function, so argtypes can be set on it
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc if name is None else None)
    argv, code, out = OTHER_STDOUT[0]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv) == (code, out, "")
    assert calls == [(-2, cli.HEAP_TOP_PAD)]


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, "nonsense")
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--n", "1.5", "--seed", "1", "--q", "0", "--b", "0"),
     "sqkd simulate: error: argument --n: invalid int value: '1.5'"),
    (("bogus",), "sqkd: error: argument command: invalid choice: 'bogus'"),
    (("bound", "--b", "0.1", "--bogus", "1"), "sqkd: error: unrecognized arguments: --bogus 1"),
    (("simulate", "--n", "10", "--seed", "1", "--q", "0", "--b", "0", "--pt", "0.2"),
     "sqkd: error: unrecognized arguments: --pt 0.2"),
], ids=["bad int", "unknown subcommand", "unknown flag", "removed threshold flag"])
def test_argparse_errors_are_one_line(capsys, argv, message):
    # argparse's own errors follow the CLI contract: exit 1, no usage text
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)


BOUND_HELP = """\
usage: sqkd bound [-h] [--b B] [--q Q] [--stats STATS] [--attack ATTACK]

options:
  -h, --help       show this help message and exit
  --b B            bias of the injected state
  --q Q            depolarizing parameter of the reverse channel
  --stats STATS    statistics file (key=value lines)
  --attack ATTACK  attack specification file
"""


@pytest.mark.parametrize("argv, expected", [
    ((), (1, "", "sqkd: error: the following arguments are required: command\n")),
    (("nosuch",), (1, "", "sqkd: error: argument command: invalid choice: 'nosuch'"
                          " (choose from 'bound', 'sweep', 'threshold', 'simulate', 'validate')\n")),
    (("bound", "--b", "0.1", "--q", "0.1", "extra"), (1, "", "sqkd: error: unrecognized arguments: extra\n")),
    (("bound", "--b"), (1, "", "sqkd bound: error: argument --b: expected one argument\n")),
    (("bound", "--help"), (0, BOUND_HELP, "")),
], ids=["no command", "unknown command", "extra argument", "missing value", "subcommand help"])
def test_a_subcommand_parsed_alone_answers_as_the_full_parser(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert run_cli(capsys, *argv) == expected
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == expected


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
