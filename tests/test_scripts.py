import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter

import sqkd
from sqkd.attacks import STAT_FIELDS

SRC = os.path.dirname(os.path.dirname(sqkd.__file__))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})


def test_simulate_vs_analytic_prints_every_estimate():
    result = run_script("simulate_vs_analytic.py", "--n", "2000")
    assert result.returncode == 0, result.stderr
    out = result.stdout
    # six channels, each with one line per estimated statistic and one bound line
    assert out.count("rounds=20000") == 6
    assert Counter(re.findall(r"^  (\S+) +est=", out, flags=re.M)) == {name: 6 for name in STAT_FIELDS}
    assert out.count("bound from estimates:") == 6


def test_make_figure_data_writes_its_three_tables(tmp_path):
    result = run_script("make_figure_data.py", "--outdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for name, header, rows in (
        ("noise_sweep.csv", "q,f_b0,f_b0.1,f_b0.2,f_b0.3,f_b0.4", 401),
        ("bias_sweep.csv", "b,f_q0,f_q0.05,f_q0.1,f_q0.15,f_q0.2", 401),
        ("thresholds.csv", "b,q_star,Q_Z_star", 50),
    ):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1
        assert all(line.count(",") == header.count(",") for line in lines)


# as the per-value fmt writer wrote them, before the tables went through csv_rows
FIGURE_SHA256 = {
    "noise_sweep.csv": "132d47358fb9a1759e157e65dcbe70b2f51229f51e290099b8817913d75941e9",
    "bias_sweep.csv": "017fd5ad977fd03823bdd4aabb5b68fae97382413fb6871043f58caaee59b84d",
}


def test_make_figure_data_sweep_tables_are_byte_identical(tmp_path):
    spec = importlib.util.spec_from_file_location("make_figure_data", os.path.join(SCRIPTS, "make_figure_data.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.write_noise_sweep(tmp_path / "noise_sweep.csv")
    script.write_bias_sweep(tmp_path / "bias_sweep.csv")
    for name, digest in FIGURE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
