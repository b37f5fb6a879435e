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
