"""csv_rows must write every value exactly as fmt does, and kv_text every
value of a key=value line by one rule.

Its fast path scales each value to a 12-digit integer and rounds once, so it
can only go wrong near rounding ties, at decade and notation boundaries, at
the carry from 999999999999.5 to 10**12 and outside the range where the
scaling is exact.  The batteries below aim at each of those, on over 10**6
values in all.
"""

import hashlib

import numpy as np
import pytest

from sqkd import fileio
from sqkd.fileio import csv_rows, fmt, kv_text


def assert_renders_like_fmt(values):
    values = np.asarray(values, dtype=float)
    lines = csv_rows(values).decode().split("\n")
    assert lines.pop() == ""
    expected = [fmt(v) for v in values.tolist()]
    bad = [(v, got, want) for v, got, want in zip(values.tolist(), lines, expected) if got != want]
    assert len(lines) == len(expected) and bad[:5] == []


def neighbours(values):
    """The values and both of their nextafter neighbours."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the neighbours of the largest doubles are infinite
        return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def random_bit_patterns(rng):
    # every sign, exponent and mantissa, subnormals, infinities and nans among them
    return rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)


def every_decade(rng):
    mantissa = rng.uniform(1.0, 10.0, (61, 4_000)) * rng.choice([-1.0, 1.0], (61, 4_000))
    return (mantissa * 10.0 ** np.arange(-30, 31)[:, None]).ravel()


def near_ties(rng):
    # a 12-digit mantissa followed by a 5 lies next to a tie of the 12th digit
    digits = rng.integers(10**11, 10**12, 60_000)
    exponents = rng.integers(-40, 40, 60_000)
    return neighbours([float(f"{d}5e{k}") for d, k in zip(digits.tolist(), exponents.tolist())])


def sweep_like(rng):
    # grid points start + i * step and decimals rounded to 1-15 places
    grid = rng.uniform(-0.5, 0.2, (100, 1)) + np.arange(1_000) * rng.uniform(1e-6, 1e-3, (100, 1))
    rounded = [np.round(rng.uniform(-1.0, 1.0, 6_000), places) for places in range(1, 16)]
    return np.concatenate([grid.ravel(), *rounded])


def boundaries(rng):
    powers = [float(f"1e{k}") for k in range(-330, 309)]
    carries = [float(f"999999999999.5e{k}") for k in range(-60, 40)]
    # the switches between fixed and exponent notation at 1e-4/1e-5 and 1e11/1e12
    switches = [float(f"{m}e{k}") for m in (1, 9.99999999999, 9.999999999995, 9.9999999999949)
                for k in (-6, -5, -4, -3, 10, 11, 12)]
    edges = [0.0, -0.0, 5e-324, 2.2e-308, 2.2250738585072014e-308, 1.8e308, 1.7976931348623157e308,
             np.inf, -np.inf, np.nan, 1e-11, 1e34, 0.5, 1.0, -1.0]
    values = neighbours(powers + carries + switches + edges)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("family", [random_bit_patterns, every_decade, near_ties, sweep_like, boundaries])
def test_csv_rows_matches_fmt(family):
    assert_renders_like_fmt(family(np.random.default_rng(20240611)))


def test_the_batteries_cover_a_million_values():
    rng = np.random.default_rng(20240611)
    families = (random_bit_patterns, every_decade, near_ties, sweep_like, boundaries)
    assert sum(family(rng).size for family in families) >= 10**6


def test_csv_rows_corrects_a_decade_that_log10_misses(monkeypatch):
    # numpy's log10 misses only within a few ulps of a power of ten, where the
    # 12 digits round to the power anyway; a log10 that misses by a whole
    # decade on a third of the values each way shows the correction at work
    rng = np.random.default_rng(5)
    true_log10 = np.log10

    def missing_log10(a):
        return np.floor(true_log10(a)) + rng.integers(-1, 2, np.shape(a)) + 0.5

    monkeypatch.setattr(np, "log10", missing_log10)
    assert_renders_like_fmt(np.concatenate([every_decade(rng), boundaries(rng)]))


@pytest.mark.parametrize("n_columns", [1, 2, 3, 5])
def test_csv_rows_writes_multi_column_rows(n_columns):
    rng = np.random.default_rng(n_columns)
    columns = [rng.uniform(-2.0, 2.0, 300) * 10.0 ** rng.integers(-15, 15, 300) for _ in range(n_columns)]
    columns[0][:3] = [0.0, np.nan, 1e300]
    expected = "".join(",".join(map(fmt, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))
    assert csv_rows(*columns) == expected.encode()


def test_csv_rows_of_empty_columns_is_empty():
    assert csv_rows(np.array([]), np.array([])) == b""


@pytest.mark.parametrize("name, dtype, shape, digest", [
    ("_DIGITS", np.uint32, (10**4,), "f6c56731dfa8918781871e46713283ad77aae49109cd0bc1bd7c62b4006f89ca"),
    ("_PAIRS", np.uint64, (10**4,), "26c5ebc1b79b82e79931aedb9c8e0e4942b8934c51cd861c0bccaa2dfbaeb825"),
    ("_SIGNIFICANT", np.uint8, (3, 10**4), "67337d73591713bd265de4f810ecf95399e42c93a57fabf7e73f48fd1d981415"),
])
def test_digit_tables_keep_their_bytes(name, dtype, shape, digest):
    # sha256 of the tables as np.insert and a (3, 10**4, 4) product built them
    table = getattr(fileio, name)
    assert (table.dtype, table.shape) == (np.dtype(dtype), shape)
    assert hashlib.sha256(table.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("value, text", [
    (None, "none"),
    (float("nan"), "none"),
    (np.float64("nan"), "none"),
    (True, "true"),
    (np.True_, "true"),
    (False, "false"),
    (np.False_, "false"),
    (0, "0"),
    (np.int64(7), "7"),
    (-0.0, fmt(-0.0)),
    (1e-5, fmt(1e-5)),
    (0.1 + 0.2, fmt(0.1 + 0.2)),
    (np.float64(0.1) + np.float64(0.2), fmt(0.1 + 0.2)),
    ("CTRL_X_NOISE", "CTRL_X_NOISE"),
    (ValueError("p00 must lie in [0, 1]"), "p00 must lie in [0, 1]"),
])
def test_kv_text_renders_each_kind_of_value(value, text):
    assert kv_text([("key", value)]) == f"key={text}\n"


def test_kv_text_writes_one_line_per_pair_in_order():
    assert kv_text([]) == ""
    assert kv_text([("b", 0.1), ("abort", np.False_), ("rows", 4)]) == "b=0.1\nabort=false\nrows=4\n"
    assert [fmt(-0.0), fmt(1e-5), fmt(0.1 + 0.2)] == ["-0", "1e-05", "0.3"]
