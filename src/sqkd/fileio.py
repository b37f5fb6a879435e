"""Text formats: ``key=value`` input files, and numbers as ``fmt`` prints them.

``csv_rows`` renders columns with numpy, byte for byte as ``fmt``: each value's
12 digits go into a fixed-width record, a mask per layout keeps the bytes that
show and the NULs left are deleted.  Values it cannot render exactly (zeros,
non-finite, outside 1e-11 ... 1e34 or within 1e-3 of a tie) go through ``fmt``.
"""

from __future__ import annotations

import re

import numpy as np


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


def fmt(x: float) -> str:
    """Format a float with 12 significant digits and a lowercase exponent."""
    return format(float(x), ".12g")


# b"0000" ... b"9999", one 4-byte word each
_DIGITS = np.stack(
    np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"), axis=-1
).view(np.uint32).ravel()
# csv_rows lays a value out in five 8-byte words: bytes 0-5 hold the sign and
# "0.000", 8-31 twelve digits each followed by a point slot, 32-35 the
# exponent and 36 the separator; the middle three words come from _PAIRS
_QUADS = _DIGITS.view(np.uint8).reshape(-1, 4)
_PAIRS = np.insert(_QUADS, [1, 2, 3, 4], ord("."), axis=1).view(np.uint64).ravel()  # b"0.0.0.0." ...
# _SIGNIFICANT[j][g]: the significant digits of a 12-digit number whose j-th 4-digit group is g > 0
_SIGNIFICANT = ((_QUADS > ord("0")) * np.arange(1, 13, dtype=np.uint8).reshape(3, 1, 4)).max(-1)
_HEAD = np.frombuffer(b"\x00" b"0.000\0\0" b"-0.000\0\0", dtype=np.uint64)
_TAIL = np.frombuffer(b"".join(b"e%+03d\0\0\0\0" % x for x in range(-11, 35)), dtype=np.uint64)
_COMMA, _NEWLINE = np.frombuffer(b"\0\0\0\0,\0\0\0\0\0\0\0\n\0\0\0", dtype=np.uint64)
_POW10 = np.array([float(10**k) for k in range(23)])  # all exact
_TIE_BAND = 1e-3  # scaling |v| moves m by at most 6.2e-5, far less than this


def _layout_masks() -> np.ndarray:
    """_KEEP[17 * (n_digits - 1) + layout] keeps the record bytes a value
    shows: layouts 0-15 are the fixed notation at decimal exponents -4 ... 11,
    layout 16 the exponent notation.  The last mask keeps what fmt wrote."""
    n, e, pos = np.ogrid[1:13, -4:13, :40]
    point = np.where(e == 12, 0, e)  # the point follows this digit
    keep = (
        (pos == 0) | (pos == 36)  # sign and separator
        | (e < 0) & (1 <= pos) & (pos < 2 - e)  # "0." and -e - 1 zeros
        | (8 <= pos) & (pos < 8 + 2 * np.maximum(n, point + 1)) & (pos % 2 == 0)
        | (pos == 9 + 2 * point) & (0 <= point) & (point < n - 1)
        | (e == 12) & (32 <= pos) & (pos < 36)
    ).reshape(-1, 40)
    return (np.vstack([keep, np.isin(pos.ravel(), [*range(32), 36])]) * np.uint8(0xFF)).view(np.uint64)


_KEEP = _layout_masks()


def _scale(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10**k with one rounding, for |k| <= 22."""
    p = _POW10[np.abs(k)]
    return np.where(k >= 0, a * p, a / p)


def csv_rows(*columns) -> bytes:
    """CSV rows of equally long columns, every value as ``fmt`` writes it."""
    values = np.asarray(np.column_stack(columns), dtype=float).ravel()
    a = np.abs(values)
    with np.errstate(divide="ignore"):
        k = 11 - np.floor(np.log10(a))  # inf for 0, nan for nan, -inf for inf
    fast = np.abs(k) <= 22
    a[~fast] = 1.0
    k = np.where(fast, k, 0).astype(np.int64)
    m = _scale(a, k)
    off = np.flatnonzero((m < 1e11) | (m >= 1e12))  # log10 missed the decade by one
    k[off] += np.where(m[off] < 1e11, 1, -1)
    fast &= np.abs(k) <= 22
    np.clip(k, -22, 22, out=k)
    m[off] = _scale(a[off], k[off])
    digits = np.rint(m)
    fast &= np.abs(m - digits) < 0.5 - _TIE_BAND
    carry = digits == 1e12  # 999999999999.5 and up round to 10**12
    exponent = 11 - k + carry
    high, low = np.divmod(np.where(fast & ~carry, digits, 1e11).astype(np.int64), 10**4)
    groups = (*np.divmod(high, 10**4), low)
    n_digits = np.maximum.reduce([table[group] for table, group in zip(_SIGNIFICANT, groups)])
    layout = np.where((-4 <= exponent) & (exponent < 12), exponent + 4, 16) + 17 * (n_digits - 1)
    layout[~fast] = len(_KEEP) - 1
    records = np.empty((values.size, 5), dtype=np.uint64)
    records[:, 0] = np.where(values < 0, _HEAD[1], _HEAD[0])
    for j, group in enumerate(groups, start=1):
        records[:, j] = _PAIRS[group]
    records[:, 4] = _TAIL[exponent + 11] | _COMMA
    records.reshape(-1, len(columns), 5)[:, -1, 4] ^= _COMMA ^ _NEWLINE
    text = np.array([fmt(v).encode() for v in values[~fast].tolist()], dtype="S32")
    records[~fast, :4] = text.view(np.uint64).reshape(-1, 4)
    records &= np.take(_KEEP, layout, axis=0)
    return records.tobytes().translate(None, b"\0")


# surrogateescape decodes each byte that is not UTF-8 to one of these
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def read_kv_lines(path) -> list[tuple[int, str, str]]:
    """Read ``key=value`` UTF-8 lines; blank lines and '#' comments are skipped."""
    entries = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            bad = _NOT_UTF8.search(raw)
            if bad:
                raise ParseError(path, lineno, f"not UTF-8: byte 0x{ord(bad.group()) - 0xDC00:02x}")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(path, lineno, f"expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise ParseError(path, lineno, "empty key")
            entries.append((lineno, key, value))
    return entries


def parse_float(path, lineno: int, key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ParseError(path, lineno, f"{key}: invalid number {value!r}") from None
    if x != x or x in (float("inf"), float("-inf")):
        raise ParseError(path, lineno, f"{key}: non-finite value {value!r}")
    return x


def parse_int(path, lineno: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(path, lineno, f"{key}: invalid integer {value!r}") from None
