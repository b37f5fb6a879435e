"""Collective attacks on the two-way channel and their observable statistics.

Any collective attack on the single-state protocol reduces to a bias b on the
state Bob receives plus a unitary U probing the returning qubit with an
ancilla.  U is fully described by four ancilla fragments via

    U|0,0> = |0,e00> + |1,e01>        U|1,0> = |0,e10> + |1,e11>

with the unitarity constraints <e00|e10> + <e01|e11> = 0 and
<e00|e00> + <e01|e01> = <e10|e10> + <e11|e11> = 1.  The fragments determine
the law of a round, ``cell_probabilities``, and so every probability the
legitimate users can observe and every round the simulator draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .fileio import ParseError

#: tolerance on the unitarity constraints and statistics invariants
ATOL = 1e-9


def _check_bias(b: float) -> float:
    b = float(b)
    if not -0.5 <= b <= 0.5:
        raise ValueError(f"bias must lie in [-1/2, 1/2], got {b!r}")
    return b


def attack_deviations(e00, e01, e10, e11) -> dict[str, float]:
    """Absolute deviation of the ancilla fragments from unitarity.

    Keys: ``orthogonality`` for |<e00|e10> + <e01|e11>| and ``norm0``,
    ``norm1`` for the two row-normalization defects.
    """
    return {
        "orthogonality": abs(complex(np.vdot(e00, e10) + np.vdot(e01, e11))),
        "norm0": abs(float(np.vdot(e00, e00).real + np.vdot(e01, e01).real) - 1.0),
        "norm1": abs(float(np.vdot(e10, e10).real + np.vdot(e11, e11).real) - 1.0),
    }


def _as_fragment(v, name: str) -> np.ndarray:
    # copy so that freezing the fragment cannot lock a caller-owned array
    v = np.array(v, dtype=complex, copy=True).reshape(-1)
    if v.size == 0:
        raise ValueError(f"{name} must have at least one component")
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise ValueError(f"{name} has non-finite components")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class RestrictedAttack:
    """Bias plus the four ancilla fragments of the reverse-channel unitary."""

    bias: float
    e00: np.ndarray
    e01: np.ndarray
    e10: np.ndarray
    e11: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bias", _check_bias(self.bias))
        for name in ("e00", "e01", "e10", "e11"):
            object.__setattr__(self, name, _as_fragment(getattr(self, name), name))
        d = self.e00.size
        if any(getattr(self, name).size != d for name in ("e01", "e10", "e11")):
            raise ValueError("ancilla fragments must share one dimension")
        dev = attack_deviations(self.e00, self.e01, self.e10, self.e11)
        worst = max(dev.values())
        if worst > ATOL:
            raise ValueError(f"fragments violate unitarity (max deviation {worst:.3e}): {dev}")

    @property
    def alpha(self) -> float:
        """Amplitude sqrt(1/2+b) of |0> in the injected state."""
        return math.sqrt(0.5 + self.bias)

    @property
    def beta(self) -> float:
        """Amplitude sqrt(1/2-b) of |1> in the injected state."""
        return math.sqrt(0.5 - self.bias)


def _check_noise(q: float) -> float:
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"depolarizing parameter must lie in [0, 1], got {q!r}")
    return q


def depolarizing_attack(b: float, q: float) -> RestrictedAttack:
    """Attack whose reverse channel depolarizes: rho -> (1-q) rho + (q/2) I.

    The fragments are the Stinespring dilation of the Kraus set
    sqrt(1 - 3q/4) I, sqrt(q/4) X, sqrt(q/4) Y, sqrt(q/4) Z, one ancilla
    component per Kraus operator: e_ij[k] = (K_k)_{j,i}.
    """
    q = _check_noise(q)
    a = math.sqrt(1.0 - 0.75 * q)
    c = math.sqrt(0.25 * q)
    return RestrictedAttack(
        b,
        e00=[a, 0, 0, c],
        e01=[0, c, 1j * c, 0],
        e10=[0, c, -1j * c, 0],
        e11=[a, 0, 0, -c],
    )


#: the bias and the seven observable probabilities, in field order
STAT_FIELDS = ("bias", "p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus")

# the range of each field, as columns against the fields stacked in rows
_LOW = np.array([[-0.5]] + [[-ATOL]] * 7)
_HIGH = np.array([[0.5]] + [[1.0 + ATOL]] * 7)
# p0_plus <= 1/2 + b and p1_plus <= 1/2 - b; -1 * b is exact, so the bounds
# are the doubles 1/2 + b + ATOL and 1/2 - b + ATOL
_PLUS_SIGN = np.array([[1.0], [-1.0]])


@dataclass(frozen=True, eq=False)
class Statistics:
    """The seven probabilities the legitimate users can estimate, plus the bias,
    at one or more points: one flat read-only float64 array per field.

    p00..p11 are P(alice=i, bob=j) conditioned on measure-and-Z rounds and
    therefore sum to 1.  p_e_minus is the '-' probability on reflected X
    rounds; p0_plus / p1_plus are the joint probabilities of (bob resent 0,
    alice saw +) and (bob resent 1, alice saw +) on measure-and-X rounds.

    The fields are broadcast together; scalars give one point.  Construction
    checks every point and rejects the first bad one with the message of the
    first check it fails.
    """

    bias: np.ndarray
    p00: np.ndarray
    p01: np.ndarray
    p10: np.ndarray
    p11: np.ndarray
    p_e_minus: np.ndarray
    p0_plus: np.ndarray
    p1_plus: np.ndarray

    def __post_init__(self):
        fields = [getattr(self, name) for name in STAT_FIELDS]
        stack = np.empty((len(STAT_FIELDS), *np.broadcast(*fields).shape))
        for i, field in enumerate(fields):
            stack[i] = field
        stack = stack.reshape(len(STAT_FIELDS), -1)
        bias, p00, p01, p10, p11 = stack[:5]
        # one row per check: the eight ranges, the sum, p0_plus and p1_plus
        ok = np.empty((11, stack.shape[1]), dtype=bool)
        np.less_equal(_LOW, stack, out=ok[:8])
        ok[:8] &= stack <= _HIGH
        np.less_equal(abs(p00 + p01 + p10 + p11 - 1.0), ATOL, out=ok[8])
        np.less_equal(stack[6:], 0.5 + _PLUS_SIGN * bias + ATOL, out=ok[9:])
        if not ok.all():  # word the first failing check of the first bad point
            point = np.argmin(ok.all(axis=0))
            bias, p00, p01, p10, p11, _, p0_plus, p1_plus = values = stack[:, point].tolist()
            _check_bias(bias)  # raises when row 0 fails; the list words rows 1 to 10
            raise ValueError([
                *(f"{name} must lie in [0, 1], got {p!r}" for name, p in zip(STAT_FIELDS[1:], values[1:])),
                f"p00+p01+p10+p11 must equal 1, got {p00 + p01 + p10 + p11!r}",
                f"p0_plus={p0_plus!r} exceeds 1/2+b={0.5 + bias!r}",
                f"p1_plus={p1_plus!r} exceeds 1/2-b={0.5 - bias!r}",
            ][np.argmin(ok[1:, point])])
        stack.flags.writeable = False
        for name, row in zip(STAT_FIELDS, stack):
            object.__setattr__(self, name, row)


# the cells each statistic counts and the cells of its conditioning class, one
# row per statistic in STAT_FIELDS order; the columns are the 12 cell codes of
# ``cell_probabilities``: SIFT-Z (Bob, Alice) = 00, 01, 10, 11, SIFT-X
# (Bob, Alice) = 0+, 0-, 1+, 1-, CTRL-Z 0, 1 and CTRL-X +, -
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


def cell_probabilities(attack: RestrictedAttack) -> np.ndarray:
    """The law of a round: the probability of each of the 12 cells given its
    branch, in cell-code order (see ``sqkd.protocol``).  For Bob's bit j, Alice
    first sees 0 with |e_j0|^2 on SIFT-Z and + with 1/2 + Re<e_j0|e_j1> on
    SIFT-X; she sees 0 with |alpha e00 + beta e10|^2 on CTRL-Z and - with
    |g_-|^2, g_- = (alpha (e00 - e01) + beta (e10 - e11)) / sqrt(2), on CTRL-X.
    """
    e00, e01, e10, e11 = attack.e00, attack.e01, attack.e10, attack.e11
    x0, x1 = np.vdot(e00, e01).real, np.vdot(e10, e11).real
    reflected = attack.alpha * e00 + attack.beta * e10  # qubit collapses to 0
    g_minus = (attack.alpha * (e00 - e01) + attack.beta * (e10 - e11)) / math.sqrt(2.0)
    z0, minus = np.vdot(reflected, reflected).real, np.vdot(g_minus, g_minus).real
    return np.array([
        np.vdot(e00, e00).real, np.vdot(e01, e01).real, np.vdot(e10, e10).real, np.vdot(e11, e11).real,
        0.5 + x0, 0.5 - x0, 0.5 + x1, 0.5 - x1, z0, 1.0 - z0, 1.0 - minus, minus,
    ])


def compute_statistics(attack: RestrictedAttack) -> Statistics:
    """Exact observable statistics of an attack, as one point: the probability
    of each statistic's counted cell (``_COUNTED``) given its branch, weighted
    by Bob's bit, 1/2 ± b, on SIFT rounds."""
    a2, b2 = 0.5 + attack.bias, 0.5 - attack.bias
    shares = np.array([a2, a2, b2, b2, a2, a2, b2, b2, 1, 1, 1, 1]) * cell_probabilities(attack)
    return Statistics(attack.bias, *(_COUNTED[1:] @ shares))


# ---------------------------------------------------------------------------
# attack specification file:  b=<real>, d=<int>, then one line per fragment
# with components separated by ';' and re/im parts by ','.

_VECTOR_KEYS = ("e00", "e01", "e10", "e11")


def _parse_vector(path, lineno: int, key: str, value: str, dim: int) -> np.ndarray:
    parts = [p for p in value.split(";") if p.strip()]
    if len(parts) != dim:
        raise ParseError(path, lineno, f"{key}: expected {dim} components, got {len(parts)}")
    out = np.empty(dim, dtype=complex)
    for i, part in enumerate(parts):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ParseError(path, lineno, f"{key}: component {i} must be 're,im', got {part.strip()!r}")
        re = fileio.parse_float(path, lineno, key, pieces[0].strip())
        im = fileio.parse_float(path, lineno, key, pieces[1].strip())
        out[i] = complex(re, im)
    return out


def parse_attack_file(path) -> tuple[float, dict[str, np.ndarray]]:
    """Parse an attack file without enforcing the unitarity invariants.

    Returns the bias and the four raw fragments so that callers can report
    invariant deviations instead of failing outright.
    """
    entries = fileio.read_kv_lines(path, ("b", "d", *_VECTOR_KEYS))
    lineno, value = entries["b"]
    b = fileio.parse_float(path, lineno, "b", value)
    if not -0.5 <= b <= 0.5:
        raise ParseError(path, lineno, f"b must lie in [-1/2, 1/2], got {b!r}")
    lineno, value = entries["d"]
    d = fileio.parse_int(path, lineno, "d", value)
    if d < 1:
        raise ParseError(path, lineno, f"d must be positive, got {d}")
    vectors = {}
    for key in _VECTOR_KEYS:
        lineno, value = entries[key]
        vectors[key] = _parse_vector(path, lineno, key, value, d)
    return b, vectors


def load_attack(path) -> RestrictedAttack:
    """Parse an attack file and enforce the unitarity invariants."""
    b, vectors = parse_attack_file(path)
    return RestrictedAttack(b, **vectors)
