"""Collective attacks on the two-way channel and their observable statistics.

Any collective attack on the single-state protocol reduces to a bias b on the
state Bob receives plus a unitary U probing the returning qubit with an
ancilla.  U is fully described by four ancilla fragments via

    U|0,0> = |0,e00> + |1,e01>        U|1,0> = |0,e10> + |1,e11>

with the unitarity constraints <e00|e10> + <e01|e11> = 0 and
<e00|e00> + <e01|e01> = <e10|e10> + <e11|e11> = 1.  The fragments determine
every probability the legitimate users can observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .fileio import ParseError
from .qmath import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z

#: tolerance on the unitarity constraints and statistics invariants
ATOL = 1e-9


def _check_bias(b: float) -> float:
    b = float(b)
    if not -0.5 <= b <= 0.5 or b != b:
        raise ValueError(f"bias must lie in [-1/2, 1/2], got {b!r}")
    return b


def make_e_state(b: float) -> np.ndarray:
    """State Eve injects toward Bob: sqrt(1/2+b)|0> + sqrt(1/2-b)|1>."""
    b = _check_bias(b)
    return np.array([math.sqrt(0.5 + b), math.sqrt(0.5 - b)], dtype=complex)


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
    def ancilla_dim(self) -> int:
        return self.e00.size

    @property
    def alpha(self) -> float:
        """Amplitude sqrt(1/2+b) of |0> in the injected state."""
        return math.sqrt(0.5 + self.bias)

    @property
    def beta(self) -> float:
        """Amplitude sqrt(1/2-b) of |1> in the injected state."""
        return math.sqrt(0.5 - self.bias)

    def g_minus(self) -> np.ndarray:
        """Eve's (sub-normalized) fragment when Alice sees - on a reflected round."""
        return (self.alpha * (self.e00 - self.e01) + self.beta * (self.e10 - self.e11)) / math.sqrt(2.0)


@dataclass(frozen=True)
class KrausChannel:
    """Qubit channel given by 2x2 Kraus operators with sum K^dag K = I."""

    kraus_ops: tuple

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex, copy=True) for k in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (2, 2):
                raise ValueError(f"Kraus operators must be 2x2, got shape {k.shape}")
            if not (np.all(np.isfinite(k.real)) and np.all(np.isfinite(k.imag))):
                raise ValueError("Kraus operator has non-finite entries")
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(total - np.eye(2))))
        if dev > ATOL:
            raise ValueError(f"Kraus set is not trace preserving (max deviation {dev:.3e})")
        for k in ops:
            k.flags.writeable = False
        object.__setattr__(self, "kraus_ops", ops)

    def apply(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for k in self.kraus_ops:
            out += k @ rho @ k.conj().T
        return out


def depolarizing_channel(q: float) -> KrausChannel:
    """Channel rho -> (1-q) rho + (q/2) I as a four-element Kraus set."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"depolarizing parameter must lie in [0, 1], got {q!r}")
    return KrausChannel((
        math.sqrt(1.0 - 0.75 * q) * PAULI_I,
        math.sqrt(0.25 * q) * PAULI_X,
        math.sqrt(0.25 * q) * PAULI_Y,
        math.sqrt(0.25 * q) * PAULI_Z,
    ))


def attack_from_unitary(U, b: float) -> RestrictedAttack:
    """Extract the ancilla fragments from a unitary on qubit x ancilla.

    The qubit is the most significant factor, so for ancilla dimension d the
    fragments are the top/bottom halves of columns 0 and d.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] < 2 or U.shape[0] % 2:
        raise ValueError(f"expected a 2d x 2d matrix, got shape {U.shape}")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
    if dev > ATOL:
        raise ValueError(f"matrix is not unitary (max deviation {dev:.3e})")
    d = U.shape[0] // 2
    return RestrictedAttack(b, e00=U[:d, 0], e01=U[d:, 0], e10=U[:d, d], e11=U[d:, d])


def attack_from_kraus(channel: KrausChannel, b: float) -> RestrictedAttack:
    """Stinespring dilation of a qubit channel as a reverse-channel attack.

    With e_ij[k] = (K_k)_{j,i} the dilated unitary sends |i,0> to
    sum_j |j> (x) e_ij, so tracing out the ancilla reproduces the channel.
    """
    ks = channel.kraus_ops
    return RestrictedAttack(
        b,
        e00=np.array([k[0, 0] for k in ks]),
        e01=np.array([k[1, 0] for k in ks]),
        e10=np.array([k[0, 1] for k in ks]),
        e11=np.array([k[1, 1] for k in ks]),
    )


def identity_attack(b: float = 0.0, ancilla_dim: int = 1) -> RestrictedAttack:
    """Attack that leaves the returning qubit untouched."""
    d = int(ancilla_dim)
    if d < 1:
        raise ValueError("ancilla dimension must be positive")
    e00 = np.zeros(d, dtype=complex)
    e11 = np.zeros(d, dtype=complex)
    e00[0] = 1.0
    e11[0] = 1.0
    return RestrictedAttack(b, e00=e00, e01=np.zeros(d, complex), e10=np.zeros(d, complex), e11=e11)


#: the bias and the seven observable probabilities, in field order
STAT_FIELDS = ("bias", "p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus")


@dataclass(frozen=True)
class ObservedStatistics:
    """The seven probabilities the legitimate users can estimate, plus the bias.

    p00..p11 are P(alice=i, bob=j) conditioned on measure-and-Z rounds and
    therefore sum to 1.  p_e_minus is the '-' probability on reflected X
    rounds; p0_plus / p1_plus are the joint probabilities of (bob resent 0,
    alice saw +) and (bob resent 1, alice saw +) on measure-and-X rounds.
    """

    bias: float
    p00: float
    p01: float
    p10: float
    p11: float
    p_e_minus: float
    p0_plus: float
    p1_plus: float

    def __post_init__(self):
        object.__setattr__(self, "bias", _check_bias(self.bias))
        for name in STAT_FIELDS[1:]:
            p = float(getattr(self, name))
            if not -ATOL <= p <= 1.0 + ATOL or p != p:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
            object.__setattr__(self, name, p)
        total = self.p00 + self.p01 + self.p10 + self.p11
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"p00+p01+p10+p11 must equal 1, got {total!r}")
        if self.p0_plus > 0.5 + self.bias + ATOL:
            raise ValueError(f"p0_plus={self.p0_plus!r} exceeds 1/2+b={0.5 + self.bias!r}")
        if self.p1_plus > 0.5 - self.bias + ATOL:
            raise ValueError(f"p1_plus={self.p1_plus!r} exceeds 1/2-b={0.5 - self.bias!r}")


@dataclass(frozen=True)
class StatisticsColumns:
    """ObservedStatistics of many points at once: one flat float64 array per field.

    The fields are broadcast together.  Construction runs every
    ObservedStatistics check at every point and rejects the first bad point
    with the message ObservedStatistics gives for it.
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
        columns = np.broadcast_arrays(*(np.asarray(getattr(self, name), dtype=float) for name in STAT_FIELDS))
        for name, column in zip(STAT_FIELDS, columns):
            object.__setattr__(self, name, column.ravel())
        b = self.bias
        ok = (-0.5 <= b) & (b <= 0.5)
        for name in STAT_FIELDS[1:]:
            p = getattr(self, name)
            ok &= (-ATOL <= p) & (p <= 1.0 + ATOL)
        ok &= np.abs(self.p00 + self.p01 + self.p10 + self.p11 - 1.0) <= ATOL
        ok &= self.p0_plus <= 0.5 + b + ATOL
        ok &= self.p1_plus <= 0.5 - b + ATOL
        if not ok.all():
            self.row(int(np.argmin(ok)))  # the same checks on that point raise its message

    def row(self, i: int) -> ObservedStatistics:
        return ObservedStatistics(**{name: float(getattr(self, name)[i]) for name in STAT_FIELDS})


def compute_statistics(attack: RestrictedAttack) -> ObservedStatistics:
    """Exact observable statistics of an attack.

    Raw-key probabilities are P(a, b) = (weight of bob bit b) * |e_{b a}|^2;
    the X-round statistics follow from the real parts of the fragment
    overlaps.
    """
    a2 = 0.5 + attack.bias
    b2 = 0.5 - attack.bias
    n00 = float(np.vdot(attack.e00, attack.e00).real)
    n01 = float(np.vdot(attack.e01, attack.e01).real)
    n10 = float(np.vdot(attack.e10, attack.e10).real)
    n11 = float(np.vdot(attack.e11, attack.e11).real)
    gm = attack.g_minus()
    return ObservedStatistics(
        bias=attack.bias,
        p00=a2 * n00,
        p01=b2 * n10,
        p10=a2 * n01,
        p11=b2 * n11,
        p_e_minus=float(np.vdot(gm, gm).real),
        p0_plus=a2 * (0.5 + float(np.vdot(attack.e00, attack.e01).real)),
        p1_plus=b2 * (0.5 + float(np.vdot(attack.e10, attack.e11).real)),
    )


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR factorization of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_attack(rng: np.random.Generator, ancilla_dim: int = 4, bias: float | None = None) -> RestrictedAttack:
    """Random restricted attack for property-test batteries.

    The unitary is Haar random on qubit x ancilla; the bias defaults to a
    uniform draw from [-0.49, 0.49].
    """
    if bias is None:
        bias = float(rng.uniform(-0.49, 0.49))
    return attack_from_unitary(random_unitary(2 * int(ancilla_dim), rng), bias)


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
    entries = fileio.read_kv_lines(path)
    seen: dict[str, tuple[int, str]] = {}
    for lineno, key, value in entries:
        if key not in ("b", "d") + _VECTOR_KEYS:
            raise ParseError(path, lineno, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(path, lineno, f"duplicate key {key!r}")
        seen[key] = (lineno, value)
    for key in ("b", "d") + _VECTOR_KEYS:
        if key not in seen:
            raise ParseError(path, 0, f"missing key {key!r}")
    lineno, value = seen["b"]
    b = fileio.parse_float(path, lineno, "b", value)
    if not -0.5 <= b <= 0.5:
        raise ParseError(path, lineno, f"b must lie in [-1/2, 1/2], got {b!r}")
    lineno, value = seen["d"]
    d = fileio.parse_int(path, lineno, "d", value)
    if d < 1:
        raise ParseError(path, lineno, f"d must be positive, got {d}")
    vectors = {}
    for key in _VECTOR_KEYS:
        lineno, value = seen[key]
        vectors[key] = _parse_vector(path, lineno, key, value, d)
    return b, vectors


def load_attack(path) -> RestrictedAttack:
    """Parse an attack file and enforce the unitarity invariants."""
    b, vectors = parse_attack_file(path)
    return RestrictedAttack(b, **vectors)


def save_attack(attack: RestrictedAttack, path) -> None:
    def vec(v: np.ndarray) -> str:
        return ";".join(f"{c.real:.17g},{c.imag:.17g}" for c in v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"b={attack.bias:.17g}\n")
        fh.write(f"d={attack.ancilla_dim}\n")
        for name in _VECTOR_KEYS:
            fh.write(f"{name}={vec(getattr(attack, name))}\n")
