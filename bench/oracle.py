"""Reference values computed apart from sqkd.

Nothing here imports the package under test.  The closed form f(b, q), the
exact depolarizing statistics, the exact Devetak-Winter rate of an attack and
the attack and statistics files are all written from the model's definitions
with numpy, so that a wrong program cannot also produce the reference.
"""

from __future__ import annotations

import math

import numpy as np

#: A printed number matches a reference when it lies within one unit of its
#: 12th significant digit plus this floor.  The floor covers the bound's own
#: rounding: where lambda is within a few ulps of 1, h(lambda) amplifies the
#: rounding of lambda, and the general-form bound and the closed form were
#: measured up to 1.7e-14 apart over 5e5 points (the largest at q below 1e-12).
ABS_FLOOR = 1e-13

#: Per-estimate false-alarm probability of the Monte Carlo check.
ESTIMATE_ALPHA = 1e-10


def unit12(x):
    """One unit in the 12th significant digit of x (elementwise)."""
    x = np.abs(np.asarray(x, dtype=float))
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, 10.0 ** (np.floor(np.log10(safe)) - 11.0), 0.0)


def close(printed, ref, slack=0.0):
    """True where printed values match ref within a printed unit plus the floor."""
    printed = np.asarray(printed, dtype=float)
    return np.abs(printed - ref) <= unit12(printed) + ABS_FLOOR + slack


def h2(x):
    """Binary entropy in bits, 0 at both ends (elementwise)."""
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0)
    y = np.where(inner, x, 0.5)
    return np.where(inner, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)


def closed_form_f(b, q):
    """f(b, q) for a depolarizing reverse channel with parameter q and bias b.

    f = h(1/2 + b - bq) - h(1 - q/2) - q/2 - (1 - q/2) h(lambda), with
    B = max(0, (1/2 - 3q/4) sqrt(1 - 4b^2)) and
    lambda = min(1, 1/2 + sqrt(b^2 (2 - q)^2 + 4 B^2) / (2 - q)).
    """
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    root = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * b * b))
    big_b = np.maximum(0.0, (0.5 - 0.75 * q) * root)
    lam = np.minimum(1.0, 0.5 + np.sqrt(b * b * (2.0 - q) ** 2 + 4.0 * big_b * big_b) / (2.0 - q))
    return h2(0.5 + b - b * q) - h2(1.0 - 0.5 * q) - 0.5 * q - (1.0 - 0.5 * q) * h2(lam)


def overlap_bound(b, q):
    """The overlap bound B before clamping; B <= 0 means the protocol aborts."""
    return (0.5 - 0.75 * q) * math.sqrt(max(0.0, 1.0 - 4.0 * b * b))


def depolarizing_probabilities(b, q):
    """The seven observable probabilities and the bias for a depolarizing channel."""
    root = math.sqrt(max(0.0, 1.0 - 4.0 * b * b))
    return {
        "b": b,
        "p00": (0.5 + b) * (1.0 - 0.5 * q),
        "p01": (0.5 - b) * 0.5 * q,
        "p10": (0.5 + b) * 0.5 * q,
        "p11": (0.5 - b) * (1.0 - 0.5 * q),
        "p_e_minus": 0.5 - 0.5 * (1.0 - q) * root,
        "p0_plus": 0.5 * (0.5 + b),
        "p1_plus": 0.5 * (0.5 - b),
    }


def count_tolerance(m, p, alpha=ESTIMATE_ALPHA):
    """Bernstein half-width, in counts, for a Binomial(m, p) count.

    P(|k - m p| > t) <= 2 exp(-t^2 / (2 (m p (1-p) + t/3))) = alpha.  For
    large counts t is about 6.9 standard errors; the t/3 term covers the
    skewed tail of rare outcomes, where a normal z-bound would fire too often.
    """
    lg = math.log(2.0 / alpha)
    return lg / 3.0 + math.sqrt(lg * lg / 9.0 + 2.0 * lg * m * p * (1.0 - p))


# ---------------------------------------------------------------------------
# attacks: unitaries on qubit (x) ancilla, qubit most significant


def haar_unitary(dim, rng):
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def near_identity_unitary(dim, eps, rng):
    """exp(i eps H) for a random Hermitian H with unit-scale spectrum."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / (2.0 * math.sqrt(dim))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


def fragments(u):
    """e_ij with U|i,0> = |0,e_i0> + |1,e_i1>: column i*d, row block j."""
    d = u.shape[0] // 2
    return {f"e{i}{j}": u[j * d:(j + 1) * d, i * d].copy() for i in (0, 1) for j in (0, 1)}


def _entropy(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def exact_rate(b, frags):
    """S(B|E) - H(B|A) of the raw key from dense matrices.

    rho_BE = sum_j w_j |j><j| (x) (|e_j0><e_j0| + |e_j1><e_j1|) with
    w = (1/2 + b, 1/2 - b); H(B|A) comes from P(a, j) = w_j |e_ja|^2.
    """
    w = (0.5 + b, 0.5 - b)
    sigma = [
        np.outer(frags[f"e{j}0"], frags[f"e{j}0"].conj()) + np.outer(frags[f"e{j}1"], frags[f"e{j}1"].conj())
        for j in (0, 1)
    ]
    rho_be = sum(w[j] * np.kron(np.diag([1.0 - j, float(j)]), sigma[j]) for j in (0, 1))
    rho_e = w[0] * sigma[0] + w[1] * sigma[1]
    s_b_given_e = _entropy(rho_be) - _entropy(rho_e)
    joint = np.array([[w[j] * float(np.vdot(frags[f"e{j}{a}"], frags[f"e{j}{a}"]).real) for j in (0, 1)]
                      for a in (0, 1)])
    joint = joint[joint > 0]
    marginal_a = [w[0] * float(np.vdot(frags[f"e0{a}"], frags[f"e0{a}"]).real)
                  + w[1] * float(np.vdot(frags[f"e1{a}"], frags[f"e1{a}"]).real) for a in (0, 1)]
    h_joint = float(-np.sum(joint * np.log2(joint)))
    h_a = float(-sum(p * math.log2(p) for p in marginal_a if p > 0))
    return s_b_given_e - (h_joint - h_a)


def write_attack(path, b, frags):
    """Attack file in the documented key=value format."""
    def vec(v):
        return ";".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in v)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# benchmark attack\nb={float(b)!r}\nd={frags['e00'].size}\n")
        for key in ("e00", "e01", "e10", "e11"):
            fh.write(f"{key}={vec(frags[key])}\n")


def write_statistics(path, probs):
    with open(path, "w", encoding="utf-8") as fh:
        for key in ("b", "p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus"):
            fh.write(f"{key}={float(probs[key])!r}\n")
