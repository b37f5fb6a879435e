"""The scalar and matrix entropies the bound and its reference rest on.

The binary entropy is ``keyrate._h``, which the threshold searches evaluate;
the larger eigenvalue of a 2x2 density operator is the kernel's closed form
``keyrate._lambda``; the von Neumann entropy is the one ``oracle.exact_rate``
takes of its dense matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracle
from sqkd.keyrate import _h, _lambda


def random_density(rng, dim):
    u = oracle.haar_unitary(dim, rng)
    p = rng.dirichlet(np.ones(dim))
    return (u * p) @ u.conj().T


# ---------------------------------------------------------------- entropies


def test_binary_entropy_known_values():
    assert _h(0.5) == 1.0
    assert _h(0.0) == 0.0
    assert _h(1.0) == 0.0
    # frozen from a 50-digit oracle: h(0.11) = 0.49991595816528...
    assert round(_h(0.11), 5) == 0.49992
    assert _h(0.11) == pytest.approx(0.49991595816528, abs=1e-12)


def test_binary_entropy_matches_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for x in (0.11, 0.25, 0.5, 0.75, 0.9999, 1e-9):
        want = float(-mp.mpf(x) * mp.log(x, 2) - (1 - mp.mpf(x)) * mp.log(1 - mp.mpf(x), 2))
        assert _h(x) == pytest.approx(want, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetric_and_bounded(x):
    h = _h(x)
    assert 0.0 <= h <= 1.0 + 1e-12
    assert h == pytest.approx(_h(1.0 - x), abs=1e-12)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        _h(-0.01)
    with pytest.raises(ValueError):
        _h(1.01)


def test_von_neumann_entropy_known_values():
    assert oracle._entropy(np.diag([1.0, 0.0])) == 0.0
    assert oracle._entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    got = oracle._entropy(np.diag([0.75, 0.25]))
    assert got == pytest.approx(_h(0.75), abs=1e-12)
    assert round(got, 5) == 0.81128


def test_von_neumann_entropy_non_negative_battery():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        assert oracle._entropy(random_density(rng, dim)) >= 0.0


# ------------------------------------------------------------- 2x2 spectrum


def spectrum_2x2(m):
    """Eigenvalues of a 2x2 positive semidefinite m, largest first, from _lambda.

    _lambda(p00, p11, B) is the larger eigenvalue of [[p00, B], [B*, p11]]
    divided by its trace; only |B| enters.
    """
    m = np.asarray(m, dtype=complex)
    t = (m[0, 0] + m[1, 1]).real
    lam = float(_lambda(m[0, 0].real, m[1, 1].real, abs(m[0, 1])))
    return t * lam, t * (1.0 - lam)


@pytest.mark.parametrize("m, expected", [
    ([[1.0, 0.0], [0.0, 0.0]], (1.0, 0.0)),
    ([[0.5, 0.5], [0.5, 0.5]], (1.0, 0.0)),
])
def test_eig_hermitian_2x2_known_values(m, expected):
    assert_allclose(spectrum_2x2(np.array(m)), expected, atol=1e-12)


def test_eig_hermitian_2x2_matches_generic_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = a @ a.conj().T
        lam = spectrum_2x2(m)
        want = np.linalg.eigvalsh(m)[::-1]
        assert_allclose(lam, want, atol=1e-10)
        assert lam[0] + lam[1] == pytest.approx(np.trace(m).real, abs=1e-12)
    assert math.isclose(spectrum_2x2(np.diag([0.3, 0.7]))[0], 0.7, abs_tol=1e-15)
