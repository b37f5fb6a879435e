import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
from conftest import random_attack, save_attack
from sqkd.attacks import (
    RestrictedAttack,
    Statistics,
    attack_deviations,
    compute_statistics,
    depolarizing_attack,
    load_attack,
    parse_attack_file,
)
from sqkd.fileio import ParseError
from sqkd.keyrate import depolarizing_stats, key_rate_bound

STAT_FIELDS = ("p00", "p01", "p10", "p11", "p_e_minus", "p0_plus", "p1_plus")

BIT_FLIP = dict(e00=[0.0], e01=[1.0], e10=[1.0], e11=[0.0])
IDENTITY = dict(e00=[1.0], e01=[0.0], e10=[0.0], e11=[1.0])


# ------------------------------------------------------- attack construction


def test_make_e_state_known_values():
    # Eve injects |e> = sqrt(1/2+b)|0> + sqrt(1/2-b)|1> toward Bob
    for b, want in ((0.0, (math.sqrt(0.5), math.sqrt(0.5))), (0.5, (1.0, 0.0)),
                    (0.3, (math.sqrt(0.8), math.sqrt(0.2)))):
        atk = RestrictedAttack(b, **IDENTITY)
        assert_allclose((atk.alpha, atk.beta), want, atol=1e-15)


def test_make_e_state_rejects_out_of_range():
    for b in (0.6, -0.51):
        with pytest.raises(ValueError, match="bias must lie"):
            RestrictedAttack(b, **IDENTITY)


def test_attack_from_identity_unitary():
    atk = RestrictedAttack(0.1, **oracle.fragments(np.eye(2)))
    assert atk.e00.size == 1
    assert_allclose(atk.e00, [1.0], atol=1e-15)
    assert_allclose(atk.e01, [0.0], atol=1e-15)
    assert_allclose(atk.e10, [0.0], atol=1e-15)
    assert_allclose(atk.e11, [1.0], atol=1e-15)


def test_attack_from_bit_flip_unitary():
    # the qubit is the most significant factor of qubit (x) ancilla
    atk = RestrictedAttack(0.0, **oracle.fragments(np.array([[0.0, 1.0], [1.0, 0.0]])))
    for name, want in BIT_FLIP.items():
        assert_allclose(getattr(atk, name), want, atol=1e-15)
    swap = np.eye(4)[[0, 2, 1, 3]]  # |q, a> -> |a, q>
    atk = RestrictedAttack(0.0, **oracle.fragments(swap))
    assert_allclose(atk.e00, [1.0, 0.0], atol=1e-15)
    assert_allclose(atk.e01, [0.0, 0.0], atol=1e-15)
    assert_allclose(atk.e10, [0.0, 1.0], atol=1e-15)
    assert_allclose(atk.e11, [0.0, 0.0], atol=1e-15)


def test_attack_from_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="deviation"):
        RestrictedAttack(0.0, **oracle.fragments(np.eye(2) * 1.1))


def test_random_attacks_satisfy_unitarity():
    rng = np.random.default_rng(17)
    for _ in range(300):
        atk = random_attack(rng, ancilla_dim=int(rng.integers(1, 5)))
        dev = attack_deviations(atk.e00, atk.e01, atk.e10, atk.e11)
        assert max(dev.values()) <= 1e-12


def test_restricted_attack_rejects_invariant_violations():
    with pytest.raises(ValueError, match="unitarity"):
        RestrictedAttack(0.0, e00=[1.1], e01=[0.0], e10=[0.0], e11=[1.0])
    with pytest.raises(ValueError):
        RestrictedAttack(0.7, e00=[1.0], e01=[0.0], e10=[0.0], e11=[1.0])
    with pytest.raises(ValueError):
        RestrictedAttack(0.0, e00=[1.0, 0.0], e01=[0.0], e10=[0.0], e11=[1.0])


# ---------------------------------------------------------------- channels


def _channel_output(atk, rho):
    """The qubit Bob returns after the attack, ancilla traced out.

    U|i,0> = |0,e_i0> + |1,e_i1>, so U (rho (x) |0><0|) U^dag traced over the
    ancilla is sum_k M_k rho M_k^dag with (M_k)_{j,i} = e_ij[k].
    """
    frags = np.array([[atk.e00, atk.e10], [atk.e01, atk.e11]])  # [j, i, k]
    return np.einsum("jik,il,mlk->jm", frags, rho, frags.conj())


def test_depolarizing_channel_known_actions():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    assert_allclose(_channel_output(depolarizing_attack(0.0, 0.0), rho0), rho0, atol=1e-15)
    assert_allclose(_channel_output(depolarizing_attack(0.0, 1.0), rho0), np.eye(2) / 2, atol=1e-15)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert_allclose(_channel_output(depolarizing_attack(0.0, 0.2), plus), 0.8 * plus + 0.1 * np.eye(2),
                    atol=1e-12)


def test_depolarizing_channel_matches_definition_on_random_states():
    rng = np.random.default_rng(2)
    for q in (0.0, 0.1, 0.5, 1.0):
        atk = depolarizing_attack(float(rng.uniform(-0.5, 0.5)), q)
        for _ in range(20):
            v = oracle.haar_unitary(2, rng)[:, 0]
            rho = np.outer(v, v.conj())
            assert_allclose(_channel_output(atk, rho), (1 - q) * rho + q * np.eye(2) / 2, atol=1e-12)


def test_depolarizing_channel_rejects_out_of_range():
    for q in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="depolarizing parameter must lie in \\[0, 1\\]"):
            depolarizing_attack(0.0, q)
    # the noise is checked before the bias
    with pytest.raises(ValueError, match="depolarizing parameter"):
        depolarizing_attack(0.6, 1.5)
    with pytest.raises(ValueError, match="bias must lie"):
        depolarizing_attack(0.6, 0.5)


def test_attack_from_kraus_identity_channel():
    # the q = 0 dilation acts as the identity channel
    for b in (0.0, 0.3, -0.45):
        stats = compute_statistics(depolarizing_attack(b, 0.0))
        ident = compute_statistics(RestrictedAttack(b, **IDENTITY))
        for name in STAT_FIELDS:
            assert getattr(stats, name)[0] == pytest.approx(getattr(ident, name)[0], abs=1e-15)


def test_attack_from_kraus_depolarizing_matches_closed_forms():
    for b in np.linspace(-0.45, 0.45, 7):
        for q in np.linspace(0.0, 1.0, 9):
            got = compute_statistics(depolarizing_attack(b, q))
            want = depolarizing_stats(b, q)
            for name in STAT_FIELDS:
                assert getattr(got, name)[0] == pytest.approx(getattr(want, name)[0], abs=1e-12)
    # the matched-bit overlap of the dilation is 1 - q
    atk = depolarizing_attack(0.0, 0.3)
    assert np.vdot(atk.e00, atk.e11).real == pytest.approx(0.7, abs=1e-13)


# -------------------------------------------------------------- statistics


def test_identity_attack_statistics():
    stats = compute_statistics(depolarizing_attack(0.0, 0.0))
    assert stats.p00[0] == pytest.approx(0.5, abs=1e-15)
    assert stats.p11[0] == pytest.approx(0.5, abs=1e-15)
    assert stats.p01[0] == stats.p10[0] == 0.0
    assert stats.p_e_minus[0] == pytest.approx(0.0, abs=1e-15)
    assert stats.p0_plus[0] == pytest.approx(0.25, abs=1e-15)
    assert stats.p1_plus[0] == pytest.approx(0.25, abs=1e-15)


def test_bit_flip_attack_statistics():
    stats = compute_statistics(RestrictedAttack(0.0, **BIT_FLIP))
    assert stats.p00[0] == stats.p11[0] == 0.0
    assert stats.p01[0] == pytest.approx(0.5, abs=1e-15)
    assert stats.p10[0] == pytest.approx(0.5, abs=1e-15)


def test_marginals_match_bias():
    rng = np.random.default_rng(23)
    for _ in range(300):
        atk = random_attack(rng)
        stats = compute_statistics(atk)
        assert stats.p00[0] + stats.p10[0] == pytest.approx(0.5 + atk.bias, abs=1e-10)
        assert stats.p01[0] + stats.p11[0] == pytest.approx(0.5 - atk.bias, abs=1e-10)


def test_cauchy_schwarz_on_cross_overlap():
    rng = np.random.default_rng(29)
    for _ in range(300):
        atk = random_attack(rng)
        stats = compute_statistics(atk)
        lhs = atk.alpha * atk.beta * abs(np.vdot(atk.e01, atk.e10).real)
        assert lhs <= math.sqrt(stats.p01[0] * stats.p10[0]) + 1e-10


def test_overlap_bound_is_a_lower_bound():
    # B(stats) never exceeds alpha beta |<e00|e11>| for a physical attack
    rng = np.random.default_rng(31)
    for _ in range(1000):
        atk = random_attack(rng)
        stats = compute_statistics(atk)
        true_overlap = atk.alpha * atk.beta * abs(np.vdot(atk.e00, atk.e11))
        assert key_rate_bound(stats).B_lower[0] <= true_overlap + 1e-10


def test_statistics_validation():
    kw = dict(bias=0.0, p00=0.5, p01=0.0, p10=0.0, p11=0.5,
              p_e_minus=0.0, p0_plus=0.25, p1_plus=0.25)
    Statistics(**kw)
    with pytest.raises(ValueError, match="p00\\+p01\\+p10\\+p11"):
        Statistics(**{**kw, "p11": 0.4})
    with pytest.raises(ValueError, match="p0_plus"):
        Statistics(**{**kw, "p0_plus": 0.51})
    with pytest.raises(ValueError, match="p1_plus"):
        Statistics(**{**kw, "p1_plus": 0.51})
    with pytest.raises(ValueError):
        Statistics(**{**kw, "p00": -0.1, "p11": 1.1})
    with pytest.raises(ValueError):
        Statistics(**{**kw, "bias": 0.6})


# ------------------------------------------------------------- attack files


def test_attack_file_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    atk = random_attack(rng, ancilla_dim=3)
    path = tmp_path / "attack.txt"
    save_attack(atk, path)
    back = load_attack(path)
    assert back.bias == pytest.approx(atk.bias, abs=0)
    for name in ("e00", "e01", "e10", "e11"):
        assert_allclose(getattr(back, name), getattr(atk, name), atol=0)


def test_attack_file_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("b=0\nd=1\ne00=1,0\ne01=0,0\ne10=0,0\n")
    with pytest.raises(ParseError, match="missing keys: e11$"):
        load_attack(path)

    path.write_text("b=0\nd=1\nwhat=1\ne00=1,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    with pytest.raises(ParseError, match="bad.txt:3"):
        load_attack(path)

    path.write_text("b=0\nd=2\ne00=1,0\ne01=0,0;0,0\ne10=0,0;0,0\ne11=1,0;0,0\n")
    with pytest.raises(ParseError, match="expected 2 components"):
        load_attack(path)

    path.write_text("b=zzz\nd=1\ne00=1,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    with pytest.raises(ParseError, match="invalid number"):
        load_attack(path)

    path.write_text("b=0\nb=0\nd=1\ne00=1,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_attack(path)


def test_attack_file_scaled_fragment_fails_invariants(tmp_path):
    path = tmp_path / "scaled.txt"
    path.write_text("b=0\nd=1\ne00=1.1,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    _, vectors = parse_attack_file(path)
    dev = attack_deviations(**vectors)
    assert dev["norm0"] == pytest.approx(0.21, abs=1e-12)
    with pytest.raises(ValueError, match="unitarity"):
        load_attack(path)


def test_attack_file_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("# identity attack\n\nb=0\nd=1\ne00=1,0\ne01=0,0\ne10=0,0\ne11=1,0\n")
    atk = load_attack(path)
    assert atk.e00.size == 1
