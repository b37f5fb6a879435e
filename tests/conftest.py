"""Helpers shared by the tests.

Random attacks and the attack and statistics files are made by the
sqkd-free oracle in ``bench/oracle.py``, so that the package under test does
not also produce its own test inputs.
"""

import oracle
from sqkd.attacks import STAT_FIELDS, RestrictedAttack


def random_attack(rng, ancilla_dim=4, bias=None):
    """Haar-random restricted attack on qubit (x) ancilla.

    The bias defaults to a uniform draw from [-0.49, 0.49], made before the
    unitary, so a seed gives the same attacks it always has.
    """
    if bias is None:
        bias = float(rng.uniform(-0.49, 0.49))
    return RestrictedAttack(bias, **oracle.fragments(oracle.haar_unitary(2 * int(ancilla_dim), rng)))


def fragments_of(attack):
    return {name: getattr(attack, name) for name in ("e00", "e01", "e10", "e11")}


def save_attack(attack, path):
    oracle.write_attack(path, attack.bias, fragments_of(attack))


def save_statistics(stats, path):
    oracle.write_statistics(path, {"b" if name == "bias" else name: getattr(stats, name) for name in STAT_FIELDS})
