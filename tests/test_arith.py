"""Primality against trial division, across the small-n shortcut, and the
smallest primitive root against the multiplicative orders."""

import pytest

from compalg import ParameterError, arith
from compalg.arith import is_prime, smallest_primitive_root


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_below_5000():
    # 41^2 = 1681 is where the answer stops coming from division by the
    # primes up to 37 and Miller-Rabin takes over
    for n in range(-3, 5000):
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_is_prime_on_pseudoprimes_and_large_primes():
    # Carmichael numbers and strong pseudoprimes to small bases
    for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    for n in (1000003, 2**31 - 1, 2**61 - 1, 18446744073709551557):
        assert is_prime(n), n


def _order(g, p):
    k, x = 1, g % p
    while x != 1:
        k, x = k + 1, x * g % p
    return k


def test_smallest_primitive_root_checks_p_once(monkeypatch):
    calls = []
    real = arith.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    assert smallest_primitive_root(191) == 19
    assert calls == [191]
    assert smallest_primitive_root(2) == 1
    for p in (3, 5, 7, 23, 41, 199):
        assert smallest_primitive_root(p) == next(g for g in range(2, p) if _order(g, p) == p - 1)
    with pytest.raises(ParameterError, match="4 is not prime"):
        smallest_primitive_root(4)
