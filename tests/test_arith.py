"""Primality against trial division, across the small-n shortcut."""

from compalg.arith import is_prime


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
