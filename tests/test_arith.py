"""Primality against trial division, across the small-n shortcut; factoring
bounded by the work budget; divisors against trial division; and the
smallest primitive root against the multiplicative orders."""

from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalg import CeilingError, ParameterError, arith
from compalg.arith import divisors, factorize, is_prime, smallest_primitive_root


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


def test_factorize_divides_up_to_the_budget_then_checks_the_cofactor():
    for n in range(1, 3000):
        fac = factorize(n)
        assert all(map(_is_prime_by_trial_division, fac)), n
        assert n == prod(p**e for p, e in fac.items()), n
    assert factorize(2**5 * 3 * 11 * 947) == {2: 5, 3: 1, 11: 1, 947: 1}
    assert factorize(6 * 166667) == {2: 1, 3: 1, 166667: 1}  # a prime cofactor above 65536
    assert factorize(2305843009213693967) == {2305843009213693967: 1}
    for n in (65537 * 65539, 65537**2, 2**64 + 13):  # no factor <= 65536, not shown prime
        with pytest.raises(CeilingError, match=f"^factoring {n} needs trial divisors above "
                                               "the work budget 65536$"):
            factorize(n)


def _divisors_by_trial_division(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


@settings(max_examples=300)
@given(st.integers(1, 10**6))
def test_divisors_match_trial_division(n):
    assert divisors(n) == _divisors_by_trial_division(n)


def test_divisors_are_refused_only_by_factoring_or_their_count():
    assert divisors(2**61 - 1) == [1, 2**61 - 1]
    assert len(divisors(10**24)) == 625  # (24 + 1)^2 prime-power products
    with pytest.raises(CeilingError, match="^factoring 4295229443 needs trial divisors above "
                                           "the work budget 65536$"):
        divisors(65537 * 65539)
    primorial = prod(p for p in range(60) if is_prime(p))  # 17 primes, 2^17 divisors
    with pytest.raises(CeilingError, match=f"^listing the divisors of {primorial} needs at "
                                           "least 131072 steps, above the work budget 65536$"):
        divisors(primorial)


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
