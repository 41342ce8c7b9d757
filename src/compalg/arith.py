"""Integer helpers: primality, factoring, primitive roots.

Primality is deterministic for everything below 2**64 (fixed Miller-Rabin
witness set); larger inputs are rejected so key generation stays
reproducible rather than probabilistic.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterError

# Witnesses proving Miller-Rabin deterministic for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_PRIMALITY_LIMIT = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic primality check for 0 <= n < 2**64."""
    if n >= _PRIMALITY_LIMIT:
        raise ParameterError(f"primality check limited to n < 2**64, got {n}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # a composite below 41^2 has a prime factor up to 37
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, {prime: exponent}."""
    if n < 1:
        raise ParameterError(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes of n >= 1, ascending; factorized once per n."""
    return tuple(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_primitive_root(g: int, p: int) -> bool:
    """True when g generates the multiplicative group mod prime p."""
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    return generates_units(g, p)


def generates_units(g: int, p: int) -> bool:
    """``is_primitive_root`` for a p the caller has already checked is prime."""
    g %= p
    if g == 0:
        return False
    for q in prime_factors(p - 1):
        if pow(g, (p - 1) // q, p) == 1:
            return False
    return True


def smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    if p > 2 and not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    for g in range(2, p):
        if generates_units(g, p):
            return g
    raise ParameterError(f"no primitive root found mod {p}")
